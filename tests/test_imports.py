"""Every name a package module imports is used in that module, every
function and method the package defines is named by the program, and a
table build never loads numpy.

No linter ships with the project's dependencies, so this parses each module
with ast: a name bound by an import must be read somewhere in the module,
as a name or as the base of an attribute, or in a string annotation. A
top-level function or method of src/ must be named somewhere in src/,
perfbench/ or scripts/, unless it is a test-backed helper in
TEST_BACKED_HELPERS. A method counts as named wherever an attribute of its
name is read, so a dead method that shares its name with a used one (an
eval or to_json_dict of another class) is not caught. No module imports
numpy at module level: the report functions that use it import it where
they run, so a build process and the queries that run no numpy code never
pay its import.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).parent.parent
PACKAGE = REPO / "src" / "holonomy"

# Helpers that only tests call, each backing a check of its own.
TEST_BACKED_HELPERS = {
    "correspondence_ratio": "acceptance criterion 7, the correspondence-matrix ratio",
    "mu_quadrature": "acceptance criterion 1, the measure's orthogonality by quadrature",
    "eval_basis_kernel": "acceptance criterion 1, the basis kernels that quadrature integrates",
    "rect_approximant": "acceptance criterion 2, the extremal rectangle approximants",
    "TrigPolynomial.coeff": "acceptance criterion 2, the Beurling-Selberg coefficient bounds",
    "TrigPolynomial.integral": "acceptance criterion 2, the majorant and minorant integrals",
    "TrigFunction.sign_symmetrize": "test_measure's tensor and sign-symmetrisation check",
    "totally_positive_units_are_squares": "acceptance criterion 6, the narrow class criterion",
}


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        ann = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            used |= {n.id for n in ast.walk(ast.parse(ann.value, mode="eval")) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_an_unused_import():
    src = "import os\nimport sys\nfrom math import pi, tau as t\nx: 'Fraction' = sys.argv\nprint(t)\n"
    assert unused_imports(src) == [(1, "os"), (3, "pi")]


def defined_functions(source: str) -> list:
    """Top-level functions and methods of top-level classes, as qualified
    names; dunder methods are called by the language and are left out."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            out.append(node.name)
        elif isinstance(node, ast.ClassDef):
            out += [f"{node.name}.{n.name}" for n in node.body if isinstance(n, ast.FunctionDef)]
    return [q for q in out if not q.rsplit(".", 1)[-1].startswith("__")]


def named(sources) -> tuple:
    """(names, attributes): every name read bare or as an identifier string
    (the way perfbench/tracer.py names the modules and functions it wraps),
    and every attribute read, or named last in a dotted string."""
    names, attrs = set(), set()
    for source in sources:
        for n in ast.walk(ast.parse(source)):
            if isinstance(n, ast.Name):
                names.add(n.id)
            elif isinstance(n, ast.Attribute):
                attrs.add(n.attr)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str) \
                    and re.fullmatch(r"[\w.]+", n.value):
                *_, last = n.value.split(".")
                (attrs if "." in n.value else names).add(last)
    return names, attrs


def unnamed_functions(package: dict, sources) -> list:
    """(module, qualified name) of each function defined in `package`
    (module -> source) that no source names; a method counts as named only
    where it is read as an attribute."""
    names, attrs = named(sources)
    return sorted((mod, q) for mod, source in package.items() for q in defined_functions(source)
                  if q.rsplit(".", 1)[-1] not in (attrs if "." in q else names | attrs))


def test_every_function_is_named_by_the_program():
    # equality, so an exempt helper that the program starts to call loses its exemption
    package = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    sources = [p.read_text() for d in ("src", "perfbench", "scripts") for p in sorted((REPO / d).rglob("*.py"))]
    assert {q for _, q in unnamed_functions(package, sources)} == set(TEST_BACKED_HELPERS)


def test_checker_flags_an_unnamed_function():
    src = ("def used():\n    return helper()\n\n\ndef helper():\n    return 1\n\n\n"
           "def dead():\n    pass\n\n\nclass C:\n    def __init__(self):\n        pass\n\n"
           "    def traced(self):\n        pass\n\n    def gone(self):\n        pass\n")
    tracer = "TRACED = {('m', 'C.traced'): 'wall_s'}\nused()\nKIND = 'gone'\n"
    assert unnamed_functions({"m.py": src}, [src, tracer]) == [("m.py", "C.gone"), ("m.py", "dead")]


def module_level_imports(source: str) -> list:
    """(line, module) of every import that runs when the module loads: those
    outside function bodies, including class bodies and if/try blocks."""
    out = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                out.extend((child.lineno, a.name) for a in child.names)
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                out.append((child.lineno, child.module))
            visit(child)

    visit(ast.parse(source))
    return out


def imports_numpy(module: str) -> bool:
    return module == "numpy" or module.startswith("numpy.")


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_level_numpy_import(path):
    assert [(line, m) for line, m in module_level_imports(path.read_text()) if imports_numpy(m)] == []


def test_checker_flags_a_module_level_numpy_import():
    src = ("import numpy as np\nfrom numpy.linalg import inv\nif True:\n    import numpy.fft\n"
           "class C:\n    import numpy\n\n\ndef f():\n    import numpy as np\n    return np\n")
    assert [(line, m) for line, m in module_level_imports(src) if imports_numpy(m)] == \
        [(1, "numpy"), (2, "numpy.linalg"), (4, "numpy.fft"), (6, "numpy")]


BUILD_PATH = """
import sys
from pathlib import Path

import holonomy.cli
from holonomy.fields import make_field
from holonomy.orders import LatticeSpec, OrderCache

d = Path(sys.argv[1])
OrderCache(str(d / "setup.jsonl"))
LatticeSpec.hilbert(make_field(2))
csv = str(d / "x4.csv")
assert holonomy.cli.main(["--cache", str(d / "cache.jsonl"), "enumerate", "--m", "2", "--x", "4",
                          "--out", csv]) == 0
assert holonomy.cli.main(["stats", "pgt", "--in", csv, "--grid", "3,4"]) == 0
print("numpy after build:", "numpy" in sys.modules)
assert holonomy.cli.main(["stats", "equi", "--in", csv, "--rect", " -1:1", "--N", "8", "--grid", "4"]) == 0
print("numpy after rect:", "numpy" in sys.modules)
"""


def test_build_path_never_loads_numpy(tmp_path):
    # a cold build through an empty cache, then a counting query, in a fresh
    # interpreter; the rectangle report still loads numpy where it runs
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(REPO / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    out = subprocess.run([sys.executable, "-c", BUILD_PATH, str(tmp_path)], env=env, check=True,
                         capture_output=True, text=True).stdout.splitlines()
    assert "numpy after build: False" in out
    assert out[-1] == "numpy after rect: True"
