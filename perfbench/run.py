"""Benchmark of the holonomy package: table builds and CLI report queries.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; paths are resolved from this file's location, the root of
a source checkout (``src/holonomy``, ``data/``). Workloads:

  warm-x7     the Q(sqrt 2) table at cutoff 7 through a copy of the shipped
              order cache: every order is a cache hit, the time goes to
              factorisation. Fixed input; the seed is ignored.
  cold-x5     the same build at cutoff 5 from an empty cache file: every
              order is computed by the class-number oracle and appended.
              Fixed input; the seed is ignored.
  report-cli  a seeded pass of 60 ``holonomy`` CLI queries (counting,
              equidistribution and trace-formula reports) against copies of
              the shipped cutoff-10 table and cache, one fresh process each.

Each unit of work (one build, or one query pass) runs in fresh interpreters,
so per-process caches never carry over. Units repeat while another one fits
in ``--seconds``; unit metrics are medians over units, latencies are pooled
over them, and set-up probes are spread over the run. ``--workload all`` runs
every workload in turn. ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced units and prints the per-layer
metrics (see tracer.py).

Every unit is checked: build tables against the rows of
``data/spectrum_m2_x10.csv`` with length <= x, records appended to the cache
against the shipped cache, and query outputs against golden outputs. A
mismatched, uncertified or failing operation counts in ``failed`` and makes
the exit code 1. ``data/`` is hashed before and after the run; any change
is a failure too. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import queries
import tracer

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
SRC = ROOT / "src"
DATA = ROOT / "data"
REFERENCE = DATA / "spectrum_m2_x10.csv"
SHIPPED_CACHE = DATA / "order_cache.jsonl"
GOLDEN = HERE / "golden_report_cli.json"
WORK = ROOT / ".perfbench_work"

WORKLOADS = {"warm-x7": ("warm", 7.0), "cold-x5": ("cold", 5.0), "report-cli": ("cli", None)}
SETUP_PROBES_PER_BUILD = 2
QUERIES_PER_SETUP_PROBE = 6
IMPORT_PROBES = 3
CHILD_TIMEOUT_S = 170
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
             "op_tail_ms": "ms", "cpu_s": "s", "peak_rss_mb": "MB"}

clock = time.perf_counter


class Failure(Exception):
    """The benchmark could not run or its inputs are missing."""


class Runner:
    """Spawns children in the checkout and owns the run's scratch directory."""

    def __init__(self, work: Path):
        self.work = work
        self.n = 0
        self.env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
        # children import compiled bytecode, as an installed package does
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def path(self, name: str) -> str:
        return str(self.work / name)

    def spawn(self, argv: list) -> dict:
        """Run argv to completion; wall time, rusage, exit code and output."""
        self.n += 1
        out, err = self.path(f"{self.n}.out"), self.path(f"{self.n}.err")
        with open(out, "w") as fo, open(err, "w") as fe:
            t0 = clock()
            proc = subprocess.Popen(argv, stdout=fo, stderr=fe, cwd=ROOT, env=self.env)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, ru = os.wait4(proc.pid, 0)
                t1 = clock()
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
        with open(out) as fo, open(err) as fe:
            stdout, stderr = fo.read(), fe.read()
        os.unlink(out)
        os.unlink(err)
        return {"rc": proc.returncode, "t0": t0, "wall": t1 - t0, "stdout": stdout,
                "stderr": stderr, "cpu": ru.ru_utime + ru.ru_stime, "rss_mb": ru.ru_maxrss / 1024}

    def python(self, *args) -> dict:
        return self.spawn([sys.executable, *map(str, args)])


# ---------------------------------------------------------------------------
# output gates


def reference_rows(reference: str, x: float):
    """Expected CSV header lines and rows, grouped by trace, for cutoff x."""
    lines = reference.splitlines()
    head = [f"# m=2 x={x:.12g}", lines[1]]
    rows: dict = {}
    for ln in lines[2:]:
        f = ln.split(",")
        if float(f[4]) <= x:
            rows.setdefault((f[0], f[1]), []).append(ln)
    return head, rows


def check_table(text: str, reference: str, x: float) -> tuple[int, int]:
    """(traces expected, traces failed): a trace fails when its rows differ
    from the reference or any is uncertified; a wrong header or row order
    fails the table once more."""
    head, want = reference_rows(reference, x)
    lines = text.splitlines()
    got: dict = {}
    for ln in lines[2:]:
        f = ln.split(",")
        got.setdefault((f[0], f[1]), []).append(ln)
    bad = {k for k in want.keys() | got.keys() if want.get(k) != got.get(k)}
    bad |= {k for k, rows in got.items() if any(not r.endswith(",true") for r in rows)}
    exact = lines == head + [r for rows in want.values() for r in rows]
    return len(want), len(bad) + (not bad and not exact)


def cache_key(rec: dict) -> tuple:
    return rec["field_m"], rec["D"], json.dumps(rec["d_hnf"])


def check_appended(cache_path: str, skip: int, shipped: dict) -> int:
    """Records appended after the first `skip` lines that differ from the
    shipped record with the same key (or have none)."""
    bad = 0
    with open(cache_path) as fh:
        for ln in fh.readlines()[skip:]:
            try:
                rec = json.loads(ln)
                key = cache_key(rec)
            except (json.JSONDecodeError, KeyError, TypeError):
                bad += 1
                continue
            bad += shipped.get(key) != rec
    return bad


def load_shipped() -> dict:
    out = {}
    with open(SHIPPED_CACHE) as fh:
        for ln in fh:
            if ln.strip():
                rec = json.loads(ln)
                out[cache_key(rec)] = rec
    return out


def tree_digest(top: Path, pattern: str = "*") -> str:
    h = hashlib.sha256()
    for p in sorted(top.rglob(pattern)):
        if p.is_file():
            h.update(str(p.relative_to(top)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# workloads


def setup_probe(run: Runner, cache: str) -> float:
    r = run.python(HERE / "child.py", "setup", "--cache", cache)
    if r["rc"] != 0:
        raise Failure(f"set-up child failed:\n{r['stderr']}")
    return json.loads(r["stdout"].splitlines()[-1])["t_ready"] - r["t0"]


class BuildWorkload:
    """One unit = one table build in a fresh process."""

    def __init__(self, run: Runner, mode: str, x: float, reference: str):
        self.run, self.mode, self.x, self.reference = run, mode, x, reference
        self.shipped = load_shipped()
        self.sizes = {"m": 2, "x": x, "cache": "shipped copy" if mode == "warm" else "empty"}

    def fresh_cache(self) -> tuple[str, int]:
        path = self.run.path("cache.jsonl")
        if self.mode == "warm":
            shutil.copyfile(SHIPPED_CACHE, path)
            return path, len(self.shipped)
        open(path, "w").close()
        return path, 0

    def unit(self, traced: bool) -> dict:
        cache, skip = self.fresh_cache()
        out, spans = self.run.path("table.csv"), self.run.path("spans.json")
        args = ["build", "--cache", cache, "--x", repr(self.x), "--out", out]
        r = self.run.python(HERE / "child.py", *args, *(["--spans", spans] if traced else []))
        if r["rc"] != 0:
            sys.stderr.write(r["stderr"])
            n, _ = check_table("", self.reference, self.x)
            return {"ops": n, "failed": n, "ok": False}
        res = json.loads(r["stdout"].splitlines()[-1])
        with open(out) as fh:
            traces, failed = check_table(fh.read(), self.reference, self.x)
        failed += res["elliptic_uncertified"] + check_appended(cache, skip, self.shipped)
        ops = traces + res["elliptic"]
        self.sizes.update(traces=traces, elliptic=res["elliptic"])
        unit = {"ok": True, "ops": ops, "failed": min(failed, ops),
                "wall": res["wall_s"], "cpu": res["cpu_s"], "rss_mb": r["rss_mb"],
                "op_ms": res["op_ms"], "setup": [res["t_ready"] - r["t0"]]}
        if traced:
            with open(spans) as fh:
                unit["trace"] = tracer.summarize(json.load(fh))
        else:  # more set-up samples, spread over the run like the units
            unit["setup"] += [setup_probe(self.run, self.fresh_cache()[0])
                              for _ in range(SETUP_PROBES_PER_BUILD)]
        return unit


class ReportWorkload:
    """One unit = one pass over the seeded query list, a fresh process each."""

    def __init__(self, run: Runner, seed: int, n_queries: int | None):
        self.run = run
        self.csv, self.cache = run.path("spectrum.csv"), run.path("order_cache.jsonl")
        shutil.copyfile(REFERENCE, self.csv)
        shutil.copyfile(SHIPPED_CACHE, self.cache)
        self.queries = queries.draw(seed, n_queries)
        with open(GOLDEN) as fh:
            self.golden = json.load(fh)
        kinds: dict = {}
        for kind, _ in self.queries:
            kinds[kind] = kinds.get(kind, 0) + 1
        self.sizes = {"m": 2, "x": 10.0, "queries": len(self.queries), "kinds": kinds}

    def unit(self, traced: bool) -> dict:
        done, setup = [], []
        t0 = clock()
        for i, (_, q) in enumerate(self.queries):
            argv = queries.bind(q, self.csv, self.cache)
            if traced:
                spans = self.run.path(f"spans{i}.json")
                r = self.run.python(HERE / "child.py", "cli", "--spans", spans, "--op", i, "--", *argv)
            else:
                r = self.run.python("-m", "holonomy.cli", *argv)
                if i % QUERIES_PER_SETUP_PROBE == 0:  # spread over the pass, off its clock
                    t = clock()
                    setup.append(setup_probe(self.run, self.cache))
                    t0 += clock() - t
            done.append(r)
        wall = clock() - t0
        failed = 0
        for (_, q), r in zip(self.queries, done):
            want = self.golden.get(queries.key(q))
            got = hashlib.sha256(r["stdout"].encode()).hexdigest()
            if r["rc"] != 0 or got != want:
                failed += 1
                sys.stderr.write(f"query failed (exit {r['rc']}): {q}\n{r['stderr']}")
        unit = {"ok": True, "ops": len(done), "failed": failed, "wall": wall,
                "cpu": sum(r["cpu"] for r in done), "rss_mb": max(r["rss_mb"] for r in done),
                "op_ms": [1000.0 * r["wall"] for r in done], "setup": setup}
        if traced:
            parts = []
            for i in range(len(self.queries)):
                path = self.run.path(f"spans{i}.json")
                if os.path.exists(path):  # absent only if the child died early
                    with open(path) as fh:
                        parts.append(tracer.summarize(json.load(fh)))
                    os.unlink(path)
            unit["trace"] = tracer.merge(parts)
        return unit


def repeat(seconds: float, step) -> list:
    """Run step() while another one is expected to fit in `seconds`; at least
    once. step returns a list of units; stop early on a failed one."""
    units = []
    start = clock()
    while True:
        t = clock()
        units += step()
        if not all(u["ok"] for u in units) or clock() - start + (clock() - t) > seconds:
            return units


def op_samples(units: list) -> list:
    """Every operation latency of the run, pooled over units."""
    return [ms for u in units for ms in u.get("op_ms", [])]


def end_to_end(units: list) -> dict:
    med = statistics.median
    ops = op_samples(units)
    vals = {
        "setup_s": med(t for u in units for t in u["setup"]),
        "wall_s": med(u["wall"] for u in units),
        "ops_per_s": med(u["ops"] / u["wall"] for u in units),
        "op_p50_ms": med(ops),
        "op_tail_ms": tracer.tail_value(ops),
        "cpu_s": med(u["cpu"] for u in units),
        "peak_rss_mb": med(u["rss_mb"] for u in units),
    }
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in vals.items()}


def per_layer(run: Runner, wl, seconds: float) -> tuple[list, dict]:
    """Alternate untraced and traced units; the difference of their median
    walls is the tracing overhead."""
    units = repeat(seconds, lambda: [wl.unit(traced=False), wl.unit(traced=True)])
    if not all(u["ok"] for u in units):
        return units, {}
    plain, traced = units[0::2], units[1::2]
    imports = []
    for _ in range(IMPORT_PROBES):
        r = run.python("-c", "import holonomy.cli")
        if r["rc"] != 0:
            raise Failure(f"import holonomy.cli failed:\n{r['stderr']}")
        imports.append(r["wall"])
    overhead = statistics.median(u["wall"] for u in traced) - statistics.median(
        u["wall"] for u in plain)
    merged = tracer.merge([u["trace"] for u in traced])
    return units, tracer.finish(merged, len(traced), statistics.median(imports), overhead)


def print_layers(metrics: dict, wall: float) -> None:
    """Readable summary: the largest self times and their share of wall_s."""
    selfs = sorted(((v["value"], k) for k, v in metrics.items() if k.endswith(".self_s")),
                   reverse=True)
    print(f"# per-unit wall_s (traced) {wall:.3f} s; largest self times:")
    for v, k in selfs[:10]:
        print(f"#   {k:<52} {v:9.3f} s  {v / wall:6.1%} of wall")
    for k in ("fields.BaseField.elements_of_norm.s", "orders.class_number.s"):
        print(f"#   {k:<52} {metrics[k]['value']:9.3f} s  {metrics[k]['value'] / wall:6.1%} of wall")


# ---------------------------------------------------------------------------


def meta(args, sizes: dict, units: list) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "unknown"

    commit = "unknown"
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = r.stdout.strip() or commit
    n_ops = len(op_samples(units))
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "commit": commit, "src_sha256": tree_digest(SRC, "*.py"),
            "nproc": os.cpu_count(),
            "python": sys.version.split()[0], "numpy": version("numpy"),
            "mpmath": version("mpmath"), **sizes, "units": len(units),
            "op_samples": n_ops,
            "op_tail_percentile": round(tracer.tail_percentile(n_ops), 1) if n_ops else None,
            "unit_walls_s": [round(u["wall"], 4) for u in units if "wall" in u]}


def record_golden(run: Runner) -> int:
    """Write the golden query outputs. Run only on a commit whose outputs are
    known good: the gate compares every later commit against this file."""
    csv, cache = run.path("spectrum.csv"), run.path("order_cache.jsonl")
    shutil.copyfile(REFERENCE, csv)
    shutil.copyfile(SHIPPED_CACHE, cache)
    golden = {}
    for qs in queries.space().values():
        for q in qs:
            r = run.python("-m", "holonomy.cli", *queries.bind(q, csv, cache))
            if r["rc"] != 0:
                raise Failure(f"query {q} failed:\n{r['stderr']}")
            golden[queries.key(q)] = hashlib.sha256(r["stdout"].encode()).hexdigest()
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(golden)} golden outputs")
    return 0


def parse(argv):
    ap = argparse.ArgumentParser(prog="run.py", description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"],
                    help="'all' runs every workload in turn, each in its own process")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--x", type=float, default=None,
                    help="self-test only: cutoff of the build workloads")
    ap.add_argument("--queries", type=int, default=None,
                    help="self-test only: run the first N queries of a pass")
    ap.add_argument("--reference", default=None,
                    help="self-test only: reference table to check builds against")
    ap.add_argument("--record-golden", action="store_true",
                    help="record golden_report_cli.json from the current source")
    args = ap.parse_args(argv)
    if not args.record_golden and not args.workload:
        ap.error("--workload is required")
    return args


def run_all(args) -> int:
    """Every workload with the same seed, length and tracing; the worst exit code."""
    rc = 0
    for name in WORKLOADS:
        print(f"# workload {name}", flush=True)
        rc = max(rc, subprocess.run([sys.executable, __file__, "--workload", name,
                                     "--seed", str(args.seed), "--seconds", str(args.seconds),
                                     "--trace", str(args.trace)]).returncode)
    return rc


def main(argv=None) -> int:
    args = parse(argv)
    if args.workload == "all":
        return run_all(args)
    needed = [SRC / "holonomy" / "cli.py", REFERENCE, SHIPPED_CACHE]
    if not args.record_golden:
        needed.append(GOLDEN)
    missing = [p for p in needed if not p.is_file()]
    if missing:
        sys.stderr.write(f"not a holonomy source checkout; missing {missing[0]}\n")
        return 2
    work = WORK / str(os.getpid())
    work.mkdir(parents=True)
    try:
        run = Runner(work)
        if args.record_golden:
            return record_golden(run)
        return bench(run, args)
    except Failure as e:
        sys.stderr.write(f"benchmark failed: {e}\n")
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def bench(run: Runner, args) -> int:
    digest = tree_digest(DATA)
    r = run.python("-c", "import holonomy.cli, holonomy; print(holonomy.__file__)")
    if r["rc"] != 0 or not Path(r["stdout"].strip()).resolve().is_relative_to(SRC):
        raise Failure(f"holonomy does not import from {SRC}:\n{r['stdout']}{r['stderr']}")
    kind, x = WORKLOADS[args.workload]
    if kind == "cli":
        wl = ReportWorkload(run, args.seed, args.queries)
    else:
        ref = Path(args.reference or REFERENCE).read_text()
        wl = BuildWorkload(run, kind, args.x or x, ref)
    if args.trace:
        units, metrics = per_layer(run, wl, args.seconds)
    else:
        units = repeat(args.seconds, lambda: [wl.unit(traced=False)])
        metrics = end_to_end(units) if all(u["ok"] for u in units) else {}
    attempted = max(1, sum(u["ops"] for u in units))
    failed = sum(u["failed"] for u in units)
    if tree_digest(DATA) != digest:
        sys.stderr.write("data/ changed during the run\n")
        failed = min(failed + 1, attempted)
    print("# meta " + json.dumps(meta(args, wl.sizes, units), sort_keys=True))
    for k, v in metrics.items():
        print(f"# {k:<56} {v['value']:.6g} {v['unit']}")
    if args.trace and metrics:
        print_layers(metrics, statistics.median(u["wall"] for u in units[1::2]))
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
