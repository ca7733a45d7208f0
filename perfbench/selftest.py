"""Self-test of the benchmark harness on tiny inputs (x=3 builds, 4 queries).

    python3 perfbench/selftest.py

Checks that
  * every workload prints exactly the metrics BENCHMARK.json names, each with
    its unit: the end-to-end ones untraced, the per-layer ones traced;
  * the output gate bites: one perturbed reference row makes a build report
    failed > 0 and exit non-zero;
  * a directory holding only BENCHMARK.json and the benchmark makes the
    benchmark exit non-zero without printing a result.
Exits 0 when all hold, 1 otherwise, listing what failed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_work" / "selftest"
TINY = ["--x", "3", "--queries", "4", "--seconds", "1", "--seed", "7"]


def bench(run_py: Path, *args):
    """(exit code, parsed last line or None, stderr)."""
    r = subprocess.run([sys.executable, str(run_py), *args], capture_output=True, text=True,
                       cwd=run_py.parent.parent, timeout=170)
    lines = r.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return r.returncode, result, r.stderr


def check_metrics(spec: dict) -> list:
    problems = []
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            rc, res, err = bench(HERE / "run.py", "--workload", w["name"], "--trace", str(trace), *TINY)
            where = f"{w['name']} --trace {trace}"
            if rc != 0 or res is None or not res["correct"] or res["failed"]:
                problems.append(f"{where}: exit {rc}, result {res and {k: res[k] for k in ('correct', 'failed')}}\n{err}")
                continue
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                problems.append(f"{where}: missing {sorted(want.keys() - got.keys())}, "
                                f"extra {sorted(got.keys() - want.keys())}, "
                                f"wrong unit {sorted(k for k in want.keys() & got.keys() if want[k] != got[k])}")
            if set(res) != {"correct", "attempted", "failed", "metrics"} or res["attempted"] < 1:
                problems.append(f"{where}: malformed result keys {sorted(res)}")
    return problems


def check_gate(spec: dict) -> list:
    ref = (ROOT / "data" / "spectrum_m2_x10.csv").read_text().splitlines()
    f = ref[2].split(",")  # the shortest geodesic, inside every cutoff >= its length
    f[9] = str(int(f[9]) + 1)  # multiplicity_lo
    ref[2] = ",".join(f)
    bad = SCRATCH / "perturbed.csv"
    bad.write_text("\n".join(ref) + "\n")
    build = next(w["name"] for w in spec["workloads"] if w["name"].startswith("warm"))
    rc, res, _ = bench(HERE / "run.py", "--workload", build, "--trace", "0", "--reference", str(bad), *TINY)
    if rc == 0 or res is None or res["failed"] < 1 or res["correct"]:
        return [f"perturbed reference row passed the gate: exit {rc}, result {res and res['failed']}"]
    return []


def check_bare() -> list:
    bare = SCRATCH / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copyfile(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    rc, res, _ = bench(bare / "perfbench" / "run.py", "--workload", "report-cli", "--seed", "1",
                       "--seconds", "1", "--trace", "0")
    if rc == 0 or res is not None:
        return [f"bare directory: exit {rc}, result {res}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    SCRATCH.mkdir(parents=True, exist_ok=True)
    try:
        problems = check_metrics(spec) + check_gate(spec) + check_bare()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
        try:
            SCRATCH.parent.rmdir()
        except OSError:
            pass
    for p in problems:
        print("FAIL", p)
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
