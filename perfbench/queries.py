"""The report-cli query mix: a finite query space and a seeded draw from it.

Every query the draw can produce is in ``space()``, so the golden outputs in
``golden_report_cli.json`` cover every seed. ``{csv}`` and ``{cache}`` stand
for the run's temporary copies of the shipped table and order cache.

Kind counts and the split of the costlier parameters (``--N`` of a rectangle
report, ``--weight`` of a trace-formula query) are fixed per pass, so the seed
changes which queries run and in what order, but hardly the cost of a pass.
"""

from __future__ import annotations

import json
import random

PGT_GRIDS = ["4,6,8,10", "3,5,7,9,10", "5,7.5,10", "2,4,6,8", "6,8,9,10", "8,10",
             "4,5,6,7,8,9,10", "3,6,9"]
FM_GRIDS = [None, "6,8,10", "4,7,10"]
RECT_H = ["0.5", "1", "1.5707963", "2", "2.5", "3"]
BUMP_S = ["2", "3", "5", "8"]

# A pass: 14 counting and 18 character queries, the two cheap kinds, then 10
# rectangle and 18 trace-formula queries with a fixed split of --N and
# --weight. The cheap kinds make more than half of the 60, so the median
# latency falls inside them; the tail rank (50 of 60) falls inside the
# trace-formula queries, the costliest kind.
N_PGT, N_FM = 14, 18
RECT_N = ["8"] * 4 + ["16"] * 3 + ["32"] * 3
GEO_WEIGHTS = ["2"] * 6 + ["4"] * 6 + ["6"] * 6


def pgt(grid, all_classes):
    return ["stats", "pgt", "--in", "{csv}", "--grid", grid] + (["--all-classes"] if all_classes else [])


def equi_fm(k, grid):
    return ["stats", "equi", "--in", "{csv}", "--fm", str(k)] + (["--grid", grid] if grid else [])


def equi_rect(h, n):
    # the leading space keeps argparse from reading "-h:h" as an option
    return ["stats", "equi", "--in", "{csv}", "--rect", f" -{h}:{h}", "--N", n]


def geometric(weight, s):
    return ["--cache", "{cache}", "trace", "geometric", "--in", "{csv}",
            "--weight", weight, "--vol", "1.0", "--testfn", f"bump:{s}"]


def space() -> dict:
    """Every query the draw can produce, by kind."""
    return {
        "pgt": [pgt(g, a) for g in PGT_GRIDS for a in (False, True)],
        "equi-fm": [equi_fm(k, g) for k in range(1, 9) for g in FM_GRIDS],
        "equi-rect": [equi_rect(h, n) for h in RECT_H for n in ("8", "16", "32")],
        "geometric": [geometric(w, s) for w in ("2", "4", "6") for s in BUMP_S],
    }


def draw(seed: int, n: int | None = None) -> list:
    """(kind, argv) pairs of one pass, shuffled; the first n if n is given."""
    rng = random.Random(seed)
    sp = space()
    out = [("pgt", q) for q in rng.sample(sp["pgt"], N_PGT)]
    out += [("equi-fm", q) for q in rng.sample(sp["equi-fm"], N_FM)]
    out += [("equi-rect", equi_rect(rng.choice(RECT_H), n_)) for n_ in RECT_N]
    out += [("geometric", geometric(w, rng.choice(BUMP_S))) for w in GEO_WEIGHTS]
    rng.shuffle(out)
    return out[:n] if n else out


def key(argv) -> str:
    return json.dumps(argv)


def bind(argv, csv: str, cache: str) -> list:
    return [a.replace("{csv}", csv).replace("{cache}", cache) for a in argv]
