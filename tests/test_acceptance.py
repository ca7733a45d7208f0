"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Asymptotic statements are checked as desk-scale trends at their stated
tolerances; exact and property checks run at full strictness. The heavy
criteria (5, 8, 9) share one build of the cutoff-10 table through a temporary
copy of the shipped warm cache (data/order_cache.jsonl), about 0.3 s on a
2-core x86-64 machine; a cold cache reproduces it in about 40 s.
"""

import math
import os
import random
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

from holonomy.cli import table_to_csv
from holonomy.extremal import MAJORANT, MINORANT, build_majorant, rect_approximant
from holonomy.fields import format_element, make_field, sign_data, totally_positive_units_are_squares
from holonomy.measure import (
    eval_basis_kernel,
    eval_char,
    m_star,
    mu_quadrature,
    mu_rect,
)
from holonomy.orders import (
    LatticeSpec,
    OrderCache,
    compute_arithmetic,
    correspondence_ratio,
    m1_from_data,
    relative_fundamental_unit,
    build_order,
)
from holonomy.fields import square_divisor_splits
from holonomy.reports import (
    TestFunctionSpec,
    equi_report_function,
    equi_report_rectangle,
    geometric_side,
    li,
    pgt_report,
)
from holonomy.spectrum import (
    canonical_trace_sign,
    classify_trace,
    enumerate_elliptic_traces,
    enumerate_traces,
    is_hyperbolic_elliptic_trace,
    length_spectrum,
    trace_length,
)
from holonomy.measure import TrigFunction

HERE = os.path.dirname(os.path.abspath(__file__))
CACHE_PATH = os.path.join(HERE, "..", "data", "order_cache.jsonl")
TABLE10_PATH = os.path.join(HERE, "..", "data", "spectrum_m2_x10.csv")
PI = math.pi

K2 = make_field(2)
SPEC2 = LatticeSpec.hilbert(K2)


def report(num, ok, detail, elapsed):
    line = f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s) {detail}"
    print(line, file=sys.stderr)
    assert ok, line


def cache_copy(directory):
    """An OrderCache on a copy of the shipped cache in `directory`, so a cache
    miss appends to the copy and never to data/."""
    if not os.path.exists(CACHE_PATH):
        return OrderCache(None)
    path = os.path.join(directory, "order_cache.jsonl")
    shutil.copyfile(CACHE_PATH, path)
    return OrderCache(path)


@pytest.fixture(scope="module")
def table10(tmp_path_factory):
    cache = cache_copy(tmp_path_factory.mktemp("cache"))
    return length_spectrum(K2, 10.0, SPEC2, cache)


def test_criterion_1_measure_module_exactness():
    t0 = time.time()
    ok = abs(mu_rect([(-PI, PI)]) - 1) < 1e-12
    ok &= abs(mu_rect([(-PI, PI), (-PI, PI)]) - 1) < 1e-12
    ok &= abs(mu_rect([(-PI / 2, PI / 2)]) - (0.5 - 1 / PI)) < 1e-12
    # orthonormality of the normalized kernel family: the one-dimensional
    # Gram is computed by quadrature; the measure and family are products,
    # so the n = 2 Gram is the tensor square (spot-checked by quadrature)
    idx = [m for m in range(-4, 5) if m != 0]
    gram = {}
    for m in idx:
        for mp_ in idx:
            v = mu_quadrature(lambda th: eval_basis_kernel(m, th)
                              * eval_basis_kernel(mp_, th).conjugate(), 1, 1e-10)
            gram[(m, mp_)] = v
            want = 0.5 if m == mp_ else 0.0
            ok &= abs(v - want) < 1e-8
    for (m, mp_) in (((1, 2), (1, 2)), ((3, -4), (3, -4)), ((1, 2), (2, 1)), ((4, 4), (4, -4))):
        v2 = mu_quadrature(lambda th: eval_basis_kernel(m, th)
                           * eval_basis_kernel(mp_, th).conjugate(), 2, 1e-9)
        tensor = gram[(m[0], mp_[0])] * gram[(m[1], mp_[1])]
        want = 0.25 if m == mp_ else 0.0
        ok &= abs(v2 - want) < 1e-8 and abs(v2 - tensor) < 1e-8
    # sign-symmetrized identity at 10^4 random nondegenerate angles
    rng = random.Random(2024)
    worst = 0.0
    for _ in range(10000):
        m = rng.randint(1, 4)
        th = rng.uniform(0.01, 3.13) * (1 if rng.random() < 0.5 else -1)
        rhs = -(eval_basis_kernel(m, th) + eval_basis_kernel(-m, th))
        worst = max(worst, abs(eval_char(m, th) - rhs))
        ok &= abs(eval_char(m, th)) <= m_star((m,)) + 1e-12
    ok &= worst < 1e-12
    report(1, ok, f"measure exactness, Gram, char identity (worst {worst:.2e})", time.time() - t0)


def test_criterion_2_extremal_polynomials():
    t0 = time.time()
    grid = np.linspace(-PI, PI, 10001)
    ok = True
    for (a, b), N in [((-PI / 2, PI / 2), 4), ((0.3, 2.0), 8), ((-2.9, -0.4), 16), ((-1.0, 2.5), 32)]:
        ind = ((grid >= a) & (grid <= b)).astype(float)
        up = build_majorant((a, b), N, MAJORANT)
        dn = build_majorant((a, b), N, MINORANT)
        ok &= np.min(up.eval_grid(grid) - ind) >= -1e-12
        ok &= np.min(ind - dn.eval_grid(grid)) >= -1e-12
        ok &= abs(up.integral() - ((b - a) + 2 * PI / (N + 1))) < 1e-12
        ok &= abs(dn.integral() - ((b - a) - 2 * PI / (N + 1))) < 1e-12
        ok &= all(abs(up.coeff(k)) <= 1 / (N + 1) + 1 / abs(k) + 1e-14
                  for k in range(-N, N + 1) if k)
        ok &= np.max(np.abs(up.eval_grid(grid))) <= 5.0
    costs = []
    for N in (4, 8, 16, 32):
        _, meta1 = rect_approximant([(-PI / 2, PI / 2)], N, MAJORANT)
        c1 = meta1["cost_partial"] + meta1["cost_tail"]
        _, meta2 = rect_approximant([(-PI / 2, PI / 2), (0.4, 1.8)], N, MAJORANT)
        c2 = meta2["cost_partial"] + meta2["cost_tail"]
        ok &= c1 <= 6 * N and c2 <= (6 * N) ** 2
        costs.append(round(c1, 2))
    report(2, ok, f"sandwich/integral/coefficient/sup bounds; costs {costs} within (6N)^n",
           time.time() - t0)


def test_criterion_3_enumeration_oracle_equivalence():
    t0 = time.time()
    got = {format_element(t) for t in enumerate_traces(K2, 3.0)}
    ok = got == {"1+w", "2+w", "3+w", "1+2*w"}
    # independent brute-force scan over |a|, |b| <= 200 up to length 6
    brute = set()
    w0 = K2.w().approx(0)
    w1 = K2.w().approx(1)
    rmax = 2 * math.cosh(3.0)
    for a in range(-200, 201):
        for b in range(-200, 201):
            i0 = a + b * w0
            i1 = a + b * w1
            if not (2 - 1e-9 < abs(i0) < rmax + 1e-6 and abs(i1) < 2 + 1e-9):
                continue
            t = K2.elt(a, b)
            if not is_hyperbolic_elliptic_trace(K2, t):
                continue
            tc = canonical_trace_sign(t)
            if trace_length(K2, tc) <= 6.0 + 1e-12:
                brute.add((tc.a, tc.b))
    ok &= {(t.a, t.b) for t in enumerate_traces(K2, 6.0)} == brute
    ell = {format_element(t) for t in enumerate_elliptic_traces(K2)}
    ok &= ell == {"0", "1", "w"}
    report(3, ok, f"x=3 set, brute-force match to x=6 ({len(brute)} traces), elliptic set",
           time.time() - t0)


def test_criterion_4_unit_power_structure():
    t0 = time.time()
    t2 = K2.elt(1, 2)
    rows = classify_trace(K2, t2, SPEC2)
    ok = len(rows) == 1 and rows[0].q == 2
    sd = rows[0].splits[0]
    ok &= format_element(sd.primitive_trace) == "1+w"
    # exact alpha = eps^2 identity in the shared order
    D = t2 * t2 - 4
    O = build_order(K2, D, square_divisor_splits(D)[0][0])
    eps, reg, _ = relative_fundamental_unit(O)
    alpha = O.from_sqrt_form(t2, O.f_elt) or O.from_sqrt_form(t2, -O.f_elt)
    sq = O.mul(eps, eps)
    neg = tuple(-c for c in sq)
    conj = O.rel_conj(alpha)
    ok &= alpha in (sq, neg) or conj in (sq, neg)
    report(4, ok, "t = 1+2w decomposes as q=2 over primitive 1+w with exact eps^2 identity",
           time.time() - t0)


def test_criterion_5_class_number_stability(table10):
    t0 = time.time()
    # shipped report: every multiplicity certified, i.e. every h_O stable
    # under the doubled enumeration bound and every unit index known
    ok = all(r.certified for r in table10.rows)
    # at least 10 distinct orders certified cold (no cache) at x <= 8
    seen = set()
    cold_count = 0
    for t in enumerate_traces(K2, 8.0):
        D = t * t - 4
        for d_id, _ in square_divisor_splits(D):
            O = build_order(K2, D, d_id)
            if not O.realizable:
                continue
            key = O.cache_key()
            if key in seen:
                continue
            seen.add(key)
            arith = compute_arithmetic(O, cache=None)
            ok &= arith.certified and arith.oracle_bounds[1] == 2 * arith.oracle_bounds[0]
            cold_count += 1
            if cold_count >= 10:
                break
        if cold_count >= 10:
            break
    ok &= cold_count >= 10
    report(5, ok, f"{cold_count} orders certified cold (2x-bound stable); "
                  f"all {len(table10.rows)} shipped rows certified", time.time() - t0)


def test_table10_csv_byte_identical(table10):
    """The warm-cache build reproduces the shipped cutoff-10 table exactly."""
    with open(TABLE10_PATH, "rb") as fh:
        assert table_to_csv(table10).encode() == fh.read()


def test_criterion_6_narrow_class_criterion():
    t0 = time.time()
    ok = True
    for m, want in ((2, True), (5, True), (13, True), (3, False)):
        K = make_field(m)
        sd = sign_data(K)
        ok &= sd.narrow_equals_class is want
        ok &= totally_positive_units_are_squares(K) is want
    report(6, ok, "h = h+ for m in {2,5,13}, not for m=3; cross-checked by "
                  "totally-positive-units-are-squares", time.time() - t0)


def test_criterion_7_correspondence_matrix():
    t0 = time.time()
    ok = True
    for l1 in (1, 2):
        for l2 in (1, 2):
            for ui in (1, 2, 4):
                for h in (1, 2, 3):
                    ok &= correspondence_ratio(h, ui, [l1, l2], 2) == 4
                    a = m1_from_data(h, 1, ui, 0, [l1, l2])
                    b = m1_from_data(h, 1, ui, 2, [l1, l2])
                    ok &= a.value == 4 * b.value
                    # whenever the companion count is a (certified) integer,
                    # the unramified-at-infinity count is divisible by 2^n
                    if b.value.denominator == 1:
                        ok &= a.value % 4 == 0
    report(7, ok, "correspondence ratio 4 on the full synthetic matrix; 2^n divisibility",
           time.time() - t0)


def test_criterion_8_pgt_trend(table10):
    t0 = time.time()
    rep = pgt_report(table10, [4.0, 6.0, 8.0, 10.0])
    ratios = [r["theta_ratio"] for r in rep.rows]
    ok = all(0.3 <= rr <= 3.0 for rr in ratios)
    ok &= abs(ratios[-1] - 1) <= abs(ratios[-2] - 1)  # non-increasing |ratio-1|
    cr10 = rep.rows[-1]["count_ratio"]
    ok &= 0.3 <= cr10 <= 3.0
    ok &= rep.metadata["uncertified_rows"] == "none"
    report(8, ok, f"theta ratios {['%.3f' % rr for rr in ratios]}, "
                  f"pi_p ratio at x=10: {cr10:.4f}", time.time() - t0)


def test_criterion_9_equidistribution_trend(table10):
    t0 = time.time()
    grid = [6.0, 8.0, 10.0]
    devs = {}
    for k in (2, 3):
        rep = equi_report_function(table10, TrigFunction.from_char(k), grid)
        devs[k] = [abs(r["weyl_sum"]) for r in rep.rows]
    # decrease from x=6 to x=10 (the Weyl sums oscillate through zero near
    # convergence, so the trend is read at the endpoints)
    ok = devs[2][-1] < devs[2][0] and devs[3][-1] < devs[3][0]
    rep = equi_report_rectangle(table10, (-PI / 2, PI / 2), 16, [10.0])
    row = rep.rows[0]
    ok &= row["minorant_estimate"] - 1e-12 <= row["mu_A"] <= row["majorant_estimate"] + 1e-12
    ok &= row["bracket_width"] <= 0.25
    report(9, ok, f"|F2| {devs[2][0]:.4f}->{devs[2][-1]:.4f}, |F3| {devs[3][0]:.4f}->"
                  f"{devs[3][-1]:.4f}; bracket width {row['bracket_width']:.3f} <= 0.25 "
                  f"around mu = {row['mu_A']:.5f}", time.time() - t0)


def test_criterion_10_geometric_side_consistency(tmp_path):
    t0 = time.time()
    table = length_spectrum(K2, 4.0, SPEC2, cache_copy(tmp_path))
    tf = TestFunctionSpec("bump", (3.5,))
    out = geometric_side(table, (1,), tf, vol=1.0)
    direct = -sum(float(r.multiplicity.lo) * r.primitive_length * tf.hhat(r.length)
                  / (2 * math.sinh(r.length / 2)) for r in table.rows)
    ok = abs(out["hyperbolic_elliptic_term"] - direct) < 1e-10
    a = geometric_side(table, (2,), tf, vol=1.0)
    b = geometric_side(table, (2,), tf, vol=2.0)
    ok &= abs(b["identity_term"] - 2 * a["identity_term"]) < 1e-12
    ok &= b["hyperbolic_elliptic_term"] == a["hyperbolic_elliptic_term"]
    ok &= b["elliptic_term"] == a["elliptic_term"]
    report(10, ok, f"weight-1 path agrees with direct weighted sum to "
                   f"{abs(out['hyperbolic_elliptic_term'] - direct):.1e}; vol-linearity exact",
           time.time() - t0)


def test_criterion_11_determinism(tmp_path):
    t0 = time.time()
    env = dict(os.environ, PYTHONPATH=os.path.join(HERE, "..", "src"))
    outs = []
    for i in (1, 2):
        p = tmp_path / f"run{i}.csv"
        subprocess.run([sys.executable, "-m", "holonomy.cli", "enumerate", "--m", "2",
                        "--x", "3", "--out", str(p)], env=env, check=True,
                       capture_output=True)
        outs.append(p.read_bytes())
    ok = outs[0] == outs[1]
    report(11, ok, "repeated CLI runs byte-identical", time.time() - t0)
