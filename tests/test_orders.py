import json
import math
import re
import shutil
from fractions import Fraction
from functools import cache
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from holonomy.cli import main as cli_main
from holonomy.fields import (
    factor_element,
    ideal_of_element,
    k_module_rows,
    kdiv_exact,
    kmul,
    make_field,
    parse_element,
    prime_elements_above,
    square_divisor_splits,
)
import holonomy.orders
from holonomy.orders import (
    BOTH_ZERO,
    HYPERBOLIC_ELLIPTIC,
    OTHER_SIGNATURE,
    TOTALLY_ELLIPTIC,
    UNKNOWN,
    _MINK,
    ClassNumberResult,
    Inconclusive,
    LatticeSpec,
    OrderCache,
    _class_set,
    _inverse_lattice,
    _is_residue_square,
    _k_content_and_primitive,
    _parity_basis,
    _scale_rows,
    _square_mod_pi_power,
    _trace_candidates,
    _unit_square_class,
    build_order,
    canonical_square_class,
    class_number,
    compute_arithmetic,
    correspondence_ratio,
    embedding_count,
    enumerate_mod_units,
    local_embedding_factor,
    local_splitting,
    m1_from_data,
    maximal_order_disc,
    norm_one_group_size,
    primitive_proper_ideals,
    relative_fundamental_unit,
    sqrt_in_K,
    unit_norm_index,
)
from holonomy.intlinalg import hnf, hnf_key, in_lattice, pivot_product
from holonomy.spectrum import classify_elliptic_trace, enumerate_elliptic_traces, enumerate_traces

K2 = make_field(2)
K5 = make_field(5)
SHIPPED_CACHE = Path(__file__).parent.parent / "data" / "order_cache.jsonl"
SHIPPED_TABLE = Path(__file__).parent.parent / "data" / "spectrum_m2_x10.csv"


def order_for_trace(K, t, split_index=0):
    D = t * t - 4
    d_id = square_divisor_splits(D)[split_index][0]
    return build_order(K, D, d_id)


def shipped_records():
    with open(SHIPPED_CACHE) as fh:
        return {OrderCache._key(rec): rec for rec in map(json.loads, fh)}


def box_trace_candidates(K, T):
    """The O(T^2) box scan that _trace_candidates replaced, kept as its oracle."""
    out = []
    w0 = K.w().approx(0)
    w1 = K.w().approx(1)
    amax = int((T + 2) / 2 + 2)
    bmax = int((T + 2) / abs(w0 - w1) + 2)
    for b in range(-bmax, bmax + 1):
        for a in range(-amax, amax + 1):
            x = K.elt(a, b)
            if x.sign(0) < 0:
                x = -x
            if (x - 2).sign(0) <= 0:
                continue
            if x.approx(0) > T + 1e-9:
                continue
            if not ((x - 2).sign(1) < 0 and (x + 2).sign(1) > 0):
                continue
            out.append(x)
    uniq = {(x.a, x.b): x for x in out}
    return sorted(uniq.values(), key=lambda z: (z.approx(0), z.a, z.b))


def gso_lll_rows_metric(rows, vecs):
    """The LLL that recomputed the whole Gram-Schmidt basis after every size
    reduction and swap, kept as the oracle of the incremental one."""
    B = [list(map(int, r)) for r in rows]
    V = [np.array(v, dtype=float) for v in vecs]
    n = len(B)
    delta = 0.99

    def gso():
        star = []
        mu = [[0.0] * n for _ in range(n)]
        for i in range(n):
            v = V[i].copy()
            for j in range(i):
                denom = float(star[j] @ star[j])
                mu[i][j] = float(V[i] @ star[j]) / denom if denom > 0 else 0.0
                v -= mu[i][j] * star[j]
            star.append(v)
        return star, mu

    k = 1
    guard = 0
    while k < n and guard < 2000:
        guard += 1
        star, mu = gso()
        changed = False
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q:
                B[k] = [a - q * b for a, b in zip(B[k], B[j])]
                V[k] = V[k] - q * V[j]
                for jj in range(j + 1):
                    mu[k][jj] -= q * mu[j][jj]
                changed = True
        if changed:
            star, mu = gso()
        if float(star[k] @ star[k]) >= (delta - mu[k][k - 1] ** 2) * float(star[k - 1] @ star[k - 1]):
            k += 1
        else:
            B[k], B[k - 1] = B[k - 1], B[k]
            V[k], V[k - 1] = V[k - 1], V[k]
            k = max(k - 1, 1)
    return B, V


def two_pass_class_number(order, units, bound_scale=1.0, budget=6_000_000):
    """The class-number oracle that searched bound B and bound 2B separately,
    with inverse lattices from the integer-kernel solver; kept as the oracle
    of the shared 2B enumeration and of the inverse by conjugation."""
    B = max(2, int(_MINK[order.signature] * math.sqrt(order.disc_z()) * bound_scale) + 1)
    try:
        h1 = two_pass_count_at(order, units, B, budget)
    except Inconclusive as e:
        return ClassNumberResult(0, False, B, None, str(e))
    try:
        h2 = two_pass_count_at(order, units, 2 * B, budget)
    except Inconclusive as e:
        return ClassNumberResult(h1, False, B, 2 * B, f"2x bound inconclusive: {e}")
    if h1 != h2:
        return ClassNumberResult(h2, False, B, 2 * B, f"unstable: h({B})={h1} h({2*B})={h2}")
    return ClassNumberResult(h1, True, B, 2 * B)


def two_pass_count_at(order, units, B, budget=6_000_000):
    cands = primitive_proper_ideals(order, B)
    keys = set(cands.keys())
    classified = {}
    n_classes = 0
    for key in sorted(keys, key=lambda k: (pivot_product(k), k)):
        if key in classified:
            continue
        n_classes += 1
        rset = two_pass_class_set(order, units, key, B, keys, budget)
        if key not in rset:
            raise Inconclusive("class set does not contain its own seed")
        for k2 in rset:
            if k2 in classified and classified[k2] != n_classes:
                raise Inconclusive("overlapping class sets: covering failure")
            classified[k2] = n_classes
    if set(classified.keys()) != keys:
        raise Inconclusive("class sets do not cover all candidates")
    return n_classes


def two_pass_class_set(order, units, key, B, restrict_to, budget=6_000_000):
    rows = [list(r) for r in key]
    inv_rows, denom = nested_inverse_lattice(order, rows)
    found = set()
    for y in enumerate_mod_units(order, inv_rows, denom ** 3, B * denom ** 3, units,
                                    budget=budget):
        _, prim = _k_content_and_primitive(order, hnf(_scale_rows(order, rows, y)))
        k2 = tuple(tuple(r) for r in prim)
        if k2 in restrict_to:
            found.add(k2)
    return found


def hnf_content_and_primitive(order, rows):
    """The K-content by an HNF of the content ideal for every y, which the
    coprime-norm test now skips; kept as its oracle."""
    K = order.field
    H = hnf(k_module_rows(K, [g for r in rows for g in ((r[0], r[1]), (r[2], r[3]))]))
    if H == [[1, 0], [0, 1]]:
        return K.one(), hnf(rows)
    c = K.principal_generator(H)
    prim = []
    for r in rows:
        u = kdiv_exact(K, (r[0], r[1]), (c.a, c.b))
        v = kdiv_exact(K, (r[2], r[3]), (c.a, c.b))
        prim.append([u[0], u[1], v[0], v[1]])
    return c, hnf(prim)


def nest(x):
    """A flat order element (u_a, u_b, v_a, v_b) as the pair ((u_a, u_b), (v_a, v_b))."""
    return ((x[0], x[1]), (x[2], x[3]))


def nested_mul(order, x, y):
    """Order multiplication on ((u_a, u_b), (v_a, v_b)) pairs, the element
    form before flat 4-tuples; kept, with the helpers below, as the oracle of
    the flat form."""
    K = order.field
    (u1, v1), (u2, v2) = x, y
    add = lambda a, b: (a[0] + b[0], a[1] + b[1])  # noqa: E731
    vv = kmul(K, v1, v2)
    u = add(kmul(K, u1, u2), kmul(K, vv, order.q_coef))
    v = add(add(kmul(K, u1, v2), kmul(K, u2, v1)), kmul(K, vv, order.p_coef))
    return (u, v)


def nested_mult_matrix(order, g):
    """Integer matrix of y -> g*y on the Z-basis (1, w, xi, w xi)."""
    basis = [((1, 0), (0, 0)), ((0, 1), (0, 0)), ((0, 0), (1, 0)), ((0, 0), (0, 1))]
    cols = []
    for b in basis:
        (ua, ub), (va, vb) = nested_mul(order, g, b)
        cols.append([ua, ub, va, vb])
    return [[cols[j][i] for j in range(4)] for i in range(4)]


def integer_kernel(mat):
    """Basis of {x in Z^n : mat @ x = 0} for an integer matrix (m x n): HNF
    of [mat^T | I_n], keeping the transformation rows whose image is zero."""
    m = len(mat)
    n = len(mat[0]) if m else 0
    aug = []
    for i in range(n):
        row = [mat[r][i] for r in range(m)] + [0] * n
        row[m + i] = 1
        aug.append(row)
    return [r[m:] for r in hnf(aug) if all(x == 0 for x in r[:m])]


def congruence_lattice(mat, mod):
    """HNF basis of {x in Z^n : mat @ x = 0 (mod mod)}: the kernel of
    [mat | mod*I_m] projected to the first n coordinates."""
    m = len(mat)
    n = len(mat[0]) if m else 0
    big = [list(mat[r]) + [0] * m for r in range(m)]
    for r in range(m):
        big[r][n + r] = mod
    return hnf([k[:n] for k in integer_kernel(big)])


def nested_inverse_lattice(order, rows):
    """The lattice of x with x * J in n * O, n = [O:J], solved as a
    congruence on the stacked multiplication matrices of J's rows: the
    integer-kernel route that the inverse by conjugation replaced."""
    n = pivot_product(rows)
    stacked = []
    for r in rows:
        stacked.extend(nested_mult_matrix(order, ((r[0], r[1]), (r[2], r[3]))))
    return congruence_lattice(stacked, n), n


def nested_scale_rows(order, rows, x):
    out = []
    for r in rows:
        (ua, ub), (va, vb) = nested_mul(order, x, ((r[0], r[1]), (r[2], r[3])))
        out.append([ua, ub, va, vb])
    return out


def nested_coords_to_json(x):
    (ua, ub), (va, vb) = x
    return [ua, ub, va, vb]


def nested_coords_from_json(v):
    return ((v[0], v[1]), (v[2], v[3]))


def hand_mapped_record(order, arith):
    """The cache record as compute_arithmetic wrote it field by field."""
    return {
        "field_m": order.field.m,
        "D": order.cache_key()[1],
        "d_hnf": [list(r) for r in order.d_ideal.rows],
        "h_O": arith.h_O,
        "reg": arith.reg,
        "eps_rel": nested_coords_to_json(nest(arith.eps_rel)) if arith.eps_rel else None,
        "torsion": arith.torsion,
        "unit_index": arith.unit_index,
        "certified": arith.certified,
        "oracle_bounds": list(arith.oracle_bounds),
        "reason": arith.reason,
    }


def split_list_maximal_disc(K, D):
    """Least realized discriminant over the realizable splits of D itself.
    This raised on class representatives such as D = -1; for D = t^2 - 4 it
    is the maximal order's discriminant, and it is kept as that oracle."""
    best = None
    for dd, _ in square_divisor_splits(D):
        o = build_order(K, D, dd)
        if o.realizable and (best is None or o.realized_disc.norm < best.norm):
            best = o.realized_disc
    return best


def loop_canonicalize_dred(K, Dred, f):
    """The FieldElement loop that BaseField.unit_reduce replaced in
    _canonicalize_dred, kept as its oracle: (Dred, f) scaled by even unit
    powers until |iota_0(Dred)| is in [sqrt|N|, sqrt|N| * iota_0(eps)^2)."""
    E = K.eps
    E2 = E * E
    n_red = abs(Dred.norm())
    x = Dred
    while True:
        v = x * x
        if (v - n_red).sign(0) < 0:
            x = x * E2
            f = f / E
        elif (v - E2 * E2 * n_red).sign(0) >= 0:
            x = x / E2
            f = f * E
        else:
            return x, f


def loop_unit_square_class(K, u):
    """The FieldElement loop that BaseField.unit_reduce replaced in
    _unit_square_class, kept as its oracle."""
    k = 0
    x = u
    E = K.eps
    while True:
        v = x * x
        if (v - 1).sign(0) < 0:
            x = x * E
            k += 1
        elif (v - E * E).sign(0) >= 0:
            x = x / E
            k += 1
        else:
            break
    sign = 1 if x.sign(0) > 0 else -1
    assert x == K.elt(sign, 0)
    return (sign, k % 2)


def _is_prime_int(n):
    return n > 1 and all(n % f for f in range(2, math.isqrt(n) + 1))


def branch_is_residue_square(field, p_gen, u):
    """The two-branch residue-square test that Euler's criterion replaced,
    kept as its oracle: a scan for t = w mod p at degree-1 primes, F_ell^2
    arithmetic at inert ones."""
    np_ = abs(p_gen.norm())
    ip = ideal_of_element(p_gen)
    if _is_prime_int(np_):
        ell = np_
        t = next(cand for cand in range(ell) if ip.contains(field.w() - cand))
        val = (u.a + u.b * t) % ell
        if val == 0:
            raise ValueError("unit part reduced to zero mod p")
        return pow(val, (ell - 1) // 2, ell) == 1
    ell = math.isqrt(np_)
    assert ell * ell == np_
    c0, c1 = field._w2[0] % ell, field._w2[1] % ell

    def mul(x, y):
        a, b = x
        c, d = y
        bd = b * d % ell
        return ((a * c + bd * c0) % ell, (a * d + b * c + bd * c1) % ell)

    e = (ell * ell - 1) // 2
    r, base = (1, 0), (u.a % ell, u.b % ell)
    while e:
        if e & 1:
            r = mul(r, base)
        base = mul(base, base)
        e >>= 1
    return r == (1, 0)


def per_order_basis(K, Dr, d_ideal):
    """The per-order 2-adic basis that the parity table (_parity_basis)
    replaced in RelativeQuadraticOrder._build_basis, kept as its oracle:
    the parity classes, the HNFs, the coefficient-ideal generator and the
    O = O_K[xi] check, recomputed for every order."""
    sols = []
    for a0, a1, b0, b1 in product((0, 1), repeat=4):
        a = K.elt(a0, a1)
        b = K.elt(b0, b1)
        val = a * a - b * b * Dr
        if (val.a % 4 == 0) and (val.b % 4 == 0):
            sols.append((a, b))
    rows = []
    for base in (K.one(), K.w()):
        rows.append([2 * base.a, 2 * base.b, 0, 0])
        rows.append([0, 0, 2 * base.a, 2 * base.b])
    for a, b in sols:
        rows.append([a.a, a.b, b.a, b.b])
    rows2 = hnf(rows)
    bideal_rows = hnf([[2, 0], [0, 2]] + [[b.a, b.b] for _, b in sols])
    bg = K.principal_generator(bideal_rows)
    assert bg is not None
    a0 = None
    for a, b in sols:
        if in_lattice([(bg - b).a, (bg - b).b], [[2, 0], [0, 2]]):
            a0 = a
            break
    assert a0 is not None
    q = (bg * bg * Dr - a0 * a0) / 4  # exact: ArithmeticError unless 4 divides
    realized_disc = ideal_of_element(bg * bg * Dr)
    xi_rows = [[2, 0, 0, 0], [0, 2, 0, 0], [a0.a, a0.b, bg.a, bg.b]]
    wxi = (K.w() * a0, K.w() * bg)
    xi_rows.append([wxi[0].a, wxi[0].b, wxi[1].a, wxi[1].b])
    assert hnf_key(xi_rows) == hnf_key(rows2)
    return {
        "rows2": [list(r) for r in rows2], "xi_a": a0, "xi_b": bg,
        "p_coef": (a0.a, a0.b), "q_coef": (q.a, q.b),
        "realized_disc": realized_disc.rows, "realizable": realized_disc.rows == d_ideal.rows,
    }


def order_basis(O):
    """The fields of an order that per_order_basis computes."""
    return {
        "rows2": [list(r) for r in O._rows2], "xi_a": O.xi_a, "xi_b": O.xi_b,
        "p_coef": O.p_coef, "q_coef": O.q_coef,
        "realized_disc": O.realized_disc.rows, "realizable": O.realizable,
    }


def sqrt_fraction(x: Fraction):
    """The square root of a nonnegative rational square, else None."""
    if x < 0:
        return None
    n, d = x.numerator, x.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def fraction_sqrt_in_K(x):
    """The square root of x in K on rational square roots, as sqrt_in_K
    computed it before it ran on integers, kept as its oracle: the root
    u + v*sqrt(m) as Fractions (u, v), with u > 0 or u = 0 <= v, or None."""
    m = x.field.m
    p, q = (Fraction(c) for c in x.sqrt_coords())
    nrm = sqrt_fraction(p * p - q * q * m)
    if nrm is None:
        return None
    for s in (nrm, -nrm):
        u = sqrt_fraction((p + s) / 2)
        if u is None:
            continue
        if u == 0:
            v = sqrt_fraction(p / m) if q == 0 else None
            if v is None:
                continue
        else:
            v = q / (2 * u)
        if (u * u + m * v * v, 2 * u * v) == (p, q):
            return (u, v)
    return None


def unguarded_canonical_square_class(D):
    """canonical_square_class by trial division, kept as its oracle: the
    square kernel g from the factorisation times the first unit class in
    {1, -1, eps, -eps} whose quotient of D has a rational square root."""
    K = D.field
    _, fac = factor_element(D)
    g = K.one()
    for pi, e in fac:
        if e % 2:
            g = g * pi
    g = K.canonical_associate(g) if (g.a, g.b) != (1, 0) else K.one()
    for u in (K.one(), -K.one(), K.eps, -K.eps):
        cand = u * g
        if fraction_sqrt_in_K(D / cand) is not None:
            return cand
    raise AssertionError("no unit class matched the square kernel")


def unguarded_is_square(D):
    """The constructor's square check before its sign guard, on the oracle root."""
    return fraction_sqrt_in_K(D) is not None


def record_cold_x5(d, patches):
    """Run a cold x=5 build into directory d with the given module attributes
    of holonomy.orders patched."""
    with pytest.MonkeyPatch.context() as mp:
        for name, value in patches.items():
            mp.setattr(holonomy.orders, name, value)
        assert cli_main(["--cache", str(d / "cache.jsonl"), "enumerate", "--m", "2", "--x", "5",
                         "--out", str(d / "x5.csv")]) == 0


def recording_scans(cells):
    """Patches of holonomy.orders that append to cells, for every _cell_scan
    call, its arguments with the box replaced by the _covering_box arguments
    that made it, and its sorted result."""
    covering_box, scan = holonomy.orders._covering_box, holonomy.orders._cell_scan
    made = {}

    def recording_box(*args):
        box = covering_box(*args)
        made[id(box)] = (box, args)  # the box stays alive, so its id stays unique
        return box

    def recording_scan(order, box, *rest):
        out = scan(order, box, *rest)
        cells.append(((order, made[id(box)][1], *rest), sorted(out)))
        return out

    return {"_covering_box": recording_box, "_cell_scan": recording_scan}


@pytest.fixture(scope="module")
def cold_x5(tmp_path_factory):
    """A cold x=5 build on single unit cells (_BLOCK_POINTS = 0, the tiling
    that the blocks replaced), recording every _cell_scan call (see
    recording_scans), every class_number call with its arguments and result,
    the arguments of every _k_content_and_primitive call, and every
    _generator_keys and unit_norm_index call with its arguments and result."""
    cells, orders, contents, searches, norm_indices = [], [], [], [], []
    count = holonomy.orders.class_number
    content = holonomy.orders._k_content_and_primitive
    keys, index = holonomy.orders._generator_keys, holonomy.orders.unit_norm_index

    def recording_count(*args):
        res = count(*args)
        orders.append((args, res))
        return res

    def recording_content(order, rows):
        contents.append((order, rows))
        return content(order, rows)

    def recording_keys(*args):
        out = keys(*args)
        searches.append((args, out))
        return out

    def recording_index(*args):
        out = index(*args)
        norm_indices.append((args, out))
        return out

    record_cold_x5(tmp_path_factory.mktemp("cold_x5"), {
        "_BLOCK_POINTS": 0, **recording_scans(cells), "class_number": recording_count,
        "_k_content_and_primitive": recording_content, "_generator_keys": recording_keys,
        "unit_norm_index": recording_index})
    return cells, orders, contents, searches, norm_indices


@pytest.fixture(scope="module")
def cold_x5_blocks(tmp_path_factory):
    """Every _cell_scan call of a cold x=5 build on the default blocks, as
    recording_scans records it."""
    cells = []
    record_cold_x5(tmp_path_factory.mktemp("cold_x5_blocks"), recording_scans(cells))
    return cells


def largest_box(run):
    """Largest _cell_scan box (in points) over run(), on single unit cells."""
    scan = holonomy.orders._cell_scan
    sizes = []

    def measuring_scan(*args):
        try:
            scan(*args[:-1], 0)
        except Inconclusive as e:
            sizes.append(int(re.search(r"\((\d+) points\)", str(e)).group(1)))
        return scan(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(holonomy.orders, "_BLOCK_POINTS", 0)
        mp.setattr(holonomy.orders, "_cell_scan", measuring_scan)
        run()
    return max(sizes)


def scans_agree_with_gso_lll(cells, monkeypatch):
    """Replay recorded _cell_scan calls, each on a box recomputed with the GSO
    LLL; each must return the recorded set. Returns the share of calls whose
    reduced bases agree."""
    incremental = holonomy.orders._lll_rows_metric
    agree = []

    def gso_lll(rows, vecs):
        out = gso_lll_rows_metric(rows, vecs)
        agree.append(incremental(rows, vecs)[0] == out[0])
        return out

    monkeypatch.setattr(holonomy.orders, "_lll_rows_metric", gso_lll)
    for (order, box_args, *rest), got in cells:
        box = holonomy.orders._covering_box(*box_args)
        assert sorted(holonomy.orders._cell_scan(order, box, *rest)) == got
    return sum(agree) / len(agree)


class TestClassNumberOracle:
    def test_incremental_lll_scans_the_same_cells(self, cold_x5, monkeypatch):
        cells, *_ = cold_x5
        assert len(cells) > 500
        # a coefficient mu near 1/2 may round either way, so a few bases differ
        assert scans_agree_with_gso_lll(cells, monkeypatch) >= 0.97

    def test_incremental_lll_scans_the_same_blocks(self, cold_x5_blocks, monkeypatch):
        # one of +-x is chosen on xi-coordinates, so the set is basis-free
        assert len(cold_x5_blocks) > 50
        scans_agree_with_gso_lll(cold_x5_blocks, monkeypatch)

    def test_blocks_find_what_single_cells_find(self, cold_x5):
        _, _, _, searches, norm_indices = cold_x5
        assert len(searches) > 20 and len(norm_indices) == 20
        for args, got in searches:
            assert holonomy.orders._generator_keys(*args) == got
        for args, got in norm_indices:
            assert unit_norm_index(*args) == got

    def test_shared_enumeration_matches_two_passes(self, cold_x5):
        _, orders, *_ = cold_x5
        assert len(orders) == 20
        edge = 0
        for (order, units, scale, budget), res in orders:
            assert res.certified
            assert res == two_pass_class_number(order, units, scale, budget)
            tiny = class_number(order, units, scale, 1)
            assert not tiny.certified and "box too large" in tiny.reason
            assert tiny == two_pass_class_number(order, units, scale, 1)
            # a budget that fits every bound-B box but not every 2B box
            b1 = largest_box(lambda: two_pass_count_at(order, units, res.bound))
            b2 = largest_box(lambda: two_pass_count_at(order, units, res.bound2))
            if b1 < b2:
                edge += 1
                got = class_number(order, units, scale, b1)
                assert got.reason.startswith("2x bound inconclusive: enumeration box too large")
                assert got == two_pass_class_number(order, units, scale, b1)
        assert edge >= 5

    def test_doubled_padding_gives_the_same_class_sets(self, cold_x5, monkeypatch):
        _, orders, *_ = cold_x5

        def class_sets(order, units, B2):
            cands = primitive_proper_ideals(order, B2)
            return {key: _class_set(order, units, key, a, B2, set(cands), B2, {})
                    for key, (a, *_) in cands.items()}

        sample = sorted(orders, key=lambda o: o[1].bound)[:6]
        want = [class_sets(order, units, res.bound2) for (order, units, *_), res in sample]
        monkeypatch.setattr(holonomy.orders, "_PAD", 2 * holonomy.orders._PAD)
        got = [class_sets(order, units, res.bound2) for (order, units, *_), res in sample]
        assert got == want

    def test_inverse_lattice_and_scaling_match_nested_oracle(self, cold_x5):
        # on every primitive proper ideal the build lists, not only the seeds
        _, orders, *_ = cold_x5
        n_ideals = conjugate_side = 0
        for (order, *_), res in orders:
            for key, (a, *_) in primitive_proper_ideals(order, res.bound2).items():
                rows = [list(r) for r in key]
                inv_rows, denom = _inverse_lattice(order, rows, a)
                assert (inv_rows, denom) == nested_inverse_lattice(order, rows)
                for y in inv_rows:
                    assert _scale_rows(order, rows, y) == nested_scale_rows(order, rows, nest(y))
                n_ideals += 1
                conjugate_side += a != a.conj()
        assert n_ideals > 100 and conjugate_side > 50

    def test_content_test_matches_hnf_on_every_y(self, cold_x5):
        _, _, contents, *_ = cold_x5
        assert len(contents) > 700
        nontrivial = 0
        for order, rows in contents:
            got = _k_content_and_primitive(order, rows)
            assert got == hnf_content_and_primitive(order, rows)
            nontrivial += got[0] != 1
        assert nontrivial > 0


class TestMaximalOrderDisc:
    def test_every_stored_class_representative(self):
        reps = sorted({key[1] for key in shipped_records()})
        assert len(reps) == 189
        for text in reps:
            D0 = parse_element(K2, text)
            holonomy.orders._MAXDISC_CACHE.clear()
            d = maximal_order_disc(K2, D0)
            # d_L divides 4*D0 with a square quotient
            q, r = divmod(abs((4 * D0).norm()), d.norm)
            assert r == 0 and math.isqrt(q) ** 2 == q
            holonomy.orders._MAXDISC_CACHE.clear()
            assert maximal_order_disc(K2, D0 * K2.elt(3, 1) ** 2).rows == d.rows
        holonomy.orders._MAXDISC_CACHE.clear()

    def test_matches_the_split_list_of_t2_minus_4(self):
        traces = enumerate_traces(K2, 10) + enumerate_elliptic_traces(K2)
        assert len(traces) == 210
        for t in traces:
            D = t * t - 4
            holonomy.orders._MAXDISC_CACHE.clear()
            assert maximal_order_disc(K2, D).rows == split_list_maximal_disc(K2, D).rows
        holonomy.orders._MAXDISC_CACHE.clear()


class TestSqrtInK:
    def test_rational_square(self):
        assert sqrt_in_K(K2.elt(9)) == K2.elt(3) or sqrt_in_K(K2.elt(9)) == K2.elt(-3)

    def test_field_square(self):
        x = K2.elt(3, -5)
        s = sqrt_in_K(x * x)
        assert s is not None and s * s == x * x

    def test_non_square(self):
        assert sqrt_in_K(K2.elt(-1, 2)) is None
        assert sqrt_in_K(K2.elt(3)) is None
        assert sqrt_in_K(K2.elt(0, 1) * 3) is None

    def test_m_times_square(self):
        # 2 = w^2 and 8 = (2w)^2 are squares even though rationally nonsquare
        s = sqrt_in_K(K2.elt(2))
        assert s is not None and s * s == K2.elt(2)
        s = sqrt_in_K(K2.elt(8))
        assert s is not None and s * s == K2.elt(8)

    @settings(max_examples=400, deadline=None)
    @given(m=st.sampled_from([2, 3, 5, 13, 17]), a=st.integers(-300, 300), b=st.integers(-150, 150),
           square=st.booleans(), u=st.integers(0, 3))
    def test_integer_roots_match_rational_roots(self, m, a, b, square, u):
        """sqrt_in_K and canonical_square_class equal their rational
        trial-division oracles, root sign convention included."""
        K = make_field(m)
        x = K.elt(a, b)
        if square:
            x = (K.one(), -K.one(), K.eps, -K.eps)[u] * x * x
        want = fraction_sqrt_in_K(x)
        got = sqrt_in_K(x)
        assert (None if got is None else got.sqrt_coords()) == want
        if got is not None:
            assert got * got == x
        if x != 0:
            assert canonical_square_class(x) == unguarded_canonical_square_class(x)


class TestBuildOrder:
    def test_signature_hyperbolic_elliptic(self):
        t = K2.elt(1, 1)
        O = order_for_trace(K2, t)
        assert O.signature == HYPERBOLIC_ELLIPTIC
        assert O.realizable

    def test_signature_totally_elliptic(self):
        O = order_for_trace(K2, K2.elt(1, 0))  # D = -3
        assert O.signature == TOTALLY_ELLIPTIC

    def test_signature_other(self):
        t = K2.elt(9, 2)  # both embeddings outside [-2, 2]
        O = order_for_trace(K2, t)
        assert O.signature == OTHER_SIGNATURE

    def test_square_D_rejected(self):
        eps = K2.eps
        with pytest.raises(ValueError):
            build_order(K2, eps * eps, ideal_of_element(K2.one()))

    def test_bad_split_rejected(self):
        D = K2.elt(-1, 2)
        with pytest.raises(ValueError):
            build_order(K2, D, ideal_of_element(K2.elt(0, 1)))

    def test_split_passed_in_builds_the_same_order(self):
        for t in (K2.elt(1, 1), K2.elt(2, 1), K2.elt(0, 0), K2.elt(7, 4), K5.elt(1, 1), K5.elt(3, 2)):
            K = t.field
            D = t * t - 4
            for d_id, f_id in square_divisor_splits(D):
                a, b = build_order(K, D, d_id), build_order(K, D, d_id, f_id)
                assert (a.Dred, a.f_elt, a._rows2, a.realizable) == (b.Dred, b.f_elt, b._rows2, b.realizable)

    def test_mismatched_f_rejected(self):
        D = K2.elt(2, 1) ** 2 - 4
        (d1, f1), (d2, f2) = square_divisor_splits(D)
        for d, f in ((d1, f2), (d2, f1)):
            with pytest.raises(ValueError):
                build_order(K2, D, d, f)

    def test_ring_closure_of_basis(self):
        # products of the module generators re-expand integrally
        for t in (K2.elt(1, 1), K2.elt(2, 1), K2.elt(0, 0), K5.elt(1, 1)):
            K = t.field
            D = t * t - 4
            if D == 0 or sqrt_in_K(D) is not None:
                continue
            for d_id, _ in square_divisor_splits(D):
                O = build_order(K, D, d_id)
                xi = (0, 0, 1, 0)
                w_elt = (0, 1, 0, 0)
                for x in (xi, O.mul(xi, xi), O.mul(xi, w_elt)):
                    # x = (a + b sqrt(Dred))/2 re-expands in the order, with
                    # trace a and norm (a^2 - b^2 Dred)/4 in O_K
                    a, b = O.to_sqrt_form(x)
                    assert O.from_sqrt_form(a, b) == x
                    assert O.rel_trace(x) == a
                    assert 4 * O.rel_norm(x) == a * a - b * b * O.Dred

    def test_non_realizable_split_flagged(self):
        t = K2.elt(2, 1)
        D = t * t - 4
        splits = square_divisor_splits(D)
        flags = {}
        for d_id, _ in splits:
            O = build_order(K2, D, d_id)
            flags[d_id.norm] = O.realizable
        assert flags == {28: True, 7: False}

    def test_square_class_invariance(self):
        # the order is unchanged when D is scaled by squares
        t = K2.elt(1, 1)
        D = t * t - 4
        O1 = order_for_trace(K2, t)
        eps = K2.eps
        D2 = D * eps * eps
        d2 = square_divisor_splits(D2)[0][0]
        O2 = build_order(K2, D2, d2)
        assert O1.Dred == O2.Dred and O1._rows2 == O2._rows2
        D3 = D * 4
        match = [dd for dd, ff in square_divisor_splits(D3) if ff.norm == 4]
        O3 = build_order(K2, D3, match[0])
        assert O3.Dred == O1.Dred

    def test_cache_key_shared_by_powers(self):
        t1 = K2.elt(1, 1)
        t2 = t1 * t1 - 2
        assert order_for_trace(K2, t1).cache_key() == order_for_trace(K2, t2).cache_key()

    def test_canonical_square_class_consistency(self):
        a = canonical_square_class(K2.elt(-1, 2))
        b = canonical_square_class(K2.elt(5, 4))
        assert a == b


class TestUnits:
    def test_fundamental_unit_is_class_element_when_primitive(self):
        O = order_for_trace(K2, K2.elt(1, 1))
        eps, reg, tor = relative_fundamental_unit(O)
        alpha = O.from_sqrt_form(K2.elt(1, 1), O.f_elt)
        neg = tuple(-c for c in alpha)
        conj = O.rel_conj(alpha)
        nconj = tuple(-c for c in conj)
        assert eps in (alpha, neg, conj, nconj)
        assert abs(reg - 0.6329743192) < 1e-8
        assert tor == 2
        assert O.rel_norm(eps) == 1

    def test_unit_times_inverse_is_one(self):
        O = order_for_trace(K2, K2.elt(3, 1))
        eps, _, _ = relative_fundamental_unit(O)
        inv = O.rel_conj(eps)  # norm one: conjugate is the inverse
        assert O.mul(eps, inv) == O.one()

    def test_power_identity_for_squared_trace(self):
        # t2 = t^2 - 2 has alpha_2 = eps^2 in the shared order
        t1 = K2.elt(1, 1)
        t2 = t1 * t1 - 2
        O = order_for_trace(K2, t2)
        eps, reg, _ = relative_fundamental_unit(O)
        alpha2 = O.from_sqrt_form(t2, O.f_elt) or O.from_sqrt_form(t2, -O.f_elt)
        sq = O.mul(eps, eps)
        neg = tuple(-c for c in sq)
        conj = O.rel_conj(alpha2)
        assert alpha2 in (sq, neg) or conj in (sq, neg)

    def test_minimality_bounded_scan(self):
        O = order_for_trace(K2, K2.elt(1, 1))
        eps, reg, _ = relative_fundamental_unit(O)
        # no smaller norm-one unit: scan small xi-coordinates exactly
        for ua in range(-6, 7):
            for ub in range(-6, 7):
                for va in range(-6, 7):
                    for vb in range(-6, 7):
                        x = (ua, ub, va, vb)
                        if O.rel_norm(x) != 1:
                            continue
                        rho = O.embeddings(x)[0]
                        i0 = max(abs(rho[0]), abs(rho[1]))
                        assert not (1 + 1e-9 < i0 < math.exp(reg) - 1e-9)

    def test_torsion_cm_orders(self):
        # D = -4: conductor split has mu_4, maximal split mu_8
        t0 = K2.elt(0, 0)
        D = t0 * t0 - 4
        sizes = {}
        for d_id, _ in square_divisor_splits(D):
            O = build_order(K2, D, d_id)
            if O.realizable:
                sizes[d_id.norm] = norm_one_group_size(O)
        assert sizes == {16: 4, 4: 8}
        assert norm_one_group_size(order_for_trace(K2, K2.elt(1, 0))) == 6
        golden = order_for_trace(K5, K5.w())
        assert norm_one_group_size(golden) == 10

    # the box scan costs O(T^2) Fraction steps (about 4 s at T = 256), so the
    # largest cutoffs run on one field only
    @pytest.mark.parametrize("m,T", [(m, T) for m in (2, 3, 5, 13, 17) for T in (8, 16, 32, 64)]
                             + [(2, 128), (2, 256)])
    def test_trace_candidates_match_box_scan(self, m, T):
        K = make_field(m)
        got = _trace_candidates(K, T)
        want = box_trace_candidates(K, T)
        assert [(x.a, x.b) for x in got] == [(x.a, x.b) for x in want]

    @pytest.mark.parametrize("m", [2, 3, 5, 13, 17])
    def test_trace_candidates_above_previous_cutoff(self, m):
        K = make_field(m)
        for T in (16, 32, 64):
            full = _trace_candidates(K, T)
            new = _trace_candidates(K, T, T / 2)
            assert new == [x for x in full if x.approx(0) > T / 2 + 1e-9]
            assert _trace_candidates(K, T / 2) + new == full

    def test_torsion_matches_shipped_cm_records(self):
        cm = {k: rec for k, rec in shipped_records().items() if rec["eps_rel"] is None}
        assert len(cm) == 3
        seen = set()
        for t in enumerate_elliptic_traces(K2):
            D = t * t - 4
            for d_id, _ in square_divisor_splits(D):
                O = build_order(K2, D, d_id)
                if O.realizable:
                    key = O.cache_key()
                    assert norm_one_group_size(O) == cm[key]["torsion"]
                    seen.add(key)
        assert seen == set(cm)

    def test_warm_elliptic_classes_reuse_cached_torsion(self, tmp_path, monkeypatch):
        def boom(order):
            raise AssertionError("norm_one_group_size called on a warm cache")

        monkeypatch.setattr(holonomy.orders, "norm_one_group_size", boom)
        path = tmp_path / "cache.jsonl"
        shutil.copyfile(SHIPPED_CACHE, path)
        cache = OrderCache(str(path))
        sizes = []
        for t in enumerate_elliptic_traces(K2):
            ec = classify_elliptic_trace(K2, t, LatticeSpec.hilbert(K2), cache)
            sizes.extend(n1 for _, n1 in ec.weight_terms)
        assert sorted(sizes) == [4, 6, 8, 8]
        assert path.read_bytes() == SHIPPED_CACHE.read_bytes()

    def test_unit_norm_index_values(self):
        O = order_for_trace(K2, K2.elt(1, 1))
        eps, _, _ = relative_fundamental_unit(O)
        assert unit_norm_index(O, eps) == 2
        O2 = order_for_trace(K2, K2.elt(2, 1))
        eps2, _, _ = relative_fundamental_unit(O2)
        assert unit_norm_index(O2, eps2) == 4

    def test_unit_norm_index_unknown_on_tiny_budget(self):
        O = order_for_trace(K2, K2.elt(1, 1))
        eps, _, _ = relative_fundamental_unit(O)
        assert unit_norm_index(O, eps, budget=1) == UNKNOWN


class TestClassNumber:
    def test_h_one_certified(self):
        O = order_for_trace(K2, K2.elt(1, 1))
        eps, _, _ = relative_fundamental_unit(O)
        res = class_number(O, [(1, 1, 0, 0), eps])
        assert res.h == 1 and res.certified
        assert res.bound2 == 2 * res.bound

    def test_h_two_certified(self):
        O = order_for_trace(K2, K2.elt(10, 7))
        eps, _, _ = relative_fundamental_unit(O)
        res = class_number(O, [(1, 1, 0, 0), eps])
        assert res.h == 2 and res.certified

    def test_inconclusive_on_tiny_budget(self):
        O = order_for_trace(K2, K2.elt(3, 1))
        eps, _, _ = relative_fundamental_unit(O)
        res = class_number(O, [(1, 1, 0, 0), eps], budget=1)
        assert not res.certified
        assert "box too large" in res.reason


class TestLocalData:
    def test_splitting_at_primes_above_seven(self):
        # (D) for D = -1 + 2w is divisible by exactly one of the two primes
        Dred = build_order(K2, K2.elt(-1, 2), ideal_of_element(K2.elt(-1, 2))).Dred
        kinds = {}
        for pg in prime_elements_above(K2, 7):
            kinds[str(pg)] = local_splitting(K2, pg, Dred)
        assert sorted(kinds.values()) == ["inert", "ramified"]

    def test_dyadic_ramified(self):
        # K(sqrt(-1))/K is ramified at the prime above 2 for K = Q(sqrt 2)
        O = build_order(K2, K2.elt(-4, 0), ideal_of_element(K2.elt(2, 0)))
        pg = prime_elements_above(K2, 2)[0]
        assert local_splitting(K2, pg, O.Dred) == "ramified"

    def test_split_prime_gives_factor_zero(self):
        # find a prime where Dred is a square locally: factor must be 0
        Dred = K2.elt(-1, 2)
        found = None
        for ell in (3, 5, 7, 11, 13, 17, 23, 29, 31):
            for pg in prime_elements_above(K2, ell):
                if local_splitting(K2, pg, Dred) == "split":
                    found = pg
                    break
            if found:
                break
        assert found is not None
        O = build_order(K2, Dred, ideal_of_element(Dred))
        spec = LatticeSpec(2, (ideal_of_element(found), ideal_of_element(K2.elt(0, 1))), 0)
        assert local_embedding_factor(O, ideal_of_element(found), spec) == 0

    def test_local_factor_table(self):
        # ramified -> 1, inert -> 2 at a maximal order
        Dred = K2.elt(-1, 2)
        O = build_order(K2, Dred, ideal_of_element(Dred))
        vals = {}
        # the two primes above 7: one ramified, one inert in K(sqrt(Dred))
        spec = LatticeSpec(2, tuple(ideal_of_element(pg) for pg in prime_elements_above(K2, 7)), 0)
        for pg in prime_elements_above(K2, 7):
            vals[local_splitting(K2, pg, Dred)] = local_embedding_factor(
                O, ideal_of_element(pg), spec)
        assert vals == {"ramified": 1, "inert": 2}


class TestOneUnitWindow:
    """_canonicalize_dred and _unit_square_class read BaseField.unit_reduce;
    the loops they replaced are the oracles."""

    @pytest.mark.parametrize("m", [2, 3, 5, 13, 17])
    def test_dred_and_f_match_loop_on_every_split(self, m):
        K = make_field(m)
        n_splits = 0
        for t in enumerate_traces(K, 7.0) + enumerate_elliptic_traces(K):
            D = t * t - 4
            for dd, ff in square_divisor_splits(D):
                f0 = ff.generator(K)
                O = build_order(K, D, dd, ff)
                assert (O.Dred, O.f_elt) == loop_canonicalize_dred(K, D / (f0 * f0), f0)
                n_splits += 1
        assert n_splits > 20

    @pytest.mark.parametrize("m", [2, 3, 5, 13, 17])
    def test_unit_square_class_matches_loop(self, m):
        K = make_field(m)
        for k in range(-8, 9):
            for s in (1, -1):
                u = s * K.eps ** k
                assert _unit_square_class(K, u) == loop_unit_square_class(K, u)


class TestResidueSquares:
    @pytest.mark.parametrize("m", [2, 3, 5, 6, 7, 13, 17])
    def test_euler_criterion_matches_branches_and_brute_force(self, m):
        K = make_field(m)
        compared = 0
        for ell in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43):
            for pi in prime_elements_above(K, ell):
                ip = ideal_of_element(pi)
                for a in range(-6, 7):
                    for b in range(-6, 7):
                        u = K.elt(a, b)
                        if ip.contains(u):
                            with pytest.raises(ValueError):
                                _is_residue_square(K, pi, u)
                            continue
                        got = _is_residue_square(K, pi, u)
                        assert got == branch_is_residue_square(K, pi, u), (ell, pi, u)
                        assert got == _square_mod_pi_power(K, pi, u, 1), (ell, pi, u)
                        compared += 1
        assert compared > 2000


class TestEmbeddingCounts:
    def test_hilbert_formula(self):
        m = m1_from_data(1, 1, 2, 0, [])
        assert m.value == 2 and m.certified

    def test_zero_local_factor_kills(self):
        assert m1_from_data(3, 1, 2, 0, [2, 0]).value == 0
        # monotone consistency: flipping a 2 to 0 zeroes the count
        assert m1_from_data(3, 1, 2, 0, [2, 2]).value != 0

    def test_r_a_halving(self):
        a = m1_from_data(1, 1, 2, 0, [1, 2])
        b = m1_from_data(1, 1, 2, 2, [1, 2])
        assert a.value / b.value == 4

    def test_unknown_unit_index_interval(self):
        m = m1_from_data(2, 1, UNKNOWN, 0, [])
        assert (m.lo, m.hi, m.certified) == (Fraction(2), Fraction(8), False)

    def test_embedding_count_nonrealizable_is_zero(self):
        t = K2.elt(2, 1)
        D = t * t - 4
        d7 = [d for d, _ in square_divisor_splits(D) if d.norm == 7][0]
        O = build_order(K2, D, d7)
        m = embedding_count(O, LatticeSpec.hilbert(K2), 1, 2)
        assert m.value == 0 and m.certified

    def test_correspondence_matrix(self):
        # full synthetic configuration matrix: n=2, local factors in {1,2}^2,
        # unit indices in {1,2,4}
        for l1 in (1, 2):
            for l2 in (1, 2):
                for ui in (1, 2, 4):
                    for h in (1, 2, 3, 5):
                        assert correspondence_ratio(h, ui, [l1, l2], 2) == 4

    def test_correspondence_both_zero(self):
        assert correspondence_ratio(1, 2, [0, 2], 2) == BOTH_ZERO

    def test_correspondence_odd_n_rejected(self):
        with pytest.raises(ValueError):
            correspondence_ratio(1, 2, [1], 1)

    def test_divisibility_by_2n_even_case(self):
        # certified counts at r_A = 0 are divisible by 2^n on even-n synthetics
        n = 2
        for ui in (1, 2, 4):
            for loc in ([1, 1], [1, 2], [2, 2]):
                m_unram = m1_from_data(1, 1, ui, 0, loc)
                m_ram = m1_from_data(1, 1, ui, n, loc)
                assert m_unram.value == 2 ** n * m_ram.value


class TestArithmeticCache:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        O = order_for_trace(K2, K2.elt(1, 1))
        a1 = compute_arithmetic(O, OrderCache(path))
        a2 = compute_arithmetic(O, OrderCache(path))
        assert (a1.h_O, a1.unit_index, a1.torsion, a1.eps_rel) == \
               (a2.h_O, a2.unit_index, a2.torsion, a2.eps_rel)
        with open(path) as fh:
            assert len(fh.readlines()) == 1

    @pytest.mark.parametrize("t", [K2.elt(1, 1), K2.elt(0, 0)])
    def test_record_and_eps_rel_roundtrip_match_nested_oracle(self, tmp_path, t):
        path = tmp_path / "cache.jsonl"
        O = order_for_trace(K2, t)
        a1 = compute_arithmetic(O, OrderCache(str(path)))
        line = path.read_text()
        assert line == json.dumps(hand_mapped_record(O, a1), sort_keys=True) + "\n"
        a2 = compute_arithmetic(O, OrderCache(str(path)))
        assert a2 == a1
        er = json.loads(line)["eps_rel"]
        if O.signature == HYPERBOLIC_ELLIPTIC:
            assert type(a2.eps_rel) is tuple and len(a2.eps_rel) == 4
            assert nest(a2.eps_rel) == nested_coords_from_json(er)
        else:
            assert a2.eps_rel is None and er is None

    def test_truncated_final_record_is_skipped_then_cut_off(self, tmp_path, capsys):
        data = SHIPPED_CACHE.read_bytes()
        nrec = data.count(b"\n")
        path = tmp_path / "cache.jsonl"
        path.write_bytes(data[:-40])
        cache = OrderCache(str(path))
        assert f"line {nrec}: skipped a truncated final record" in capsys.readouterr().err
        assert len(cache.mem) == nrec - 1
        # the last shipped record (D = -3) is one the x=3 build needs: the
        # CLI run recomputes it, and its append replaces the fragment
        assert cli_main(["--cache", str(path), "enumerate", "--m", "2", "--x", "3"]) == 0
        assert path.read_bytes() == data
        capsys.readouterr()
        OrderCache(str(path))
        assert "truncated" not in capsys.readouterr().err

    def test_unterminated_final_record_is_kept(self, tmp_path):
        data = SHIPPED_CACHE.read_bytes()
        path = tmp_path / "cache.jsonl"
        path.write_bytes(data[:-1])
        cache = OrderCache(str(path))
        assert len(cache.mem) == data.count(b"\n")
        rec = dict(json.loads(data.splitlines()[0]), D="12345")
        cache.put(OrderCache._key(rec), rec)
        assert path.read_bytes() == data + json.dumps(rec, sort_keys=True).encode() + b"\n"

    def test_malformed_middle_line_names_its_line(self, tmp_path, capsys):
        lines = SHIPPED_CACHE.read_bytes().split(b"\n")
        lines[4] = lines[4][:40]
        path = tmp_path / "cache.jsonl"
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(ValueError, match="line 5: malformed order cache record"):
            OrderCache(str(path))
        assert cli_main(["--cache", str(path), "enumerate", "--m", "2", "--x", "3"]) == 2
        assert "line 5: malformed" in capsys.readouterr().err

    @pytest.mark.parametrize("x, n_records", [(5, 20), (6, 35)])
    def test_cold_build_reproduces_shipped_table_and_records(self, tmp_path, x, n_records):
        path = tmp_path / "cache.jsonl"
        out = tmp_path / f"x{x}.csv"
        assert cli_main(["--cache", str(path), "enumerate", "--m", "2", "--x", str(x),
                         "--out", str(out)]) == 0
        ref = SHIPPED_TABLE.read_text().splitlines()
        want = [f"# m=2 x={x}", ref[1]] + [ln for ln in ref[2:] if float(ln.split(",")[4]) <= x]
        assert out.read_text().splitlines() == want
        shipped = shipped_records()
        with open(path) as fh:
            appended = [json.loads(ln) for ln in fh]
        assert len(appended) == n_records
        assert all(rec == shipped[OrderCache._key(rec)] for rec in appended)

    def test_lattice_spec_parity(self):
        with pytest.raises(ValueError):
            LatticeSpec(2, (ideal_of_element(K2.elt(0, 1)),), 0)
        LatticeSpec(2, (), 2)  # even: fine

    def test_lattice_spec_rejects_a_repeated_prime(self):
        p, q = (ideal_of_element(pg) for pg in prime_elements_above(K2, 7))
        LatticeSpec(2, (p, q), 0)
        # the same prime twice, also with another generator of it
        for pair in ((p, p), (p, ideal_of_element(-K2.eps * p.generator(K2)))):
            with pytest.raises(ValueError, match="must be distinct"):
                LatticeSpec(2, pair, 0)


RESIDUES = list(product(range(4), repeat=2))


@cache
def flat_form_orders():
    """Every split order of the hyperbolic-elliptic traces up to x = 4 and of
    the CM traces, for m in 2, 3, 5 and 13."""
    out = []
    for m in (2, 3, 5, 13):
        K = make_field(m)
        for t in enumerate_traces(K, 4.0) + enumerate_elliptic_traces(K):
            D = t * t - 4
            out += [build_order(K, D, dd, ff) for dd, ff in square_divisor_splits(D)]
    return out


flat_elements = st.tuples(*[st.integers(-30, 30)] * 4)


class TestFlatElements:
    """Order elements are integer 4-tuples over (1, w, xi, w xi); mul is
    checked against FieldElement arithmetic in the form (a + b sqrt(Dred))/2."""

    def test_orders_cover_both_signatures(self):
        sigs = {O.signature for O in flat_form_orders()}
        assert {HYPERBOLIC_ELLIPTIC, TOTALLY_ELLIPTIC} <= sigs

    @settings(max_examples=300, deadline=None)
    @given(i=st.integers(0, 10 ** 6), x=flat_elements, y=flat_elements, z=flat_elements)
    def test_mul_matches_field_arithmetic(self, i, x, y, z):
        orders = flat_form_orders()
        O = orders[i % len(orders)]
        xy = O.mul(x, y)
        assert type(xy) is tuple and len(xy) == 4 and all(type(c) is int for c in xy)
        (a1, b1), (a2, b2) = O.to_sqrt_form(x), O.to_sqrt_form(y)
        # (a1 + b1 r)/2 * (a2 + b2 r)/2 with r^2 = Dred
        assert O.to_sqrt_form(xy) == ((a1 * a2 + b1 * b2 * O.Dred) / 2, (a1 * b2 + a2 * b1) / 2)
        assert O.from_sqrt_form(*O.to_sqrt_form(x)) == x
        assert xy == O.mul(y, x)
        assert O.mul(xy, z) == O.mul(x, O.mul(y, z))
        assert O.mul(x, O.one()) == x
        assert xy == tuple(c for pair in nested_mul(O, nest(x), nest(y)) for c in pair)
        n = O.rel_norm(x)
        assert O.mul(x, O.rel_conj(x)) == (n.a, n.b, 0, 0)
        assert O.abs_norm_int(x) == n.norm()


class TestInverseByConjugation:
    """_inverse_lattice reads n * J^{-1} off a^sigma * conj(J); the
    integer-kernel solve it replaced is the oracle, on every primitive
    proper ideal up to a small norm bound of drawn traces' split orders."""

    @pytest.mark.parametrize("m", [2, 3, 5, 13])
    @settings(max_examples=15, deadline=None)
    @given(ta=st.integers(-12, 12), tb=st.integers(-6, 6), i=st.integers(0, 10 ** 6),
           bound=st.integers(2, 40))
    def test_matches_the_kernel_solve(self, m, ta, tb, i, bound):
        K = make_field(m)
        D = K.elt(ta, tb) ** 2 - 4
        assume(D != 0)
        splits = square_divisor_splits(D)
        dd, ff = splits[i % len(splits)]
        try:
            O = build_order(K, D, dd, ff)
        except ValueError:  # D a square in K
            assume(False)
        for key, (a, *_) in primitive_proper_ideals(O, bound).items():
            rows = [list(r) for r in key]
            assert _inverse_lattice(O, rows, a) == nested_inverse_lattice(O, rows), key


class TestParityTable:
    """RelativeQuadraticOrder._build_basis reads the field's parity table,
    and the square tests check signs first; the per-order basis and the
    unguarded square tests they replaced are the oracles."""

    @staticmethod
    def _assert_entry_matches(K, r, Dr):
        rows2, bg, a0 = _parity_basis(K, r)
        ref = per_order_basis(K, Dr, ideal_of_element(Dr))
        assert ([list(x) for x in rows2], K.elt(*a0), K.elt(*bg)) == (ref["rows2"], ref["xi_a"], ref["xi_b"])

    @staticmethod
    def _assert_square_tests_match(K, D):
        assert canonical_square_class(D) == unguarded_canonical_square_class(D), D
        args = (K, D, ideal_of_element(D), ideal_of_element(K.one()))
        if unguarded_is_square(D):
            with pytest.raises(ValueError, match="must not be a square"):
                build_order(*args)
            return True
        build_order(*args)
        return False

    @pytest.mark.parametrize("m,x", [(2, 10.0), (3, 6.0), (5, 6.0), (13, 6.0)])
    def test_table_matches_per_order_basis_on_every_split(self, m, x):
        K = make_field(m)
        classes, n_splits = set(), 0
        for t in enumerate_traces(K, x) + enumerate_elliptic_traces(K):
            D = t * t - 4
            for dd, ff in square_divisor_splits(D):
                O = build_order(K, D, dd, ff)
                assert order_basis(O) == per_order_basis(K, O.Dred, dd), (t, dd)
                classes.add((O.Dred.a % 4, O.Dred.b % 4))
                n_splits += 1
        assert n_splits > 40
        if m == 2:  # the x=10 table reads every one of the 16 entries
            assert len(classes) == 16

    @pytest.mark.parametrize("m", [2, 3, 5, 13])
    @settings(max_examples=100, deadline=None)
    @given(r=st.sampled_from(RESIDUES), k0=st.integers(-25, 25), k1=st.integers(-25, 25))
    def test_table_matches_per_order_basis_on_drawn_dred(self, m, r, k0, k1):
        K = make_field(m)
        Dr = K.elt(r[0] + 4 * k0, r[1] + 4 * k1)
        assume(Dr != 0 and not unguarded_is_square(Dr))
        self._assert_entry_matches(K, r, Dr)
        for dd, ff in square_divisor_splits(Dr):
            O = build_order(K, Dr, dd, ff)
            assert order_basis(O) == per_order_basis(K, O.Dred, dd), dd

    @pytest.mark.parametrize("m", [2, 3, 5, 13])
    def test_every_residue_class_has_a_checked_entry(self, m):
        K = make_field(m)
        for r in RESIDUES:
            self._assert_entry_matches(K, r, K.elt(r[0] + 4, r[1]))
            assert _parity_basis(K, r) is _parity_basis(K, r)

    @staticmethod
    def _square_samples(K):
        e = K.eps
        out = [e * e, 4 * e * e, -(e * e), 9 * e ** 4, K.elt(9), K.elt(-1), e, -e, K.elt(2),
               K.elt(8), K.w() * K.w(), K.elt(0, 1) * 3, K.elt(-1, 2), K.elt(3, -5) ** 2]
        return out + [t * t - 4 for t in enumerate_traces(K, 5.0) + enumerate_elliptic_traces(K)]

    @pytest.mark.parametrize("m", [2, 3, 5, 13])
    def test_square_tests_match_unguarded(self, m):
        K = make_field(m)
        n_squares = sum(self._assert_square_tests_match(K, D) for D in self._square_samples(K))
        assert n_squares >= 5

    @pytest.mark.parametrize("m", [2, 3, 5, 13])
    @settings(max_examples=40, deadline=None)
    @given(a=st.integers(-9, 9), b=st.integers(-9, 9), u=st.integers(0, 3),
           c=st.sampled_from([(1, 0), (2, 0), (3, 0), (0, 1), (1, 1), (-1, 2), (5, -3)]))
    def test_square_tests_match_unguarded_on_drawn_d(self, m, a, b, u, c):
        K = make_field(m)
        x = K.elt(a, b)
        assume(x != 0)
        self._assert_square_tests_match(K, (K.one(), -K.one(), K.eps, -K.eps)[u] * K.elt(*c) * x * x)

    @pytest.mark.parametrize("m", [2, 3, 5, 13])
    def test_roots_are_taken_of_totally_positive_elements_only(self, m, monkeypatch):
        K = make_field(m)
        seen = []

        def spy(x):
            seen.append(x)
            return sqrt_in_K(x)

        monkeypatch.setattr(holonomy.orders, "sqrt_in_K", spy)
        for D in self._square_samples(K):
            seen.clear()
            canonical_square_class(D)
            # the square class is read off the factorisation: no root is taken
            assert not seen, D
            try:
                build_order(K, D, ideal_of_element(D), ideal_of_element(K.one()))
            except ValueError:
                pass
            assert all(x.sign(0) > 0 and x.sign(1) > 0 for x in seen), D
