import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holonomy.fields import (
    BaseField,
    ScopeError,
    factor_element,
    format_element,
    ideal_of_element,
    k_module_rows,
    kdiv_exact,
    kmul,
    knorm,
    make_field,
    parse_element,
    prime_elements_above,
    quotient,
    sign_data,
    square_divisor_splits,
    totally_positive_units_are_squares,
    _fundamental_unit,
    _is_squarefree,
    _lattice_product,
)
from holonomy.intlinalg import hnf, in_lattice


def brute_pell_unit(m, ymax=None):
    """Independent oracle: minimal unit > 1 by continued-fraction-free scan,
    as (p, q) with eps = p + q*sqrt(m); None when its y exceeds ymax."""
    c = 2 if m % 4 == 1 else 1
    y = 1
    while ymax is None or y <= ymax:
        for delta in (-c * c, c * c):
            t = m * y * y + delta
            if t > 0:
                x = math.isqrt(t)
                if x * x == t:
                    return (Fraction(x, c), Fraction(y, c))
        y += 1
    return None


def pell_period_unit(m):
    """The least (x, y), x, y > 0, with x^2 - m*y^2 = +-1, from the period of
    the continued fraction of sqrt(m): the route the field took for
    m = 2, 3 mod 4 before one continued fraction of w served both bases,
    kept as an oracle where the brute scan is too long."""
    a0 = math.isqrt(m)
    P, Q = 0, 1
    pm1, p0 = 1, a0
    qm1, q0 = 0, 1
    a = a0
    while True:
        P = a * Q - P
        Q = (m - P * P) // Q
        a = (a0 + P) // Q
        if Q == 1:  # period complete: the previous convergent solves Pell
            return p0, q0
        pm1, p0 = p0, a * p0 + pm1
        qm1, q0 = q0, a * q0 + qm1


def sqrt_m_enclosure(K, kbits):
    """Rational lo <= sqrt(m) <= hi with hi - lo = 2^-kbits: the enclosure
    that BaseField kept before every float came from integers, kept as the
    oracle of approx and _ymax."""
    scale = 1 << kbits
    lo = math.isqrt(K.m * scale * scale)
    return (Fraction(lo, scale), Fraction(lo + 1, scale))


def sqrt_coords(x):
    """(p, q) with x = p + q*sqrt(m): ints, or Fraction halves when
    m = 1 mod 4 and b is odd."""
    a, b = x.a, x.b
    if not x.field._half_basis:
        return (a, b)
    if b % 2 == 0:
        return (a + b // 2, b // 2)
    return (Fraction(2 * a + b, 2), Fraction(b, 2))


def embed(x, place, prec=64):
    """Rigorous enclosure (lo, hi) of iota_place(x), width <= 2^(1-prec)."""
    if prec < 32:
        raise ValueError("prec must be >= 32")
    p, q = sqrt_coords(x)
    if q == 0:
        return (p, p)
    k = prec + max(q.numerator.bit_length(), 1) + 2
    lo_s, hi_s = sqrt_m_enclosure(x.field, k)
    if place == 1:
        lo_s, hi_s = -hi_s, -lo_s
    if q > 0:
        return (p + q * lo_s, p + q * hi_s)
    return (p + q * hi_s, p + q * lo_s)


class TestMakeField:
    def test_m2(self):
        K = make_field(2)
        assert K.omega_text() == "sqrt(2)"
        assert K.disc == 8
        assert sqrt_coords(K.eps) == (1, 1)  # 1 + sqrt2
        assert K.eps_norm == -1
        assert K.h_K == 1

    def test_m5(self):
        K = make_field(5)
        assert K.omega_text() == "(1+sqrt(5))/2"
        assert K.disc == 5
        assert K.eps == K.w()
        assert K.eps_norm == -1
        assert K.h_K == 1

    def test_not_squarefree_rejected(self):
        with pytest.raises(ValueError):
            make_field(4)
        with pytest.raises(ValueError):
            make_field(12)
        with pytest.raises(ValueError):
            make_field(1)

    @pytest.mark.parametrize("m", [2, 3, 5, 7, 13])
    def test_unit_against_oracle(self, m):
        K = make_field(m)
        assert sqrt_coords(K.eps) == brute_pell_unit(m)

    def test_continued_fraction_unit_below_200(self):
        # a scan past y = 3*10^5 takes seconds, and eps has y from 3.1*10^5 to
        # 1.2*10^9 for eight m, all 2, 3 mod 4: those are checked against the
        # period of the continued fraction of sqrt(m) instead
        beyond = []
        for m in range(2, 200):
            if not _is_squarefree(m):
                continue
            a, b = _fundamental_unit(m)
            c = 2 if m % 4 == 1 else 1
            got = (Fraction(c * a + (c - 1) * b, c), Fraction(b, c))
            want = brute_pell_unit(m) if b <= 3 * 10**5 else None
            if want is None:
                beyond.append(m)
                assert m % 4 != 1 and got == pell_period_unit(m), m
            else:
                assert got == want, m
        assert beyond == [127, 139, 151, 163, 166, 179, 191, 199]

    @pytest.mark.parametrize("m", [313, 337, 409])
    def test_continued_fraction_unit_beyond_a_scan(self, m):
        # eps has y > 10^7 here, where the y-scan the field used before gave up;
        # the continued fraction runs without building the field
        a, b = _fundamental_unit(m)
        assert a > 0 and b > 0
        assert abs(a * a + a * b - (m - 1) // 4 * b * b) == 1

    def test_omega_satisfies_its_quadratic(self):
        for m in (2, 3, 5, 13):
            K = make_field(m)
            w = K.w()
            c0, c1 = K._w2
            assert w * w == K.elt(c0, c1)

    def test_class_number_m10_is_two(self):
        assert make_field(10).h_K == 2

    def test_unit_minimality_bounded_scan(self):
        # no unit u with 1 < iota0(u) < iota0(eps) (lattice scan)
        for m in (2, 3, 5, 13):
            K = make_field(m)
            e0 = K.eps.approx(0)
            for a in range(-40, 41):
                for b in range(-40, 41):
                    u = K.elt(a, b)
                    if abs(u.norm()) != 1:
                        continue
                    v0 = u.approx(0)
                    assert not (1 + 1e-9 < v0 < e0 - 1e-9), f"smaller unit {u}"


class TestElementArithmetic:
    def test_exact_norm_matches_embeddings(self):
        K = make_field(2)
        x = K.elt(123456, -654321)
        lo0, hi0 = embed(x, 0, 128)
        lo1, hi1 = embed(x, 1, 128)
        prod_lo = min(lo0 * lo1, lo0 * hi1, hi0 * lo1, hi0 * hi1)
        prod_hi = max(lo0 * lo1, lo0 * hi1, hi0 * lo1, hi0 * hi1)
        assert prod_lo <= x.norm() <= prod_hi
        assert round(float(prod_lo)) == x.norm()

    @settings(max_examples=60, deadline=None)
    @given(a=st.integers(-10**6, 10**6), b=st.integers(-10**6, 10**6),
           c=st.integers(-1000, 1000), d=st.integers(-1000, 1000))
    def test_norm_multiplicative(self, a, b, c, d):
        K = make_field(3)
        x = K.elt(a, b)
        y = K.elt(c, d)
        assert (x * y).norm() == x.norm() * y.norm()

    def test_embedding_enclosure_examples(self):
        K = make_field(2)
        x = K.elt(2, 1)
        # reference enclosure of sqrt(2) at much higher precision
        s_lo, s_hi = sqrt_m_enclosure(K, 200)
        lo, hi = embed(x, 0, 64)
        assert lo <= 2 + s_lo and 2 + s_hi <= hi
        assert hi - lo <= Fraction(2) ** (1 - 64)
        lo, hi = embed(x, 1, 64)
        assert lo <= 2 - s_hi and 2 - s_lo <= hi
        assert hi - lo <= Fraction(2) ** (1 - 64)
        lo, hi = embed(K.elt(3), 0, 64)
        assert lo == hi == 3

    def test_embed_min_precision(self):
        with pytest.raises(ValueError):
            embed(make_field(2).elt(1, 1), 0, 16)

    def test_sign_decisions_exact(self):
        K = make_field(2)
        # 1393/985 is a continued-fraction convergent, very close to sqrt(2):
        # x = 985*sqrt(2) - 1393 has |x| < 10^-3 and N(x) = 1
        x = K.elt(-1393, 985)
        assert x.sign(0) == (1 if 985 * 985 * 2 > 1393 * 1393 else -1)
        assert x.sign(1) == -1 and x.norm() == 1393 * 1393 - 2 * 985 * 985

    @settings(max_examples=100, deadline=None)
    @given(m=st.sampled_from([2, 5]), a=st.integers(-10**6, 10**6), b=st.integers(-10**6, 10**6))
    def test_format_parse_roundtrip(self, m, a, b):
        K = make_field(m)
        x = K.elt(a, b)
        assert parse_element(K, format_element(x)) == x

    @pytest.mark.parametrize("text", ["1/2", "2.5", "x", "1+w/2", "1/2*w", "3*v", "", "+", "1e3",
                                      "1+2+3", "w+w-w+w", "1_0+w", "+-1", "\u0661+w", "*w",
                                      "w+1", "1 2"])
    def test_parse_rejects_non_integral_coordinates(self, text):
        with pytest.raises(ValueError, match="a\\+b\\*w with integers a and b"):
            parse_element(make_field(2), text)

    @pytest.mark.parametrize("text,a,b", [(" -1+2*w", -1, 2), ("1 + 2 * w", 1, 2), ("3w", 0, 3),
                                          ("-w", 0, -1), ("+5", 5, 0), ("7-w", 7, -1)])
    def test_parse_accepts_one_integer_and_one_w_term(self, text, a, b):
        K = make_field(2)
        assert parse_element(K, text) == K.elt(a, b)


class TestSignData:
    @pytest.mark.parametrize("m,narrow", [(2, True), (3, False), (5, True), (13, True)])
    def test_narrow_criterion(self, m, narrow):
        K = make_field(m)
        sd = sign_data(K)
        assert sd.narrow_equals_class is narrow
        assert (len(sd.sign_images) == 4) is narrow
        # independent route
        assert totally_positive_units_are_squares(K) is narrow

    def test_m3_images(self):
        sd = sign_data(make_field(3))
        assert sd.sign_images == frozenset({(1, 1), (-1, -1)})


class TestSplits:
    def test_example_2_plus_4w(self):
        K = make_field(2)
        D = K.elt(2, 4)
        splits = square_divisor_splits(D)
        norms = sorted((d.norm, f.norm) for d, f in splits)
        assert norms == [(7, 2), (28, 1)]

    def test_trivial_split_for_unit(self):
        K = make_field(2)
        (d, f), = square_divisor_splits(K.one())
        assert d.norm == 1 and f.norm == 1

    def test_squarefree_norm_single_split(self):
        K = make_field(2)
        splits = square_divisor_splits(K.elt(-1, 2))  # norm -7
        assert len(splits) == 1

    def test_contains_trivial_pair(self):
        K = make_field(2)
        D = K.elt(2, 4)
        keys = {(d.rows, f.rows) for d, f in square_divisor_splits(D)}
        assert (ideal_of_element(D).rows, ideal_of_element(K.one()).rows) in keys

    @settings(max_examples=40, deadline=None)
    @given(a=st.integers(-12, 12), b=st.integers(-12, 12))
    def test_split_product_reconstructs_ideal(self, a, b):
        K = make_field(2)
        D = K.elt(a, b)
        if D.norm() == 0:
            return
        target = ideal_of_element(D).rows
        for d, f in square_divisor_splits(D):
            prod = _lattice_product(K, _lattice_product(K, list(map(list, f.rows)),
                                                        list(map(list, f.rows))),
                                    list(map(list, d.rows)))
            assert tuple(tuple(r) for r in prod) == target

    def test_h_gt_1_rejected(self):
        K = make_field(10)
        with pytest.raises(ScopeError):
            square_divisor_splits(K.elt(2, 1))

    def test_factor_element_unit_times_primes(self):
        K = make_field(2)
        x = K.elt(6, 10)
        unit, fac = factor_element(x)
        assert abs(unit.norm()) == 1
        rebuilt = unit
        for pi, e in fac:
            rebuilt = rebuilt * pi ** e
        assert rebuilt == x


def box_elements_of_norm(K, n):
    """Test-only oracle: canonical elements of norm +-n by a padded box scan.

    A canonical x has 0 < iota_0 < sqrt(n)*eps and |iota_1| <= sqrt(n), so
    its sqrt-coordinates p + q*sqrt(m) lie in |p|, |q|*sqrt(m) <= sqrt(n)*(eps+1)/2;
    the box over (a, b) is padded well past that, and the window is tested
    exactly.
    """
    r = math.sqrt(n) * (K.eps.approx(0) + 1)
    bmax = int(2 * r / math.sqrt(K.m)) + 3
    amax = int(2 * r) + bmax + 3
    E2 = K.eps * K.eps
    c0, c1 = (int(c) for c in K._w2)  # w^2 = c0 + c1*w
    out = []
    for b in range(-bmax, bmax + 1):
        for a in range(-amax, amax + 1):
            if abs(a * a + a * b * c1 - b * b * c0) != n:
                continue
            x = K.elt(a, b)
            if x.sign(0) <= 0:
                continue
            v = x * x
            if (v - n).sign(0) >= 0 and (v - E2 * n).sign(0) < 0:
                out.append(x)
    out.sort(key=lambda z: (z.approx(0), z.a, z.b))
    return out


class TestElementsOfNorm:
    @settings(max_examples=60, deadline=None)
    @given(m=st.sampled_from([2, 3, 5, 13, 17]), n=st.integers(1, 300))
    def test_matches_box_oracle(self, m, n):
        K = make_field(m)
        assert K.elements_of_norm(n) == box_elements_of_norm(K, n)

    @pytest.mark.parametrize("m", [2, 3, 5, 13])
    def test_ideal_lattice_keeps_its_generators(self, m):
        K = make_field(m)
        for n in range(2, 26):
            everything = K.elements_of_norm(n)
            for rows in K._ideals_of_norm(n):
                got = K.elements_of_norm(n, rows)
                assert got == [z for z in everything if in_lattice([z.a, z.b], rows)]
                # h_K = 1: every ideal of norm n has a generator, and every
                # element of norm n inside it generates it
                assert got
                assert all(ideal_of_element(z).rows == rows for z in got)

    def test_non_ideal_lattice_rejected(self):
        K = make_field(2)
        # Z + 2*sqrt(2)*Z is an order, not an O_K-ideal
        with pytest.raises(ValueError):
            K.elements_of_norm(4, [[1, 0], [0, 2]])

    def test_ideal_lattice_in_any_basis(self):
        K = make_field(5)
        rows = K._ideals_of_norm(11)[0]
        shuffled = [[rows[0][0] + rows[1][0], rows[0][1] + rows[1][1]], list(rows[1])]
        assert hnf(shuffled) == [list(r) for r in rows]
        assert K.elements_of_norm(11, shuffled) == K.elements_of_norm(11, rows)

    @pytest.mark.parametrize("m", [2, 3, 5, 13])
    def test_ymax_matches_per_call_enclosure(self, m):
        # the bound as computed before its rational factor was fixed per field
        K = make_field(m)
        cc = 4 if K._half_basis else 1
        assert Fraction(*K._ymax_scale) == cc * (embed(K.eps, 0)[1] + 1) ** 2 / (4 * m)
        for n in range(5001):
            assert K._ymax(n) == math.isqrt(math.floor(cc * n * (embed(K.eps, 0)[1] + 1) ** 2 / (4 * m)))


def fraction_canonical_associate(K, x):
    """The Fraction-based canonical associate that the integer steps replaced."""
    if x.sign(0) < 0:
        x = -x
    n = abs(x.norm())
    E = K.eps
    while True:
        v = x * x
        if (v - n).sign(0) < 0:
            x = x * E
        elif (v - E * E * n).sign(0) >= 0:
            x = x / E
        else:
            return x


def box_elements_up_to_norm(K, bound):
    """The box scan that elements_up_to_norm replaced, kept as its oracle."""
    eps0 = K.eps.approx(0)
    s = math.sqrt(bound)
    hi0 = s * eps0 * 1.0000001 + 1e-9
    hi1 = s * 1.0000001 + 1e-9
    w0 = K.w().approx(0)
    w1 = K.w().approx(1)
    qmax = int((hi0 + hi1) / abs(w0 - w1)) + 2
    pmax = int(hi0 + hi1) + 2
    out = {}
    seen = set()
    for q in range(-qmax, qmax + 1):
        for p in range(-pmax, pmax + 1):
            if p == 0 and q == 0:
                continue
            x = K.elt(p, q)
            n = abs(int(x.norm()))
            if n == 0 or n > bound:
                continue
            c = fraction_canonical_associate(K, x)
            if (c.a, c.b) in seen:
                continue
            seen.add((c.a, c.b))
            out.setdefault(n, []).append(c)
    for lst in out.values():
        lst.sort(key=lambda z: (z.approx(0), z.a, z.b))
    return out


class TestElementsUpToNorm:
    @pytest.mark.parametrize("m", [2, 3, 5, 13, 17])
    def test_matches_box_scan_for_rising_bounds(self, m):
        K = BaseField(m)  # a fresh table, grown by the rising bounds
        for bound in (1, 2, 3, 5, 8, 13, 20, 31, 32, 47, 64):
            assert K.elements_up_to_norm(bound) == box_elements_up_to_norm(K, bound)
        assert K._norm_table[0] >= 64
        assert K.elements_up_to_norm(7) == box_elements_up_to_norm(K, 7)

    def test_table_grows_geometrically(self):
        K = BaseField(2)
        for bound in range(10, 200):
            K.elements_up_to_norm(bound)
        # 10, 20, 40, 80, 160, 320: five rebuilds after the first table
        assert K._norm_table[0] == 320

    @settings(max_examples=80, deadline=None)
    @given(m=st.sampled_from([2, 3, 5, 13, 17]), a=st.integers(-400, 400), b=st.integers(-400, 400))
    def test_canonical_associate_matches_fraction_steps(self, m, a, b):
        K = make_field(m)
        x = K.elt(a, b)
        if a == 0 and b == 0:
            return
        assert K.canonical_associate(x) == fraction_canonical_associate(K, x)

    @settings(max_examples=120, deadline=None)
    @given(m=st.sampled_from([2, 3, 5, 13, 17]), a=st.integers(-400, 400), b=st.integers(-400, 400),
           k=st.integers(-6, 6), s=st.sampled_from([1, -1]))
    def test_unit_reduce_returns_exponent_and_canonical_part(self, m, a, b, k, s):
        K = make_field(m)
        if a == 0 and b == 0:
            return
        c = fraction_canonical_associate(K, K.elt(a, b))
        assert K.unit_reduce(s * K.eps ** k * c) == (k, c)


class TestIntegerPairs:
    """kmul, knorm, kdiv_exact and k_module_rows against FieldElement, and
    exact division against the Fraction oracle."""

    @settings(max_examples=200, deadline=None)
    @given(m=st.sampled_from([2, 3, 5, 13, 17]), x=st.tuples(st.integers(-60, 60), st.integers(-60, 60)),
           y=st.tuples(st.integers(-30, 30), st.integers(-30, 30)), multiple=st.booleans())
    def test_pairs_match_field_elements(self, m, x, y, multiple):
        K = make_field(m)
        if multiple:  # make exact quotients common
            x = kmul(K, x, y)
        ex, ey = K.elt(*x), K.elt(*y)
        p = ex * ey
        assert kmul(K, x, y) == (p.a, p.b)
        assert knorm(K, x) == ex.norm()
        if y == (0, 0):
            assert kdiv_exact(K, x, y) is None and quotient(ex, ey) is None
            with pytest.raises(ZeroDivisionError):
                ex / ey
            return
        # kdiv_exact, quotient and / against the division of K: equal when
        # the quotient is integral, else None or ArithmeticError
        for d, ed in ((y, ey), ((y[0] or 1, 0), y[0] or 1)):
            q = FractionElement(K, *x) / FractionElement(K, *d)
            if q.a.denominator == 1 and q.b.denominator == 1:
                assert kdiv_exact(K, x, d) == (q.a, q.b)
                assert ex / ed == quotient(ex, ed) == K.elt(int(q.a), int(q.b))
            else:
                assert kdiv_exact(K, x, d) is None and quotient(ex, ed) is None
                with pytest.raises(ArithmeticError, match="does not divide"):
                    ex / ed
        xw, yw = ex * K.w(), ey * K.w()
        assert k_module_rows(K, [x, y]) == [list(x), [xw.a, xw.b], list(y), [yw.a, yw.b]]


def box_trace_strip(K, R):
    """Canonical x (iota_0 >= 0) with |iota_1(x)| < 2 and iota_0(x) <= R by a
    coordinate-box scan, sorted by (iota_0, a, b): the oracle of trace_strip."""
    w0, w1 = K.w().approx(0), K.w().approx(1)
    amax = int((R + 2) / 2 + 2)
    bmax = int((R + 2) / abs(w0 - w1) + 2)
    out = {}
    for b in range(-bmax, bmax + 1):
        for a in range(-amax, amax + 1):
            x = K.elt(a, b)
            if x.sign(0) < 0:
                x = -x
            if x.approx(0) <= R and (x - 2).sign(1) < 0 and (x + 2).sign(1) > 0:
                out[x.a, x.b] = x
    return sorted(out.values(), key=lambda z: (z.approx(0), z.a, z.b))


class TestTraceStrip:
    @settings(max_examples=25, deadline=None)
    @given(m=st.sampled_from([2, 3, 5, 13, 17]), R=st.floats(0.5, 300))
    def test_sorted_canonical_and_matches_box(self, m, R):
        K = make_field(m)
        strip = K.trace_strip(R)
        assert strip == sorted(strip, key=lambda z: (z.approx(0), z.a, z.b))
        assert all(x.sign(0) >= 0 and (x - 2).sign(1) < 0 and (x + 2).sign(1) > 0 for x in strip)
        coords = {(x.a, x.b) for x in strip}
        assert len(coords) == len(strip) and (0, 0) in coords
        assert not any((-a, -b) in coords for a, b in coords if (a, b) != (0, 0))
        assert [x for x in strip if x.approx(0) <= R] == box_trace_strip(K, R)


class TestPrimeElements:
    def test_repeated_calls_return_equal_independent_lists(self):
        K = make_field(2)
        first = prime_elements_above(K, 7)
        snapshot = list(first)
        first.clear()
        second = prime_elements_above(K, 7)
        assert second == snapshot and len(second) == 2
        assert second is not prime_elements_above(K, 7)


class FractionElement:
    """The Fraction-only element type that int coordinates replaced, kept as
    their oracle: the same formulas, every coordinate a Fraction, and /
    the division of K."""

    def __init__(self, K, a, b):
        self.K, self.a, self.b = K, Fraction(a), Fraction(b)

    def _c(self, o):
        return o if isinstance(o, FractionElement) else FractionElement(self.K, o, 0)

    def __add__(self, o):
        o = self._c(o)
        return FractionElement(self.K, self.a + o.a, self.b + o.b)

    def __sub__(self, o):
        o = self._c(o)
        return FractionElement(self.K, self.a - o.a, self.b - o.b)

    def __neg__(self):
        return FractionElement(self.K, -self.a, -self.b)

    def __mul__(self, o):
        o = self._c(o)
        c0, c1 = (Fraction(c) for c in self.K._w2)
        bb = self.b * o.b
        return FractionElement(self.K, self.a * o.a + bb * c0, self.a * o.b + self.b * o.a + bb * c1)

    def __truediv__(self, o):
        o = self._c(o)
        n = o.norm()
        num = self * o.conj()
        return FractionElement(self.K, num.a / n, num.b / n)

    def __pow__(self, k):
        if k < 0:
            return (FractionElement(self.K, 1, 0) / self) ** (-k)
        r = FractionElement(self.K, 1, 0)
        for _ in range(k):
            r = r * self
        return r

    def conj(self):
        return FractionElement(self.K, self.a + self.b * Fraction(self.K._trace_w), -self.b)

    def norm(self):
        c0, c1 = (Fraction(c) for c in self.K._w2)
        return self.a * self.a + self.a * self.b * c1 - self.b * self.b * c0

    def trace(self):
        return 2 * self.a + self.b * Fraction(self.K._trace_w)

    def sqrt_coords(self):
        if self.K.m % 4 == 1:
            return (self.a + self.b / 2, self.b / 2)
        return (self.a, self.b)

    def sign(self, place):
        p, q = self.sqrt_coords()
        if place == 1:
            q = -q
        if q == 0:
            return 0 if p == 0 else (1 if p > 0 else -1)
        if p == 0:
            return 1 if q > 0 else -1
        if (p > 0) == (q > 0):
            return 1 if p > 0 else -1
        cmp = p * p - q * q * self.K.m
        return (1 if cmp > 0 else -1) if p > 0 else (-1 if cmp > 0 else 1)

    def approx(self, place):
        p, q = self.sqrt_coords()
        if q == 0:
            return float(p)
        k = 64 + max(q.numerator.bit_length(), 1) + 2
        lo_s, hi_s = sqrt_m_enclosure(self.K, k)
        if place == 1:
            lo_s, hi_s = -hi_s, -lo_s
        return float((p + q * lo_s + p + q * hi_s) / 2)


class TestIntCoordinates:
    @settings(max_examples=300, deadline=None)
    @given(m=st.sampled_from([2, 3, 5, 13, 17]), a=st.integers(-60, 60), b=st.integers(-60, 60),
           c=st.integers(-60, 60), d=st.integers(-60, 60), k=st.integers(-3, 4))
    def test_matches_fraction_only_elements(self, m, a, b, c, d, k):
        K = make_field(m)
        x, y = K.elt(a, b), K.elt(c, d)
        xo, yo = FractionElement(K, a, b), FractionElement(K, c, d)
        pairs = [(x + y, xo + yo), (x - y, xo - yo), (x * y, xo * yo), (-x, -xo),
                 (x.conj(), xo.conj()), (x + 3, xo + 3), (x * 2, xo * 2)]
        if abs(xo.norm()) == 1 or k >= 0:
            pairs.append((x ** k, xo ** k))
        for got, want in pairs:
            assert (got.a, got.b) == (want.a, want.b)
            assert type(got.a) is int and type(got.b) is int
            assert got == K.elt(int(want.a), int(want.b))
            assert hash(got) == hash((m, want.a, want.b))
            for place in (0, 1):
                assert got.sign(place) == want.sign(place)
                assert got.approx(place) == want.approx(place)
            assert sqrt_coords(got) == want.sqrt_coords()
        for got, want in ((x.norm(), xo.norm()), ((x + x.conj()).a, xo.trace())):
            assert got == want and type(got) is int
        assert (x == c) == (xo.b == 0 and xo.a == c)
        if k < 0 and abs(xo.norm()) != 1:
            with pytest.raises(ArithmeticError):
                x ** k

    @settings(max_examples=200, deadline=None)
    @given(m=st.sampled_from([2, 3, 5, 13, 17]), a=st.integers(-10**30, 10**30),
           b=st.integers(-10**30, 10**30).filter(bool))
    def test_sqrt_m_read_at_the_enclosure_precision(self, m, a, b):
        # approx reads sqrt(m) at the precision and lower end of the old enclosure
        K = make_field(m)
        x = K.elt(a, b)
        k, L = K._sqrt_m_floor(K._xy(x)[1])
        assert k == 66 + Fraction(sqrt_coords(x)[1]).numerator.bit_length()
        assert Fraction(L, 1 << k) == sqrt_m_enclosure(K, k)[0]

    def test_integral_elements_have_int_coordinates(self):
        for m in (2, 5):
            K = make_field(m)
            x = K.elt(2, -2)
            assert all(type(c) is int for c in K._w2) and type(K._trace_w) is int
            assert type(K.eps.a) is int and type(K.eps.b) is int
            for y in (x / K.eps, x / 2, x * K.eps ** -3, x.conj(), -x):
                assert type(y.a) is int and type(y.b) is int
            with pytest.raises(ArithmeticError):
                x / 4

    @pytest.mark.parametrize("make", [
        lambda K: K.elt(0.5),
        lambda K: K.elt(1, 0.25),
        lambda K: K.elt(1, 1) + 0.5,
        lambda K: K.elt(1, 1) * 2.0,
        lambda K: K.elt(Fraction(4, 2)),
        lambda K: K.elt(1, Fraction(1, 2)),
        lambda K: K.elt(1, 1) - Fraction(1, 3),
        lambda K: K.elt(True),
        lambda K: K.elt("1"),
    ])
    def test_float_coordinate_rejected(self, make):
        with pytest.raises(TypeError):
            make(make_field(2))


class TestFactorMemo:
    def test_memo_returns_independent_lists(self):
        K = make_field(2)
        x = K.elt(6, 10)
        unit, fac = factor_element(x)
        snapshot = list(fac)
        fac.clear()
        again = factor_element(x)
        assert again == (unit, snapshot) and again[1] is not factor_element(x)[1]
        assert again == factor_element(BaseField(2).elt(6, 10))  # a field with an empty memo
