"""Relative quadratic orders over O_K, their class numbers, units, and the
optimal-embedding counts that weight geodesic classes.

An order is built from a pair (D, d) with d || (D), i.e. (D) = d * f^2.
With h_K = 1 we reduce by a generator f of the square part and model the
order as the integral span of (a + b*sqrt(D'))/2, D' = D/f^2, subject to the
exact integrality condition a^2 = b^2 D' mod 4. This span is always closed
under multiplication and is free of rank 2 over O_K: O = O_K[xi] with
xi^2 = p xi + q. Its realized relative discriminant ideal can be strictly
larger than d (only conductor-times-maximal discriminants are realizable);
non-realizable labels are flagged and count zero embeddings.

Class numbers are computed by a brute-force oracle: enumerate primitive
proper ideals up to the Minkowski-type norm bound, then partition them into
principal-multiple classes by exhaustive generator enumeration modulo the
unit subgroup generated by the base-field unit and the relative fundamental
unit. The partition structure itself certifies the run (overlapping class
sets would signal a covering failure); stability under a doubled bound is
the shipped certificate.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

from .fields import (
    BaseField,
    FieldElement,
    IdealK,
    ScopeError,
    _factorint,
    _primes_above,
    factor_element,
    format_element,
    ideal_of_element,
    k_module_rows,
    kdiv_exact,
    kmul,
    knorm,
    make_field,
    quotient,
    square_divisor_splits,
    valuation,
)
from .intlinalg import hnf, hnf_key, pivot_product

UNKNOWN = "UNKNOWN"

HYPERBOLIC_ELLIPTIC = "hyperbolic-elliptic"
TOTALLY_ELLIPTIC = "totally-elliptic"
OTHER_SIGNATURE = "other"

# Minkowski constants (n!/n^n)(4/pi)^r2 for quartic signatures
_MINK = {HYPERBOLIC_ELLIPTIC: (24 / 256) * (4 / math.pi), TOTALLY_ELLIPTIC: (24 / 256) * (4 / math.pi) ** 2}


class Inconclusive(RuntimeError):
    """An exact search exhausted its budget without a certificate."""


class SearchExhausted(Inconclusive):
    pass


# ---------------------------------------------------------------------------
# squares in K


def sqrt_in_K(x: FieldElement):
    """The root (U + V*sqrt(m))/c of x = (X + Y*sqrt(m))/c in O_K with
    U > 0, or U = 0 <= V; None when x is not a square (c = 2 if m = 1 mod 4,
    else 1). Squaring gives U^2 + m*V^2 = c*X and 2*U*V = c*Y, so with
    n^2 = X^2 - m*Y^2, U^2 = c*(X +- n)/2, and V = c*Y/(2*U), or V^2 = c*X/m
    when U = 0: exact integer roots and quotients, since a root in K is
    integral."""
    K = x.field
    X, Y = K._xy(x)
    c = 2 if K._half_basis else 1
    n = _isqrt_exact(X * X - K.m * Y * Y)
    if n is None:
        return None
    for s in (n, -n):
        t, odd = divmod(c * (X + s), 2)
        U = None if odd else _isqrt_exact(t)
        if U is None:
            continue
        if U:
            V, r = divmod(c * Y, 2 * U)
        else:
            V2, r = divmod(c * X, K.m)
            V = None if Y or r else _isqrt_exact(V2)
        if V is not None and not r:
            return K._from_xy(U, V)
    return None


def _isqrt_exact(n: int):
    """The square root of n when n is a perfect square, else None."""
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


def canonical_square_class(D: FieldElement) -> FieldElement:
    """Canonical representative of D modulo squares of K^*.

    From the factorisation, D = u * g * s^2: g is the canonical associate of
    the product of the primes with odd exponent, s the product of the rest
    at half their exponent, and the unit u = +-eps^k, the sign that of
    iota_0(u). The representative is +-eps^(k mod 2) * g: D divided by it is
    the square (eps^(k // 2) * s)^2, and no two of 1, -1, eps, -eps differ
    by a square.
    """
    K = D.field
    _, fac = factor_element(D)
    g = s = K.one()
    for pi, e in fac:
        if e % 2:
            g = g * pi
        s = s * pi ** (e // 2)
    g = K.canonical_associate(g)
    u = D / (g * s * s)
    k, one = K.unit_reduce(u)
    assert one == 1, f"not a unit: {u}"
    cls = K.eps * g if k % 2 else g
    return cls if u.sign(0) > 0 else -cls


# ---------------------------------------------------------------------------
# the order


@lru_cache(maxsize=None)
def _parity_basis(K: BaseField, dred4: tuple):
    """(rows2, bg, a0) for every Dred == dred4 mod 4: one table entry per
    field and residue class dred4 = (Dred.a mod 4, Dred.b mod 4), at most
    16 a field.

    The order is the integral span of (a + b s)/2, s = sqrt(Dred), over the
    parity classes a, b in {0, 1} + {0, 1}w with a^2 - b^2 Dred == 0 mod 4,
    and that condition reads Dred only mod 4 (Cohen, GTM 138, sec. 5.2, for
    the quadratic case). rows2 is the HNF of twice its coordinates over
    (1, w, s, w s); bg generates the ideal of s-coefficients and a0 is the
    parity class paired with it, so xi = (a0 + bg s)/2. The check that
    O = O_K + O_K xi runs here, once per entry. Everything returned is a
    tuple, since every order of the class shares it."""
    sols = []
    for a0, a1, b0, b1 in product((0, 1), repeat=4):
        aa, bb = kmul(K, (a0, a1), (a0, a1)), kmul(K, (b0, b1), (b0, b1))
        bbr = kmul(K, bb, dred4)
        if (aa[0] - bbr[0]) % 4 == 0 and (aa[1] - bbr[1]) % 4 == 0:
            sols.append(((a0, a1), (b0, b1)))
    # z-basis over (1, w, s, w s), scaled by 2 to integer rows
    rows = [[2, 0, 0, 0], [0, 0, 2, 0], [0, 2, 0, 0], [0, 0, 0, 2]]
    rows += [[a[0], a[1], b[0], b[1]] for a, b in sols]
    rows2 = tuple(tuple(row) for row in hnf(rows))
    # the ideal of sqrt coefficients and a module generator xi
    g = _ideal_generator(K, hnf_key([[2, 0], [0, 2]] + [list(b) for _, b in sols]))
    assert g is not None
    bg = (g.a, g.b)
    a0 = next((a for a, b in sols if (bg[0] - b[0]) % 2 == 0 and (bg[1] - b[1]) % 2 == 0), None)
    assert a0 is not None, "no parity class matches the coefficient ideal generator"
    # verify O = O_K + O_K xi as lattices
    wa, wb = kmul(K, (0, 1), a0), kmul(K, (0, 1), bg)
    xi_rows = [[2, 0, 0, 0], [0, 2, 0, 0], [a0[0], a0[1], bg[0], bg[1]], [wa[0], wa[1], wb[0], wb[1]]]
    assert hnf_key(xi_rows) == hnf_key(rows2), "order is not O_K[xi]"
    return rows2, bg, a0


@lru_cache(maxsize=None)
def _ideal_generator(K: BaseField, key: tuple):
    """A generator of the principal ideal of K with HNF key `key`, searched
    once per field and key: the residue classes of _parity_basis share their
    few coefficient ideals."""
    return K.principal_generator(key)


def _is_prime_ideal(p: IdealK, m: int) -> bool:
    """p is a prime ideal of Q(sqrt(m)): one of the prime ideals above the
    rational prime whose power its norm is."""
    fac = _factorint(p.norm)
    return (p.m == m and len(fac) == 1
            and [list(r) for r in p.rows] in [P for P, _ in _primes_above(make_field(m), *fac)])


@dataclass(frozen=True)
class LatticeSpec:
    """Arithmetic lattice data: finite ramification set and r_A = #Ram_inf.

    ram_f entries are distinct prime ideals of O_K (IdealK).
    """

    field_m: int
    ram_f: tuple = ()
    r_A: int = 0

    def __post_init__(self):
        if (len(self.ram_f) + self.r_A) % 2 != 0:
            raise ValueError("ramification set must have even size (finite + infinite)")
        if len({p.rows for p in self.ram_f}) != len(self.ram_f):
            raise ValueError("ramified finite primes must be distinct")
        for p in self.ram_f:
            if not _is_prime_ideal(p, self.field_m):
                raise ValueError(f"ramified finite prime {p} is not a prime ideal of "
                                 f"Q(sqrt({self.field_m}))")

    @staticmethod
    def hilbert(field: BaseField) -> "LatticeSpec":
        return LatticeSpec(field.m, (), 0)


class RelativeQuadraticOrder:
    """The order attached to (D, d || (D)), as a rank-4 lattice over Z."""

    def __init__(self, field: BaseField, D: FieldElement, d_ideal: IdealK,
                 f_ideal: IdealK | None = None):
        if field.h_K != 1:
            raise ScopeError("relative orders require h_K = 1")
        if D.a == 0 and D.b == 0:
            raise ValueError("D must be nonzero")
        # a nonzero square is totally positive: take the root only then
        if D.sign(0) > 0 and D.sign(1) > 0 and sqrt_in_K(D) is not None:
            raise ValueError("D must not be a square in K")
        self.field = field
        self.D = D
        self.d_ideal = d_ideal
        # the split (D) = d * f^2, f generating the square part: passed in by
        # callers that hold the split list, else looked up in it
        if f_ideal is None:
            f_ideal = next((ff for dd, ff in square_divisor_splits(D) if dd.rows == d_ideal.rows), None)
            if f_ideal is None:
                raise ValueError("d does not satisfy d || (D)")
        self.f_elt = f_ideal.generator(field)
        self.Dred = quotient(D, self.f_elt * self.f_elt)
        if self.Dred is None or ideal_of_element(self.Dred).rows != d_ideal.rows:
            raise ValueError("d does not satisfy d || (D) with the given f")
        self._canonicalize_dred()
        s0, s1 = self.Dred.sign(0), self.Dred.sign(1)
        if s0 > 0 and s1 < 0:
            self.signature = HYPERBOLIC_ELLIPTIC
        elif s0 < 0 and s1 < 0:
            self.signature = TOTALLY_ELLIPTIC
        else:
            self.signature = OTHER_SIGNATURE
        self._build_basis()

    def _canonicalize_dred(self):
        """Scale Dred by even unit powers into the |iota_0| window
        [sqrt|N|, sqrt|N| * iota_0(eps)^2); coordinates of isomorphic orders
        built from different traces then coincide (cache coherence).
        With Dred = +-eps^k * c, c canonical, that is Dred / eps^(2j) for
        j = k // 2, and f * eps^j keeps D = f^2 * Dred."""
        K = self.field
        j = K.unit_reduce(self.Dred)[0] // 2
        x, f = self.Dred / K.eps ** (2 * j), self.f_elt * K.eps ** j
        assert f * f * x == self.D
        self.Dred, self.f_elt = x, f

    # -- structure ---------------------------------------------------------
    def _build_basis(self):
        """O_K[xi] with xi = (xi_a + xi_b sqrt(Dred))/2, from the parity table.

        The Z-basis, xi_a and xi_b depend on Dred only through Dred mod 4
        (see _parity_basis), so they are read from the field's table entry
        for (Dred.a mod 4, Dred.b mod 4), whose O = O_K[xi] check ran when
        the entry was built. Only q and the realized discriminant are
        computed per order."""
        K = self.field
        Dr = (self.Dred.a, self.Dred.b)
        self._rows2, bg, a0 = _parity_basis(K, (Dr[0] % 4, Dr[1] % 4))
        self.xi_a = K.elt(*a0)  # xi = (xi_a + xi_b * sqrt(Dred)) / 2
        self.xi_b = K.elt(*bg)
        # xi^2 = p xi + q, with p and q in O_K kept as integer pairs:
        # q = (bg^2 Dred - a0^2) / 4, and (xi - conj xi)^2 = bg^2 Dred
        disc = kmul(K, kmul(K, bg, bg), Dr)
        aa = kmul(K, a0, a0)
        q0, q1 = disc[0] - aa[0], disc[1] - aa[1]
        assert q0 % 4 == 0 and q1 % 4 == 0
        self.p_coef, self.q_coef = a0, (q0 // 4, q1 // 4)
        self.realized_disc = ideal_of_element(K.elt(*disc))
        self.realizable = self.realized_disc.rows == self.d_ideal.rows

    # -- element helpers: u + v xi, u and v in O_K, as the integer 4-tuple
    # (u_a, u_b, v_a, v_b) over the Z-basis (1, w, xi, w xi) -- the
    # coordinates of a lattice row and of the cached eps_rel
    def mul(self, x, y):
        """x * y for order elements."""
        K = self.field
        u1, v1, u2, v2 = x[:2], x[2:], y[:2], y[2:]
        vv = kmul(K, v1, v2)
        u = _kadd(kmul(K, u1, u2), kmul(K, vv, self.q_coef))
        v = _kadd(_kadd(kmul(K, u1, v2), kmul(K, u2, v1)), kmul(K, vv, self.p_coef))
        return u + v

    def rel_conj(self, x):
        return _kadd(x[:2], kmul(self.field, x[2:], self.p_coef)) + (-x[2], -x[3])

    def _rel_norm_pair(self, x):
        """u^2 + p*u*v - q*v^2 = u*(u + p*v) - q*v^2, as an integer pair."""
        K = self.field
        u, v = x[:2], x[2:]
        a, b = kmul(K, u, _kadd(u, kmul(K, self.p_coef, v)))
        c, d = kmul(K, self.q_coef, kmul(K, v, v))
        return (a - c, b - d)

    def rel_norm(self, x) -> FieldElement:
        return self.field.elt(*self._rel_norm_pair(x))

    def abs_norm_int(self, x) -> int:
        """N_{L/Q} for integer xi-coordinates (hot loops; exact ints)."""
        return knorm(self.field, self._rel_norm_pair(x))

    def rel_trace(self, x) -> FieldElement:
        u = x[:2]
        return self.field.elt(*_kadd(u, _kadd(u, kmul(self.field, self.p_coef, x[2:]))))

    def one(self):
        return (1, 0, 0, 0)

    def from_sqrt_form(self, a: FieldElement, b: FieldElement):
        """Element (a + b sqrt(Dred))/2 in xi coordinates, or None if not in O."""
        # (a + b r)/2 = u + v xi with v = b/xi_b, u = (a - v xi_a)/2
        v = quotient(b, self.xi_b)
        u = None if v is None else quotient(a - v * self.xi_a, 2)
        if u is None:
            return None
        return (u.a, u.b, v.a, v.b)

    def to_sqrt_form(self, x):
        """(a, b) field elements with x = (a + b sqrt(Dred))/2."""
        K = self.field
        vv = K.elt(*x[2:])
        b = vv * self.xi_b
        a = 2 * K.elt(*x[:2]) + vv * self.xi_a
        return a, b

    def disc_z(self) -> int:
        g = self.realized_disc
        return self.field.disc ** 2 * g.norm

    def embeddings(self, x):
        """Complex embeddings of x at the two extensions of each place."""
        a, b = self.to_sqrt_form(x)
        out = []
        for place in (0, 1):
            av = a.approx(place)
            bv = b.approx(place)
            dv = self.Dred.approx(place)
            if dv >= 0:
                rr = math.sqrt(dv)
                out.append(((av + bv * rr) / 2, (av - bv * rr) / 2))
            else:
                rr = math.sqrt(-dv)
                out.append(complex(av / 2, bv * rr / 2))
        return out

    def cache_key(self) -> tuple:
        canD = canonical_square_class(self.D)
        return (self.field.m, format_element(canD), tuple(self.d_ideal.rows))

    def __repr__(self):
        return (
            f"<order D={format_element(self.D)} d={list(map(list, self.d_ideal.rows))} "
            f"{self.signature}{'' if self.realizable else ' (non-realizable)'}>"
        )


def _kadd(x, y):
    return (x[0] + y[0], x[1] + y[1])


def build_order(field: BaseField, D: FieldElement, d_ideal: IdealK,
                f_ideal: IdealK | None = None) -> RelativeQuadraticOrder:
    """Order for the split (D) = d * f^2; see RelativeQuadraticOrder. Without
    f_ideal, f is looked up in square_divisor_splits(D)."""
    return RelativeQuadraticOrder(field, D, d_ideal, f_ideal)


# ---------------------------------------------------------------------------
# units


def relative_fundamental_unit(order: RelativeQuadraticOrder, iota0_cap: float = 1e9):
    """Fundamental relative-norm-one unit: minimal iota_0 > 1.

    Scans relative traces a in O_K ordered by iota_0(a) in (2, T], testing
    exactly whether (a^2-4)/Dred is a square b^2 with (a+b sqrt(Dred))/2 in
    the order. The first hit is fundamental because iota_0 of the unit is
    monotone in iota_0 of its relative trace. When T doubles, only the
    traces above the previous T are new.
    Returns (eps in xi-coords, regulator, torsion).
    """
    if order.signature != HYPERBOLIC_ELLIPTIC:
        raise ValueError("relative fundamental unit needs hyperbolic-elliptic signature")
    K = order.field
    T, T_prev = 8.0, None
    while T <= 4 * iota0_cap:
        cands = _trace_candidates(K, T, T_prev)
        for a in cands:
            # a root b in K is integral, so a kappa outside O_K has none
            kappa = quotient(a * a - 4, order.Dred)
            b = None if kappa is None else sqrt_in_K(kappa)
            if b is None:
                continue
            x = order.from_sqrt_form(a, b)
            if x is None:
                x = order.from_sqrt_form(a, -b)
            if x is None:
                continue
            assert order.rel_norm(x) == 1
            rho = order.embeddings(x)[0]
            iota0 = max(abs(rho[0]), abs(rho[1]))
            reg = math.log(iota0)
            return x, reg, 2
        T, T_prev = 2 * T, T
    raise SearchExhausted(f"no relative unit below iota_0 trace bound {T}")


def _trace_candidates(K: BaseField, T: float, T_prev: float | None = None):
    """Elements a of O_K with 2 < iota_0(a) <= T and |iota_1(a)| < 2, ordered
    by (iota_0, a, b): the part of BaseField.trace_strip(T) above 2 (an exact
    sign); with T_prev, only those whose iota_0 is above T_prev."""
    lo = -math.inf if T_prev is None else T_prev + 1e-9
    return [x for x in K.trace_strip(T) if (x - 2).sign(0) > 0 and lo < x.approx(0) <= T + 1e-9]


_STD_ROWS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def norm_one_group_size(order: RelativeQuadraticOrder) -> int:
    """#O^1 for totally-elliptic (finite) orders, exact."""
    if order.signature != TOTALLY_ELLIPTIC:
        raise ValueError("finite norm-one group needs totally-elliptic signature")
    # rel_norm(x) = 1 forces |x| = 1 at both complex places, so the unit box
    # (padded by _covering_box) holds every such x; the tests are exact
    box = _covering_box(_STD_ROWS, [_flat_embedding(order, r) for r in _STD_ROWS], [0.0, 0.0], False)
    found = _cell_scan(order, box, 1, 1, 6_000_000)
    # _cell_scan keeps one of each +-x, and x -> -x has no fixed point on O^1
    return 2 * sum(1 for x in found if order.rel_norm(x) == 1)


def _flat_embedding(order, x):
    """Four real embedding coordinates of x (complex places flattened)."""
    out = []
    for e in order.embeddings(x):
        if isinstance(e, tuple):
            out.extend([e[0], e[1]])
        else:
            out.extend([e.real, e.imag])
    return out


# ---------------------------------------------------------------------------
# enumeration modulo units (the engine behind class and unit searches)


def _log_vector(order, x):
    """Reduced log embedding: (log|rho1|, log|rho2|, 2 log|rho3|) for the
    hyperbolic-elliptic signature, (2 log|rho1|, 2 log|rho2|) for CM."""
    es = order.embeddings(x)
    logs = []
    for e in es:
        if isinstance(e, tuple):
            logs.extend([math.log(abs(e[0])), math.log(abs(e[1]))])
        else:
            logs.append(2 * math.log(abs(e)))
    return logs


def _balanced_logs(tau: float, is_he: bool):
    # point on the |N| = e^tau shell with balanced coordinates
    if is_he:
        return [tau / 4, tau / 4, tau / 2]
    return [tau / 2, tau / 2]


# largest step along a unit log vector between unit-cell corners
_CELL = 0.7
# relative padding of the embedding box that _cell_scan covers
_PAD = 1.08
# a block of unit cells whose covering box holds more points is split
_BLOCK_POINTS = 5_000


def _lll_rows_metric(rows, vecs):
    """Unimodular reduction of integer rows w.r.t. given embedding vectors.

    Incremental floating-point LLL with delta = 0.99 (Cohen, A Course in
    Computational Algebraic Number Theory, Alg. 2.6.3): the Gram-Schmidt
    coefficients mu and the squared lengths |b*|^2 are computed once and
    updated after each size reduction and swap. The lattice is unchanged,
    only its basis. Returns (reduced integer rows, reduced embedding vectors,
    mu, |b*|^2): mu[i][j] (j < i) is the Gram-Schmidt coefficient of vector i
    on b*_j, and |b*|^2 the squared Gram-Schmidt lengths, of the reduced
    vectors.
    """
    B = [list(map(int, r)) for r in rows]
    V = [[float(t) for t in v] for v in vecs]
    n = len(B)
    delta = 0.99
    mu = [[0.0] * n for _ in range(n)]
    bb = [0.0] * n
    star = []
    for i in range(n):
        v = V[i]
        for j in range(i):
            if bb[j] > 0:
                mu[i][j] = sum(a * b for a, b in zip(V[i], star[j])) / bb[j]
            v = [a - mu[i][j] * b for a, b in zip(v, star[j])]
        star.append(v)
        bb[i] = sum(a * a for a in v)

    def reduce(k, j):
        q = round(mu[k][j])
        if q:
            B[k] = [a - q * b for a, b in zip(B[k], B[j])]
            V[k] = [a - q * b for a, b in zip(V[k], V[j])]
            mu[k][j] -= q
            for i in range(j):
                mu[k][i] -= q * mu[j][i]

    k = 1
    guard = 0
    while k < n and guard < 2000:
        guard += 1
        reduce(k, k - 1)
        m = mu[k][k - 1]
        if bb[k] >= (delta - m * m) * bb[k - 1]:
            for j in range(k - 2, -1, -1):
                reduce(k, j)
            k += 1
            continue
        b_new = bb[k] + m * m * bb[k - 1]
        if b_new <= 0:
            raise Inconclusive("degenerate lattice embedding")
        B[k], B[k - 1] = B[k - 1], B[k]
        V[k], V[k - 1] = V[k - 1], V[k]
        for j in range(k - 1):
            mu[k][j], mu[k - 1][j] = mu[k - 1][j], mu[k][j]
        mu[k][k - 1] = m * bb[k - 1] / b_new
        bb[k] = bb[k - 1] * bb[k] / b_new
        bb[k - 1] = b_new
        for i in range(k + 1, n):
            t = mu[i][k]
            mu[i][k] = mu[i][k - 1] - m * t
            mu[i][k - 1] = t + mu[k][k - 1] * mu[i][k]
        k = max(k - 1, 1)
    return B, V, mu, bb


def enumerate_mod_units(order, basis_rows, norm_min: int, norm_max, units,
                        budget: int = 6_000_000):
    """Integer-coordinate lattice elements x (rows over the order Z-basis)
    with norm_min <= |N(x)| <= norm_max, at least one per orbit of x under
    the units and -1.

    The coefficients along the unit log vectors in [0, 1) are tiled into unit
    cells, steps of at most _CELL. Any lattice element in the norm window has
    a unit multiple inside some cell. A block of cells (a rectangle of cell
    indices) takes as its upper bound per log coordinate, at the top norm
    level log(norm_max), the maximum over its corners; balanced logs grow
    with the norm level, so the padded coordinate box of those bounds holds
    every element of the block whose norm is at most norm_max. The scan
    starts from one block of all cells. A block of more than one cell whose
    box holds more than min(_BLOCK_POINTS, budget) points is halved along
    its widest index axis; any other block is scanned exhaustively with
    exact norm checks, in the box computed for that split test. A single
    cell is never split, so budget keeps its meaning: Inconclusive is raised
    exactly when some cell that the split reaches has a box of more than
    budget points, and _BLOCK_POINTS = 0 scans every cell on its own.
    """
    if norm_max < norm_min:
        return []
    if norm_min < 1:
        raise ValueError("integral lattices only: norm_min >= 1")
    emb_rows = [_flat_embedding(order, r) for r in basis_rows]
    unit_logs = [_log_vector(order, u) for u in units]
    is_he = order.signature == HYPERBOLIC_ELLIPTIC
    base = _balanced_logs(math.log(float(norm_max)) + 1e-9, is_he)
    s_steps = [max(1, math.ceil(math.sqrt(sum(v * v for v in ul)) / _CELL)) for ul in unit_logs]

    results = []
    seen = set()
    blocks = [[(0, k) for k in s_steps]]
    while blocks:
        block = blocks.pop()
        # upper bound per log coordinate over the block: the maximum over its
        # corners, taken axis by axis since the log vector is linear in them
        uppers = [b + sum(max(lo * ul[j], hi * ul[j]) / k
                          for (lo, hi), k, ul in zip(block, s_steps, unit_logs))
                  for j, b in enumerate(base)]
        spans = [hi - lo for lo, hi in block]
        i = spans.index(max(spans))
        box = _covering_box(basis_rows, emb_rows, uppers, is_he)
        if spans[i] > 1 and box[4] > min(_BLOCK_POINTS, budget):
            lo, hi = block[i]
            mid = (lo + hi) // 2
            blocks += [block[:i] + [(mid, hi)] + block[i + 1:],
                       block[:i] + [(lo, mid)] + block[i + 1:]]
            continue
        for x in _cell_scan(order, box, norm_min, norm_max, budget):
            if x in seen:
                continue
            seen.add(x)
            results.append(x)
    return results


def _covering_box(basis_rows, emb_rows, uppers, is_he):
    """The padded embedding box {|emb_i| <= lims_i} of the log upper bounds,
    and a coordinate box covering it. The basis is LLL-reduced in the metric
    scaled by the half-widths lims, so the covering box stays small even for
    very lopsided cells. Returns (reduced rows, their scaled embeddings S,
    the scale 1/lims, the half-widths ks of the covering box, its number of
    points, and the reduction's Gram-Schmidt data mu and |b*|^2): every
    lattice point in the embedding box has reduced coordinates |c_i| <= ks_i."""
    if is_he:
        halves = [uppers[0], uppers[1], 0.5 * uppers[2], 0.5 * uppers[2]]
    else:
        halves = [0.5 * uppers[0], 0.5 * uppers[0], 0.5 * uppers[1], 0.5 * uppers[1]]
    scale = [1.0 / (math.exp(h) * _PAD) for h in halves]
    scaled = [[e * f for e, f in zip(v, scale)] for v in emb_rows]
    red_rows, S, mu, bb = _lll_rows_metric(basis_rows, scaled)  # rows of S: scaled embeddings
    # max over the corners c of the unit cube of |((S^T)^-1 c)_i| is the l1 norm of row i
    ks = [int(sum(abs(a) for a in row) + 1) for row in _inverse(list(zip(*S)))]
    return red_rows, S, scale, ks, math.prod(2 * k + 1 for k in ks), mu, bb


def _inverse(M):
    """Inverse of a small float matrix by Gauss-Jordan elimination with
    partial pivoting; an exactly singular one is a degenerate embedding."""
    n = len(M)
    A = [[float(a) for a in row] + [float(i == j) for j in range(n)] for i, row in enumerate(M)]
    for col in range(n):
        p = max(range(col, n), key=lambda r: abs(A[r][col]))
        if A[p][col] == 0.0:
            raise Inconclusive("degenerate lattice embedding")
        A[col], A[p] = A[p], A[col]
        piv = A[col][col]
        A[col] = [a / piv for a in A[col]]
        for r in range(n):
            f = A[r][col]
            if r != col and f:
                A[r] = [a - f * b for a, b in zip(A[r], A[col])]
    return [row[n:] for row in A]


def _ball_range(center, rem, b, lo, hi):
    """The integers c in [lo, hi] with b * (c - center)^2 <= rem."""
    if rem < 0:
        return range(0)
    w = math.sqrt(rem / b)
    return range(max(lo, math.ceil(center - w)), min(hi, math.floor(center + w)) + 1)


def _cell_scan(order, box, nmin, nmax, budget):
    """Exact lattice points x in the padded embedding box of a _covering_box
    result with nmin <= |N(x)| <= nmax, one of each pair +-x: the one whose
    first nonzero xi-coordinate is positive. The choice is made on the
    xi-coordinates, not on the reduced ones, so the set returned does not
    depend on the LLL basis.

    A triangular descent (Fincke-Pohst; Cohen, GTM 138, Alg. 2.7.5) over the
    reduced coordinates c: the box |v_j| <= t of scaled embeddings
    v = sum c_i S_i, t = 1 + 1e-9, lies in the ball |v| <= 2t, which bounds
    c3, c2 and c1 in turn through the Gram-Schmidt data of the reduction;
    c0 then runs over the intersection of the four slabs |v_j| <= t. So the
    leaves are lattice points of the box, and nothing else. A point the
    covering needs lies in the unpadded box, |v_j| <= 1/_PAD, hence within
    radius 2/_PAD < 2 and strictly inside every slab: float rounding in the
    bounds cannot drop it. Every bound and the float norm are odd or even
    in c bit for bit, so the descent walks only the half of the box whose
    last nonzero c is positive, and turns each x it keeps to the sign the
    xi-coordinates choose.
    """
    red_rows, S, scale, ks, total, mu, bb = box
    if total > budget:
        raise Inconclusive(f"enumeration box too large ({total} points)")
    t = 1.0 + 1e-9
    he = order.signature == HYPERBOLIC_ELLIPTIC
    lo_norm, hi_norm = nmin * 0.98 - 0.5, nmax * 1.02 + 0.5
    S0, S1, S2, S3 = S
    s0, s1, s2, s3 = S0
    f0, f1, f2, f3 = scale
    k0, k1, k2, k3 = ks
    ceil, floor = math.ceil, math.floor
    out = []
    r3 = 4 * t * t
    for c3 in _ball_range(0.0, r3, bb[3], 0, k3):
        r2 = r3 - bb[3] * c3 * c3
        m2 = -mu[3][2] * c3
        for c2 in _ball_range(m2, r2, bb[2], -k2 if c3 else 0, k2):
            r1 = r2 - bb[2] * (c2 - m2) ** 2
            m1 = -(mu[2][1] * c2 + mu[3][1] * c3)
            p = [c2 * a + c3 * b for a, b in zip(S2, S3)]
            for c1 in _ball_range(m1, r1, bb[1], -k1 if c3 or c2 else 0, k1):
                v0, v1, v2, v3 = v = [c1 * a + b for a, b in zip(S1, p)]
                lo, hi = -k0 if c3 or c2 or c1 else 1, k0
                for s, vj in zip(S0, v):
                    if s > 0:
                        a, b = ceil((-t - vj) / s), floor((t - vj) / s)
                    elif s < 0:
                        a, b = ceil((t - vj) / s), floor((-t - vj) / s)
                    else:  # the slab does not depend on c0
                        a, b = (lo, hi) if abs(vj) <= t else (1, 0)
                    if a > lo:
                        lo = a
                    if b < hi:
                        hi = b
                for c0 in range(lo, hi + 1):
                    e0, e1 = (v0 + c0 * s0) / f0, (v1 + c0 * s1) / f1
                    e2, e3 = (v2 + c0 * s2) / f2, (v3 + c0 * s3) / f3
                    q = e2 * e2 + e3 * e3
                    nrm = abs(e0 * e1) * q if he else (e0 * e0 + e1 * e1) * q
                    if not lo_norm <= nrm <= hi_norm:
                        continue
                    x = _coords_to_elt((c0, c1, c2, c3), red_rows)
                    # c != 0, so x != 0: keep the sign with first nonzero xi-coordinate positive
                    if next(c for c in x if c) < 0:
                        x = tuple(-c for c in x)
                    exact = abs(order.abs_norm_int(x))
                    if nmin <= exact <= nmax:
                        out.append(x)
    return out


def _coords_to_elt(coords, basis_rows):
    acc = [0, 0, 0, 0]
    for c, row in zip(coords, basis_rows):
        if c:
            for i in range(4):
                acc[i] += c * row[i]
    return tuple(acc)


# ---------------------------------------------------------------------------
# ideals of the order


def _ideal_lattice_rows(order, a, b):
    """Z^4 rows (over basis (1,w,xi,w xi)) of O_K a + O_K (b + xi), for
    integer pairs a and b."""
    ra, raw, rb, rbw = k_module_rows(order.field, [a, b])
    return hnf([ra + [0, 0], raw + [0, 0], rb + [1, 0], rbw + [0, 1]])


def primitive_proper_ideals(order, bound: int):
    """Primitive proper ideals of norm <= bound, deduplicated by lattice.

    An ideal O_K a + O_K (b + xi) is an ideal iff a | b^2 + p b - q, and is
    proper iff gcd(a, 2b + p, (b^2+pb-q)/a) is a unit (the primitivity of the
    attached quadratic form). Returns dict key -> (a, b, norm).
    """
    K = order.field
    out = {}
    pi, qi = order.p_coef, order.q_coef
    by_norm = K.elements_up_to_norm(bound)
    gens = [(1, [K.one()])] + sorted((n, lst) for n, lst in by_norm.items() if n > 1)
    for na, lst in gens:
        for a in lst:
            ai = (a.a, a.b)
            (h00, _), (_, h11) = ideal_of_element(a).rows
            for i in range(h00):
                for j in range(h11):
                    bi = (i, j)
                    g = kmul(K, bi, (i + pi[0], j + pi[1]))  # b^2 + p b
                    g = (g[0] - qi[0], g[1] - qi[1])
                    # a | g, with the integer quotient g/a
                    quo = kdiv_exact(K, g, ai)
                    if quo is None:
                        continue
                    two_b_p = (2 * i + pi[0], 2 * j + pi[1])
                    if not _gcd_is_unit_int(K, [ai, two_b_p, quo]):
                        continue
                    rows = _ideal_lattice_rows(order, ai, bi)
                    key = tuple(tuple(r) for r in rows)
                    if key not in out:
                        out[key] = (a, K.elt(i, j), na)
    return out


def _gcd_is_unit_int(K: BaseField, elts) -> bool:
    return hnf_key(k_module_rows(K, elts)) == ((1, 0), (0, 1))


def _inverse_lattice(order, rows, a):
    """(HNF of the lattice of x with x * J subseteq n * O, n) for the
    primitive proper ideal J = O_K a + O_K (b + xi) with Z-rows `rows`.

    J * conj(J) = a * O (Cohen, GTM 138, sec. 5.2), and n = [O:J] = |N(a)|
    = +-a * a^sigma, so the lattice is n * J^{-1} = a^sigma * conj(J): the
    relative conjugates of a^sigma times the rows of J. The asserts check
    that it multiplies J into n * O and has index n^3 in O. J is proper,
    hence invertible, so n * (O : J) = n * J^{-1} has index n^3 too, and the
    two lattices are equal.
    """
    n = pivot_product(rows)
    c = a.conj()
    inv = hnf([order.rel_conj(order.mul((c.a, c.b, 0, 0), r)) for r in rows])
    assert pivot_product(inv) == n ** 3, "inverse lattice has the wrong index"
    assert all(e % n == 0 for x in inv for r in rows for e in order.mul(x, r)), \
        "inverse lattice does not multiply J into n * O"
    return inv, n


def _scale_rows(order, rows, x):
    """Rows spanning the lattice x * L (not in HNF); a row is an element."""
    return [list(order.mul(x, r)) for r in rows]


@dataclass
class ClassNumberResult:
    h: int
    certified: bool
    bound: int
    bound2: int | None = None
    reason: str = ""


def class_number(order: RelativeQuadraticOrder, units, bound_scale: float = 1.0,
                 budget: int = 6_000_000) -> ClassNumberResult:
    """Proper-ideal class number by exhaustive enumeration and merging.

    units: list of fundamental units of the order in xi-coords (from
    relative_fundamental_unit and the base field unit); used only to bound
    the generator search, never to assert structure.

    The count h1 at the Minkowski-type bound B is certified by an equal
    count h2 at 2B. Both counts share one enumeration: the primitive proper
    ideals are listed once up to 2B (those of norm <= B are the bound-B
    candidates), and the generator search of each seed runs once, at 2B,
    memoised for this call only; its bound-B class set is read off the same
    list (see _class_set). A seed whose 2B box exceeds budget falls back to
    its own search at B, so the result, reason included, is the one two
    separate passes would give.
    """
    B = max(2, int(_MINK[order.signature] * math.sqrt(order.disc_z()) * bound_scale) + 1)
    cands = primitive_proper_ideals(order, 2 * B)
    searches: dict = {}
    try:
        h1 = _class_count_at(order, units, B, {k: v for k, v in cands.items() if v[2] <= B},
                             2 * B, searches, budget)
    except Inconclusive as e:
        return ClassNumberResult(0, False, B, None, str(e))
    try:
        h2 = _class_count_at(order, units, 2 * B, cands, 2 * B, searches, budget)
    except Inconclusive as e:
        return ClassNumberResult(h1, False, B, 2 * B, f"2x bound inconclusive: {e}")
    if h1 != h2:
        return ClassNumberResult(h2, False, B, 2 * B, f"unstable: h({B})={h1} h({2*B})={h2}")
    return ClassNumberResult(h1, True, B, 2 * B)


def _class_count_at(order, units, B: int, cands, top: int, searches: dict,
                    budget: int = 6_000_000) -> int:
    """Number of classes among the candidates (primitive proper ideals of
    norm <= B, as primitive_proper_ideals returns them), merging each
    unclassified seed with its class set; the generator searches run at
    bound `top` and are shared through `searches` (see _class_set)."""
    keys = set(cands.keys())
    classified: dict = {}
    n_classes = 0
    for key in sorted(keys, key=lambda k: (pivot_product(k), k)):
        if key in classified:
            continue
        n_classes += 1
        rset = _class_set(order, units, key, cands[key][0], B, keys, top, searches, budget)
        if key not in rset:
            raise Inconclusive("class set does not contain its own seed")
        for k2 in rset:
            if k2 in classified and classified[k2] != n_classes:
                raise Inconclusive("overlapping class sets: covering failure")
            classified[k2] = n_classes
    if set(classified.keys()) != keys:
        raise Inconclusive("class sets do not cover all candidates")
    return n_classes


def _class_set(order, units, key, a, B: int, restrict_to, top: int, searches: dict,
               budget: int = 6_000_000):
    """The keys in `restrict_to` of the ideals equivalent to the ideal `key` =
    J = O_K a + O_K (b + xi), read off the generator search of J (see
    _generator_keys).

    The search runs once per seed, at bound `top` >= B (2B in class_number),
    and is shared through `searches`. It reaches every integral I ~ J of norm
    <= top, so every candidate of norm <= B; intersecting with `restrict_to`
    (the candidates of norm <= B) drops the ideals of larger norm and the
    non-primitive ones. If the top search is inconclusive (its box exceeds
    budget), the seed is searched at B itself.
    """
    for bound in (top, B) if top > B else (top,):
        if (key, bound) not in searches:
            try:
                searches[key, bound] = _generator_keys(order, units, key, a, bound, budget)
            except Inconclusive as e:
                searches[key, bound] = e
        got = searches[key, bound]
        if not isinstance(got, Inconclusive):
            return got & restrict_to
    raise got


def _generator_keys(order, units, key, a, bound: int, budget: int) -> set:
    """Keys HNF(y*J)/n of the integral ideals y*J/n, over the y with |N(y)| in
    [n^3, bound*n^3] found modulo units (J = key = O_K a + O_K (b + xi),
    n = [O:J]).

    The y run over n * J^{-1} (see _inverse_lattice), so y*J lies in n*O and
    the division is exact. J is proper, hence invertible, so every integral
    I ~ J is lam*J with lam in J^{-1}; y = n*lam then has |N(y)| = n^3 [O:I],
    and a unit multiple of y gives the same y*J. So every I ~ J of norm
    <= bound is reached as y*J/n itself, with no K-content to take.
    """
    rows = [list(r) for r in key]
    inv_rows, n = _inverse_lattice(order, rows, a)
    return {tuple(tuple(e // n for e in r) for r in hnf(_scale_rows(order, rows, y)))
            for y in enumerate_mod_units(order, inv_rows, n ** 3, bound * n ** 3, units,
                                         budget=budget)}


# ---------------------------------------------------------------------------
# unit norm index and embedding counts


def unit_norm_index(order: RelativeQuadraticOrder, eps_rel, budget: int = 6_000_000):
    """[O_K^* : n_rel(O^*)] in {1, 2, 4}, or UNKNOWN on budget exhaustion.

    Enumerates unit representatives modulo the subgroup generated by the
    base unit and the relative unit, takes relative norms, and measures the
    subgroup of O_K^*/(O_K^*)^2 they generate. Every coset of that subgroup
    in O^* contains a representative inside its log-fundamental domain, so
    the norm subgroup found is the full one.
    """
    K = order.field
    eps_base = _base_unit(order)
    units = [eps_base, eps_rel] if eps_rel is not None else [eps_base]
    try:
        found = enumerate_mod_units(order, _STD_ROWS, 1, 1, units, budget=budget)
    except Inconclusive:
        return UNKNOWN
    hits = set()
    for x in found:
        nr = order.rel_norm(x)
        if not nr.is_unit():
            continue
        hits.add(_unit_square_class(K, nr))
    sub = _generated_subgroup(hits)
    return 4 // len(sub)


def _unit_square_class(K: BaseField, u: FieldElement) -> tuple:
    """Class of the unit u in O_K^*/(O_K^*)^2, encoded as (sign, eps-parity):
    u = +-eps^k, the sign that of iota_0(u)."""
    k, c = K.unit_reduce(u)
    assert c == 1, f"unit reduction failed: {u}"
    return (u.sign(0), k % 2)


def _generated_subgroup(hits: set) -> set:
    sub = {(1, 0)}
    frontier = list(hits)
    while frontier:
        g = frontier.pop()
        for s in list(sub):
            prod_ = (g[0] * s[0], (g[1] + s[1]) % 2)
            if prod_ not in sub:
                sub.add(prod_)
                frontier.append(prod_)
    return sub


def local_splitting(field: BaseField, p_gen: FieldElement, Dred: FieldElement) -> str:
    """Splitting of the prime (p_gen) in K(sqrt(Dred)): split/inert/ramified."""
    v, u0 = valuation(Dred, p_gen)
    if v % 2 == 1:
        return "ramified"
    np_ = abs(p_gen.norm())
    if np_ % 2 == 1:
        if _is_residue_square(field, p_gen, u0):
            return "split"
        return "inert"
    # dyadic prime: square tests modulo pi^(2e) and pi^(2e+1)
    e, _ = valuation(field.elt(2), p_gen)
    if _square_mod_pi_power(field, p_gen, u0, 2 * e + 1):
        return "split"
    if _square_mod_pi_power(field, p_gen, u0, 2 * e):
        return "inert"
    return "ramified"


def _is_residue_square(field: BaseField, p_gen: FieldElement, u: FieldElement) -> bool:
    """Whether the integral u is a square mod the odd prime (p_gen), by
    Euler's criterion u^((n-1)/2) = 1 in the residue field of n = N(p)
    elements. n lies in p, so the powers are reduced mod n coordinatewise."""
    n = abs(p_gen.norm())
    ip = ideal_of_element(p_gen)
    if ip.contains(u):
        raise ValueError("unit part reduced to zero mod p")
    r, base, e = (1, 0), (u.a % n, u.b % n), (n - 1) // 2
    while e:
        if e & 1:
            r = tuple(c % n for c in kmul(field, r, base))
        base = tuple(c % n for c in kmul(field, base, base))
        e >>= 1
    return ip.contains(field.elt(r[0] - 1, r[1]))


def _square_mod_pi_power(field: BaseField, p_gen: FieldElement, u: FieldElement, k: int) -> bool:
    if k == 0:
        return True
    pk = p_gen ** k
    ipk = ideal_of_element(pk)
    (p, q), (z, r) = ipk.rows
    for i in range(p):
        for j in range(r):
            x = field.elt(i, j)
            if ipk.contains(x * x - u):
                return True
    return False


def local_embedding_factor(order: RelativeQuadraticOrder, p: IdealK, spec: LatticeSpec) -> int:
    """Local optimal-embedding count at a finite ramified place: 0, 1, or 2."""
    K = order.field
    p_gen = p.generator(K)
    if not _maximal_at(order, p_gen):
        return 0
    s = local_splitting(K, p_gen, order.Dred)
    if s == "split":
        return 0
    return 1 if s == "ramified" else 2


def _maximal_at(order: RelativeQuadraticOrder, p_gen: FieldElement) -> bool:
    """Is the order maximal at (p_gen)? Compared against the relative
    discriminant of the maximal order of its field K(sqrt D)."""
    dmax = maximal_order_disc(order.field, order.D)
    return _val_at(order.field, order.realized_disc, p_gen) == _val_at(order.field, dmax, p_gen)


def _val_at(field: BaseField, ideal: IdealK, p_gen: FieldElement) -> int:
    return valuation(ideal.generator(field), p_gen)[0]


_MAXDISC_CACHE: dict = {}


def maximal_order_disc(field: BaseField, D: FieldElement) -> IdealK:
    """Relative discriminant of the maximal order of K(sqrt D), for any D of
    its square class.

    With D0 = canonical_square_class(D), O_K[sqrt D0] has discriminant 4*D0,
    so the maximal order's discriminant d_L divides 4*D0 with a square
    quotient: it is the least realized discriminant among the realizable
    splits of 4*D0.
    """
    D0 = canonical_square_class(D)
    key = (field.m, format_element(D0))
    if key in _MAXDISC_CACHE:
        return _MAXDISC_CACHE[key]
    best = None
    for dd, ff in square_divisor_splits(4 * D0):
        o = RelativeQuadraticOrder(field, 4 * D0, dd, ff)
        if o.realizable and (best is None or o.realized_disc.norm < best.norm):
            best = o.realized_disc
    assert best is not None
    _MAXDISC_CACHE[key] = best
    return best


@dataclass(frozen=True)
class Multiplicity:
    """Embedding count, possibly an interval when inputs are uncertified."""

    lo: Fraction
    hi: Fraction
    certified: bool

    @property
    def value(self) -> Fraction:
        if self.lo != self.hi:
            raise Inconclusive("multiplicity is an interval")
        return self.lo

    def __add__(self, other):
        return Multiplicity(self.lo + other.lo, self.hi + other.hi, self.certified and other.certified)


def m1_from_data(h_O: int, h_K: int, unit_index, r_A: int, local_factors) -> Multiplicity:
    """Optimal-embedding count formula from its ingredients.

    m1 = (h_O / h_K) * unit_index * 2^(-r_A) * prod(local factors).
    unit_index may be UNKNOWN, in which case the result is the {1,..,4}
    interval, uncertified.
    """
    base = Fraction(h_O, h_K) * Fraction(1, 2 ** r_A)
    for lf in local_factors:
        base *= lf
    if unit_index == UNKNOWN:
        return Multiplicity(base * 1, base * 4, False)
    return Multiplicity(base * unit_index, base * unit_index, True)


def embedding_count(order: RelativeQuadraticOrder, spec: LatticeSpec, h_O: int,
                    unit_index, h_certified: bool = True) -> Multiplicity:
    """m1 for a built order against a lattice spec; 0 if non-realizable."""
    if not order.realizable:
        return Multiplicity(Fraction(0), Fraction(0), True)
    locs = [local_embedding_factor(order, p, spec) for p in spec.ram_f]
    m = m1_from_data(h_O, order.field.h_K, unit_index, spec.r_A, locs)
    if not h_certified:
        m = Multiplicity(m.lo, m.hi, False)
    return m


BOTH_ZERO = "BOTH_ZERO"


def correspondence_ratio(h_O: int, unit_index: int, local_factors, n: int):
    """Ratio of embedding counts between the unramified-at-infinity spec and
    its companion ramified at the n elliptic places; 2^n when nonzero.
    """
    if n % 2 != 0:
        raise ValueError("companion spec needs even n to keep the ramification set even")
    a = m1_from_data(h_O, 1, unit_index, 0, local_factors)
    b = m1_from_data(h_O, 1, unit_index, n, local_factors)
    if a.value == 0:
        return BOTH_ZERO
    return a.value / b.value


# ---------------------------------------------------------------------------
# order arithmetic bundle + cache


@dataclass
class OrderArithmetic:
    h_O: int
    reg: float
    eps_rel: tuple
    torsion: int
    unit_index: object
    certified: bool
    oracle_bounds: tuple
    reason: str = ""


class OrderCache:
    """Append-only JSON-lines cache of order arithmetic records (one writer).

    An unparsable unterminated last line (an interrupted append) is skipped
    with a warning and cut off by the next put; any other malformed line
    raises ValueError naming its line number.
    """

    def __init__(self, path: str | None):
        self.path = path
        self.mem: dict = {}
        self._tail = None  # unterminated last line: (offset to cut at, bytes to write first)
        if path and os.path.exists(path):
            with open(path, "rb") as fh:
                data = fh.read()
            lines = data.split(b"\n")
            for lineno, line in enumerate(lines, 1):
                if not line.strip():
                    continue
                try:
                    rec = json.loads(line)
                    self.mem[self._key(rec)] = rec
                except (ValueError, KeyError, TypeError) as e:
                    if lineno < len(lines):
                        raise ValueError(f"{path}, line {lineno}: malformed order cache record: {e}") from e
                    sys.stderr.write(f"warning: {path}, line {lineno}: skipped a truncated final record\n")
                    self._tail = (len(data) - len(line), b"")
            if lines[-1] and self._tail is None:
                self._tail = (len(data), b"\n")

    @staticmethod
    def _key(rec) -> tuple:
        return (rec["field_m"], rec["D"], tuple(tuple(r) for r in rec["d_hnf"]))

    def get(self, key):
        return self.mem.get(key)

    def put(self, key, rec):
        self.mem[key] = rec
        if self.path:
            with open(self.path, "ab") as fh:
                if self._tail is not None:
                    fh.truncate(self._tail[0])
                    fh.write(self._tail[1])
                    self._tail = None
                fh.write((json.dumps(rec, sort_keys=True) + "\n").encode())
                fh.flush()


def compute_arithmetic(order: RelativeQuadraticOrder, cache: OrderCache | None = None,
                       bound_scale: float = 1.0, budget: int = 6_000_000,
                       unit_height: float = 1e9) -> OrderArithmetic:
    """Class number, regulator, relative unit, torsion, unit index; cached."""
    key = order.cache_key()
    if cache is not None:
        rec = cache.get(key)
        if rec is not None:
            er = rec["eps_rel"]
            return OrderArithmetic(
                rec["h_O"], rec["reg"], tuple(er) if er else None, rec["torsion"],
                rec["unit_index"], rec["certified"], tuple(rec["oracle_bounds"]), rec.get("reason", ""),
            )
    if order.signature == HYPERBOLIC_ELLIPTIC:
        eps_rel, reg, torsion = relative_fundamental_unit(order, unit_height)
        units = [_base_unit(order), eps_rel]
    elif order.signature == TOTALLY_ELLIPTIC:
        eps_rel, reg = None, 0.0
        torsion = norm_one_group_size(order)
        units = [_base_unit(order)]
    else:
        raise ScopeError("class data is computed only for hyperbolic-elliptic and CM orders")
    try:
        cn = class_number(order, units, bound_scale, budget)
    except Inconclusive as e:
        cn = ClassNumberResult(0, False, 0, None, str(e))
    ui = unit_norm_index(order, eps_rel, budget)
    certified = cn.certified and ui != UNKNOWN
    arith = OrderArithmetic(cn.h, reg, eps_rel, torsion, ui, certified,
                            (cn.bound, cn.bound2 or 0), cn.reason)
    if cache is not None:
        cache.put(key, {"field_m": order.field.m, "D": key[1],
                        "d_hnf": [list(r) for r in order.d_ideal.rows], **asdict(arith)})
    return arith


def _base_unit(order):
    K = order.field
    return (K.eps.a, K.eps.b, 0, 0)
