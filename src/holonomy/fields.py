"""Exact arithmetic in the ring of integers O_K of K = Q(sqrt(m)).

An element is a + b*w with Python int coordinates over the integral
generator w (sqrt(m) for m = 2,3 mod 4, (1+sqrt(m))/2 for m = 1 mod 4).
Division is exact division in O_K: x / y raises ArithmeticError when y
does not divide x, and quotient(x, y) returns None instead. O_K is
integrally closed, so a square root or quotient that exists in K is
integral, and the program needs no rational element of K. Each formula
lives once, in the integer-pair helpers (kmul, knorm, kconj, kdiv_exact)
that the hot loops call directly. All order/sign decisions are made by
exact arithmetic, never by floats; every float of an element is read off
the integers (X, Y) of x = (X + Y*sqrt(m))/c by one integer division.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache

from .intlinalg import hnf, in_lattice, pivot_product


class ScopeError(ValueError):
    """Raised when an input is outside the desk scope (e.g. h_K > 1)."""


def _is_squarefree(n: int) -> bool:
    return all(e == 1 for e in _factorint(n).values())


def sign_p_q_sqrt(p, q, m: int) -> int:
    """Exact sign of p + q*sqrt(m) for integers p, q."""
    if q == 0:
        return 0 if p == 0 else (1 if p > 0 else -1)
    if p == 0:
        return 1 if q > 0 else -1
    if p > 0 and q > 0:
        return 1
    if p < 0 and q < 0:
        return -1
    # mixed signs: compare p^2 with q^2 m exactly
    cmp = p * p - q * q * m
    if cmp == 0:
        raise ArithmeticError("sqrt(m) rational; m not squarefree?")
    if p > 0:
        return 1 if cmp > 0 else -1
    return -1 if cmp > 0 else 1


# -- O_K arithmetic on integer pairs (a, b) = a + b*w, for the hot loops -------


def kmul(K: "BaseField", x, y):
    """x * y for integer pairs over (1, w)."""
    c0, c1 = K._w2  # w^2 = c0 + c1*w
    a, b = x
    c, d = y
    bd = b * d
    return (a * c + bd * c0, a * d + b * c + bd * c1)


def knorm(K: "BaseField", x) -> int:
    """N(x) = x * conj(x) for an integer pair over (1, w)."""
    c0, c1 = K._w2
    a, b = x
    return a * a + a * b * c1 - b * b * c0


def kconj(K: "BaseField", x):
    """The Galois conjugate of an integer pair: conj(w) = tr(w) - w."""
    return (x[0] + K._trace_w * x[1], -x[1])


def kdiv_exact(K: "BaseField", x, y):
    """x / y for integer pairs when the quotient is integral, via
    x * conj(y) / N(y); else None (also for y = 0)."""
    n = knorm(K, y)
    if n == 0:
        return None
    a, b = kmul(K, x, kconj(K, y))
    if a % n or b % n:
        return None
    return (a // n, b // n)


def k_module_rows(K: "BaseField", elts):
    """Integer rows x and x*w spanning the O_K-module generated by the pairs."""
    c0, c1 = K._w2
    rows = []
    for a, b in elts:
        rows.append([a, b])
        rows.append([c0 * b, a + c1 * b])
    return rows


class FieldElement:
    """Element a + b*w of O_K with Python int coordinates; any other
    coordinate type raises TypeError."""

    __slots__ = ("field", "a", "b")

    def __init__(self, field: "BaseField", a: int, b: int):
        if type(a) is not int or type(b) is not int:
            raise TypeError(f"coordinates ({a!r}, {b!r}) of an O_K element must be ints")
        self.field = field
        self.a = a
        self.b = b

    # -- ring operations ---------------------------------------------------
    def __add__(self, other):
        o = self._coerce(other)
        return FieldElement(self.field, self.a + o.a, self.b + o.b)

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        o = self._coerce(other)
        return FieldElement(self.field, self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __neg__(self):
        return FieldElement(self.field, -self.a, -self.b)

    def __mul__(self, other):
        # kmul's formula, inline: a call per product would slow every multiply
        o = self._coerce(other)
        c0, c1 = self.field._w2  # w^2 = c0 + c1*w
        bb = self.b * o.b
        return FieldElement(
            self.field,
            self.a * o.a + bb * c0,
            self.a * o.b + self.b * o.a + bb * c1,
        )

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        """Exact division in O_K: ArithmeticError when other does not divide."""
        q = quotient(self, other)
        if q is None:
            if other == 0:
                raise ZeroDivisionError("division by zero field element")
            raise ArithmeticError(f"{other} does not divide {self} in O_K")
        return q

    def __pow__(self, k: int):
        if k < 0:
            return (self.field.one() / self) ** (-k)
        r = self.field.one()
        base = self
        while k:
            if k & 1:
                r = r * base
            base = base * base
            k >>= 1
        return r

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field.m != self.field.m:
                raise ValueError("elements of different base fields")
            return other
        return FieldElement(self.field, other, 0)

    # -- field-theoretic data ----------------------------------------------
    def conj(self) -> "FieldElement":
        return FieldElement(self.field, *kconj(self.field, (self.a, self.b)))

    def norm(self) -> int:
        return knorm(self.field, (self.a, self.b))

    def sign(self, place: int) -> int:
        X, Y = self.field._xy(self)  # c*self = X + Y*sqrt(m): same sign
        return sign_p_q_sqrt(X, Y if place == 0 else -Y, self.field.m)

    def approx(self, place: int) -> float:
        """iota_place(self) = (X +- Y*sqrt(m))/c as a float, by one correctly
        rounded integer division, with sqrt(m) read as the midpoint
        (2L + 1)/2^(k+1) of [L/2^k, (L+1)/2^k] (k, L from _sqrt_m_floor)."""
        K = self.field
        X, Y = K._xy(self)
        c = 2 if K._half_basis else 1
        if Y == 0:
            return X / c
        k, L = K._sqrt_m_floor(Y)
        return (X * (2 << k) + (Y if place == 0 else -Y) * (2 * L + 1)) / (c * (2 << k))

    def is_unit(self) -> bool:
        return abs(self.norm()) == 1

    # -- misc ----------------------------------------------------------------
    def __eq__(self, other):
        if isinstance(other, int):
            return self.b == 0 and self.a == other
        return (
            isinstance(other, FieldElement)
            and self.field.m == other.field.m
            and self.a == other.a
            and self.b == other.b
        )

    def __hash__(self):
        return hash((self.field.m, self.a, self.b))

    def __repr__(self):
        return f"<{self} in Q(sqrt {self.field.m})>"

    def __str__(self):
        return format_element(self)


def _by_iota0(x: FieldElement):
    """The order of every element list: by iota_0, then a, then b."""
    return (x.approx(0), x.a, x.b)


def quotient(x: FieldElement, y) -> FieldElement | None:
    """x / y in O_K, or None when y does not divide x (also for y = 0):
    kdiv_exact on elements; y may be an int."""
    y = x._coerce(y)
    q = kdiv_exact(x.field, (x.a, x.b), (y.a, y.b))
    return None if q is None else FieldElement(x.field, *q)


def format_element(x) -> str:
    """Canonical text form a+b*w used in CLI and CSV, of an element or of
    its coordinate pair (a, b)."""
    a, b = (x.a, x.b) if isinstance(x, FieldElement) else x
    if b == 0:
        return str(a)
    bpart = "w" if b == 1 else ("-w" if b == -1 else f"{b}*w")
    if a == 0:
        return bpart
    return f"{a}{bpart}" if b < 0 else f"{a}+{bpart}"


# one optional integer a, then one optional b*w term (signed when a is there)
_ELEMENT = re.compile(r"(?:([+-]?\d+)\s*(?=[+-]|$))?(?:([+-]?)\s*(?:(\d+)\s*\*?\s*)?(w))?", re.ASCII)


def parse_element(field: "BaseField", text: str) -> FieldElement:
    """Parse the a+b*w form that format_element writes: one optional integer
    a and one optional b*w term, in ASCII digits, with spaces between the
    terms and the * optional; anything else raises ValueError."""
    m = _ELEMENT.fullmatch(text.strip())
    if m is None or m.group(1) is None and m.group(4) is None:
        raise ValueError(f"{text!r} is not an element a+b*w with integers a and b")
    a, sign, b, w = m.groups()
    return FieldElement(field, int(a or 0), int(sign + (b or "1")) if w else 0)


@dataclass(frozen=True)
class IdealK:
    """Nonzero integral O_K-ideal as an HNF row lattice over basis (1, w).

    hnf rows: ((p, q), (0, r)) meaning Z*(p + q*w) + Z*(r*w); norm = p*r.
    A principal generator is kept alongside (h_K = 1 scope).
    """

    m: int
    rows: tuple
    gen_a: int
    gen_b: int

    @property
    def norm(self) -> int:
        return pivot_product(self.rows)

    def generator(self, field: "BaseField") -> FieldElement:
        return FieldElement(field, self.gen_a, self.gen_b)

    def contains(self, x: FieldElement) -> bool:
        return in_lattice([x.a, x.b], [list(r) for r in self.rows])

    def __str__(self):
        return str([list(r) for r in self.rows])


def ideal_of_element(x: FieldElement) -> IdealK:
    """Principal ideal (x); x must be nonzero."""
    if x.a == 0 and x.b == 0:
        raise ValueError("need a nonzero element")
    rows = hnf(k_module_rows(x.field, [(x.a, x.b)]))
    return IdealK(x.field.m, tuple(tuple(r) for r in rows), x.a, x.b)


class BaseField:
    """Q(sqrt(m)) with verified fundamental unit and class data."""

    def __init__(self, m: int):
        if m <= 1 or not _is_squarefree(m):
            raise ValueError(f"m = {m} must be a squarefree integer > 1")
        self.m = m
        self.degree = 2
        self._half_basis = m % 4 == 1
        self.disc, self._w2 = _disc_w2(m)  # w^2 = c0 + c1*w
        self._trace_w = self._w2[1]
        self._factor_cache: dict[tuple, tuple] = {}
        self._norm_table: tuple[int, dict] | None = None
        self.eps = FieldElement(self, *_fundamental_unit(m))
        self.eps_norm = self.eps.norm()
        self._eps_xy = self._xy(self.eps)
        assert abs(self.eps_norm) == 1
        assert (self.eps - 1).sign(0) > 0
        self.h_K = self._class_number()

    # -- element constructors -------------------------------------------------
    def elt(self, a, b=0) -> FieldElement:
        return FieldElement(self, a, b)

    def one(self) -> FieldElement:
        return FieldElement(self, 1, 0)

    def w(self) -> FieldElement:
        return FieldElement(self, 0, 1)

    # -- numerics ---------------------------------------------------------------
    def _sqrt_m_floor(self, Y: int):
        """(k, L) with L = floor(sqrt(m) * 2^k), k = 66 + the bit length of
        the reduced numerator of Y/c: the precision at which approx reads
        sqrt(m) for an element with Y != 0."""
        if self._half_basis and Y % 2 == 0:
            Y //= 2
        k = 66 + Y.bit_length()
        return k, math.isqrt(self.m << (2 * k))

    def omega_text(self) -> str:
        return f"(1+sqrt({self.m}))/2" if self._half_basis else f"sqrt({self.m})"

    # -- class number ----------------------------------------------------------------
    def _class_number(self) -> int:
        """h_K: the number of rho cycles of reduced forms of discriminant disc,
        which is the narrow class number, halved when N(eps) = +1 (Cohen,
        GTM 138, section 5.6). A reduced (a, b, c) has 0 < b < sqrt(disc)
        and |sqrt(disc) - 2|a|| < b, so a divides (disc - b^2)/4."""
        D = self.disc
        s = math.isqrt(D)
        forms = set()
        for b in range(2 - D % 2, s + 1, 2):
            n = (D - b * b) // 4
            for a in range((s - b) // 2 + 1, (s + b) // 2 + 1):
                if n % a == 0:
                    forms.update({(a, b, -n // a), (-a, b, n // a)})
        cycles = 0
        while forms:
            f = g = forms.pop()
            while (g := _rho(D, s, g)) != f:
                forms.remove(g)
            cycles += 1
        return cycles if self.eps_norm == -1 else cycles // 2

    def principal_generator(self, rows) -> FieldElement | None:
        """Canonical generator of the O_K-ideal spanned by rows, or None when
        it is not principal. The ideal is g*J with g its content and J =
        Z*a + Z*(t + w) primitive; the rho walk from J's form meets a form
        with |a| = 1, whose ideal is O_K, exactly when J is principal, and
        then J = (x/d)*O_K. A lattice that is not an ideal raises ValueError."""
        H = hnf([list(r) for r in rows])
        if not self._is_ideal(H):
            raise ValueError(f"lattice {H} is not an O_K-ideal")
        (p, q), (_, r) = H
        g = math.gcd(p, q, r)
        p, q, r = p // g, q // g, r // g
        b = -2 * p * pow(q, -1, r) - self._trace_w  # J holds t + w = (-b + sqrt(disc))/2
        for (a, _, _), (x0, x1), d in _cycle(self.m, (p * r, b, (b * b - self.disc) // (4 * p * r))):
            if abs(a) == 1:
                gen = self.canonical_associate(FieldElement(self, g * x0 // d, g * x1 // d))
                assert ideal_of_element(gen).rows == tuple(tuple(r) for r in H)
                return gen
        return None

    def elements_of_norm(self, n: int, lattice_rows=None):
        """Canonical associates (sorted by iota_0, a, b) of all x with |N(x)| = n
        in the ideal spanned by lattice_rows over (1, w) (default O_K): the
        entries of elements_up_to_norm(n)[n] that lie in the ideal. A lattice
        that is not an O_K-ideal raises ValueError: membership must not
        depend on the associate.
        """
        if n <= 0:
            raise ValueError("n must be positive")
        ideal = hnf([list(r) for r in lattice_rows or [[1, 0], [0, 1]]])
        if not self._is_ideal(ideal):
            raise ValueError(f"lattice {ideal} is not an O_K-ideal")
        return [x for x in self.elements_up_to_norm(n).get(n, []) if in_lattice([x.a, x.b], ideal)]

    def _is_ideal(self, rows) -> bool:
        """Whether the row lattice (HNF over (1, w)) is stable under w."""
        return all(in_lattice(xw, rows) for xw in k_module_rows(self, rows)[1::2])

    def elements_up_to_norm(self, bound: int) -> dict:
        """dict n -> canonical generators of the principal ideals of norm n <=
        bound, each list sorted as in elements_of_norm. Every ideal is a
        product of prime ideals above the primes ell <= bound, multiplied as
        generators, or as HNF rows with one walk when a factor is not
        principal. The table is cached; a larger bound rebuilds it at no less
        than twice the cached bound, so a rising sequence of bounds rebuilds
        it rarely."""
        if self._norm_table is None or self._norm_table[0] < bound:
            top = max(bound, 2 * self._norm_table[0]) if self._norm_table else bound
            ideals = {1: [self.one()]}  # norm -> generators, or rows of non-principal ideals
            for ell in (n for n in range(2, top + 1) if _factorint(n) == {n: 1}):
                for P, gen in _primes_above(self, ell):
                    q = pivot_product(P)
                    for n, lst in [(n, list(lst)) for n, lst in ideals.items()]:
                        while (n := n * q) <= top:
                            lst = [self._ideal_product(I, P if gen is None else gen) for I in lst]
                            ideals.setdefault(n, []).extend(lst)
            gens = {n: [self.canonical_associate(I) for I in lst if isinstance(I, FieldElement)]
                    for n, lst in ideals.items()}
            self._norm_table = (top, {n: sorted(g, key=_by_iota0) for n, g in gens.items() if g})
        return {n: list(lst) for n, lst in self._norm_table[1].items() if n <= bound}

    def _ideal_product(self, I, J):
        """I*J for ideals given by a generator, or by HNF rows when not principal."""
        if isinstance(I, FieldElement) and isinstance(J, FieldElement):
            return I * J
        xs, ys = ([(X.a, X.b)] if isinstance(X, FieldElement) else X for X in (I, J))
        rows = [list(kmul(self, x, y)) for x in xs for y in ys]
        return self.principal_generator(rows) or hnf(rows)

    def _xy(self, x: FieldElement):
        """Integers (X, Y) with x = (X + Y*sqrt(m))/c."""
        a, b = x.a, x.b
        return (2 * a + b, b) if self._half_basis else (a, b)

    def _from_xy(self, X: int, Y: int) -> FieldElement:
        return self.elt((X - Y) // 2, Y) if self._half_basis else self.elt(X, Y)

    def _is_canonical_xy(self, X: int, Y: int) -> bool:
        """Whether x = (X + Y*sqrt(m))/c is its own canonical associate.

        For iota_0(x) > 0, iota_0^2 >= |N(x)| means iota_0 >= |iota_1|,
        i.e. X >= 0 and Y >= 0. The upper end iota_0^2 < |N(x)|*eps^2 is that
        test failing for x/eps = N(eps)*x*conj(eps), whose (X, Y) are
        N(eps)*(X*e1 - m*Y*e2, Y*e1 - X*e2)/c with eps = (e1 + e2*sqrt(m))/c.
        """
        if X < 0 or Y < 0 or not (X or Y):
            return False
        e1, e2 = self._eps_xy
        s = self.eps_norm
        return not (s * (X * e1 - self.m * Y * e2) >= 0 and s * (Y * e1 - X * e2) >= 0)

    def trace_strip(self, R: float) -> list:
        """x = a + b*w with iota_0(x) >= 0 and |iota_1(x)| < 2 (exact signs)
        for |b| <= (R + 2)/(iota_0(w) - iota_1(w)) + 2, sorted by
        (iota_0, a, b): one of each +-x, since the a-window (|iota_1| < 2,
        padded by one) is symmetric under x -> -x; 0 included. The b-window
        holds every such x with iota_0(x) <= R, as b*(iota_0(w) - iota_1(w))
        = iota_0(x) - iota_1(x): O(R) elements. Callers cut the iota_0 range.
        """
        w1 = self.w().approx(1)
        bmax = int((R + 2) / abs(self.w().approx(0) - w1)) + 2
        out = []
        for b in range(-bmax, bmax + 1):
            for a in range(math.floor(-2 - b * w1) - 1, math.ceil(2 - b * w1) + 2):
                x = FieldElement(self, a, b)
                if x.sign(0) >= 0 and (x - 2).sign(1) < 0 and (x + 2).sign(1) > 0:
                    out.append(x)
        out.sort(key=_by_iota0)
        return out

    def canonical_associate(self, x: FieldElement) -> FieldElement:
        """Associate of x with iota_0 > 0 and iota_0 in [sqrt|N|, sqrt|N|*eps),
        by exact integer steps."""
        return self.unit_reduce(x)[1]

    def unit_reduce(self, x: FieldElement):
        """(k, c) with x = +-eps^k * c and c = canonical_associate(x): the
        one loop that steps by powers of eps."""
        if x.a == 0 and x.b == 0:
            return 0, x
        X, Y = self._xy(x)
        if x.sign(0) < 0:
            X, Y = -X, -Y
        e1, e2 = self._eps_xy
        s, m = self.eps_norm, self.m
        c = 2 if self._half_basis else 1
        k = 0
        while not self._is_canonical_xy(X, Y):
            if X < 0 or Y < 0:  # iota_0^2 < |N|: multiply by eps
                X, Y = (X * e1 + m * Y * e2) // c, (X * e2 + Y * e1) // c
                k -= 1
            else:  # iota_0^2 >= |N|*eps^2: divide by eps
                X, Y = s * (X * e1 - m * Y * e2) // c, s * (Y * e1 - X * e2) // c
                k += 1
        return k, self._from_xy(X, Y)


def _factorint(n: int) -> dict[int, int]:
    n = abs(n)
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while f * f <= n:
        if n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        else:
            f += wheel[i]
            i = (i + 1) % 8
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _sqrt_mod(a: int, p: int):
    """A square root of a modulo the odd prime p, or None when a is not a
    square mod p (Tonelli-Shanks; Cohen, GTM 138, Algorithm 1.5.1)."""
    if pow(a, (p - 1) // 2, p) == p - 1:
        return None
    k = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = 2^k * q with q odd
    q = (p - 1) >> k
    c = pow(next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1), q, p)
    x, b = pow(a, (q + 1) // 2, p), pow(a, q, p)  # x^2 = a*b, b of order 2^i < 2^k
    while b > 1:  # b = x = 0 when p divides a
        i = next(i for i in range(1, k) if pow(b, 1 << i, p) == 1)
        t = pow(c, 1 << (k - i - 1), p)
        k, c, x, b = i, t * t % p, x * t % p, b * t * t % p
    return x


def _disc_w2(m: int):
    """(disc, (c0, c1)) of Q(sqrt(m)), with w^2 = c0 + c1*w."""
    return (m, ((m - 1) // 4, 1)) if m % 4 == 1 else (4 * m, (m, 0))


# -- reduced ideals: forms (a, b, c) of discriminant D, b^2 - 4ac = D ------------------


def _rho(D: int, s: int, f):
    """rho(a, b, c) = (c, r, (r^2 - D)/(4c)) with r = -b mod 2|c|, in
    (-|c|, |c|] when |c| > sqrt(D) and else the largest such r < sqrt(D):
    the largest such r <= max(|c|, s), s = isqrt(D) (Cohen, GTM 138,
    Definition 5.6.4). It maps reduced forms to reduced forms, and reaches
    one from any form in a few steps."""
    _, b, c = f
    t = max(abs(c), s)
    r = t - (t + b) % (2 * abs(c))
    return c, r, (r * r - D) // (4 * c)


def _cycle(m: int, f):
    """Yield (f_k, (x0, x1), d) for k = 0, 1, ... along rho from the form f
    of Q(sqrt(m)), with I_f = ((x0 + x1*w)/d) * I_(f_k) for the ideal I_f =
    Z*a + Z*beta, beta = (-b + sqrt(disc))/2 = w - (b + tr(w))/2: one step
    multiplies by beta/c, as I_f = (beta/c) * I_rho(f). Stops after yielding
    the first reduced form a second time."""
    D, (c0, tw) = _disc_w2(m)
    s = math.isqrt(D)
    x0, x1, d = 1, 0, 1
    first = None
    while True:
        yield f, (x0, x1), d
        if f == first:
            return
        a, b, c = f
        if first is None and b <= s and 2 * abs(a) - b <= s < 2 * abs(a) + b:
            first = f  # reduced: |sqrt(D) - 2|a|| < b < sqrt(D)
        t = -(b + tw) // 2  # beta = t + w
        x0, x1, d = x0 * t + x1 * c0, x0 + x1 * (t + tw), d * c
        f = _rho(D, s, f)


def _fundamental_unit(m: int):
    """Coordinates (a, b) over (1, w) of the fundamental unit eps > 1 of
    Q(sqrt(m)): the unit u = x/d of O_K's own cycle, from its reduced form
    (1, b, c) to the next form with |a| = 1 (Cohen, GTM 138, section 5.7).
    eps is the one of +-u, +-1/u = +-conj(u) with (X, Y) > 0 in eps = (X +
    Y*sqrt(m))/c, as eps > 1 > |conj(eps)|."""
    D, (_, tw) = _disc_w2(m)
    s = math.isqrt(D)
    b = s - (s - D) % 2  # the largest b < sqrt(D) with b = D mod 2
    (x0, x1), d = next((x, d) for f, x, d in _cycle(m, (1, b, (b * b - D) // 4)) if abs(f[0]) == 1 and x[1])
    X, Y = abs(((1 + tw) * x0 + tw * x1) // d), abs(x1 // d)
    return (X - tw * Y) // (1 + tw), Y


@lru_cache(maxsize=None)
def make_field(m: int) -> BaseField:
    """Construct Q(sqrt(m)) with verified unit and class number."""
    return BaseField(m)


# -- sign data ------------------------------------------------------------------


@dataclass(frozen=True)
class SignReport:
    m: int
    sign_images: frozenset
    narrow_equals_class: bool


def sign_data(field: BaseField) -> SignReport:
    """Unit signs and the narrow-class criterion.

    The unit group +-eps^Z maps onto the subgroup of {+-1}^2 that -1 and eps
    generate under per-place signs; narrow_equals_class iff that is all of
    {+-1}^2, which for real quadratic K happens iff N(eps) = -1.
    """
    s = (field.eps.sign(0), field.eps.sign(1))
    img = frozenset({(1, 1), (-1, -1), s, (-s[0], -s[1])})
    return SignReport(field.m, img, len(img) == 4)


def totally_positive_units_are_squares(field: BaseField, k_range: int = 6) -> bool:
    """Independent narrow-class check: every totally positive unit a square.

    Scans units +-eps^k for |k| <= k_range, tests total positivity exactly,
    and tests squareness against the explicit square units.
    """
    squares = {(u.a, u.b) for u in ((field.eps ** j) ** 2 for j in range(-k_range, k_range + 1))}
    for j in range(-k_range, k_range + 1):
        for s in (1, -1):
            u = field.eps ** j
            u = u if s == 1 else -u
            if u.sign(0) > 0 and u.sign(1) > 0:
                if (u.a, u.b) not in squares:
                    return False
    return True


# -- factorization and square-divisor splits ---------------------------------------


def prime_elements_above(field: BaseField, ell: int):
    """Prime elements of O_K above ell (h_K = 1 scope), sorted by (iota_0, a,
    b): the generators of the prime ideals above ell; fresh list."""
    gens = [gen for _, gen in _primes_above(field, ell)]
    if None in gens:
        raise ScopeError(f"no element of norm {ell}: h_K > 1 is out of scope")
    return gens


@lru_cache(maxsize=None)
def _primes_above(field: BaseField, ell: int):
    """(rows, generator or None) of each prime ideal above ell, memoised per
    field: P = (ell, w - r) for a root r of w's minimal polynomial mod
    ell, and conj(P) = (ell, w - (tr(w) - r)), generated by the conjugate
    and equal to P when ell ramifies; (ell) when there is no root.
    Principal ones are sorted by generator."""
    c0, tw = field._w2
    if ell == 2:
        r = next((r for r in (0, 1) if (r * r - tw * r - c0) % 2 == 0), None)
    else:  # the roots are (tr(w) +- s)/2 with s^2 = disc mod ell
        s = _sqrt_mod(field.disc, ell)
        r = None if s is None else (tw + s) * (ell + 1) // 2 % ell
    if r is None:
        return [([[ell, 0], [0, ell]], field.elt(ell))]
    # HNF of Z*ell + Z*(w - s): 1 + q*w lies in it for q = -1/s mod ell, unless ell | s
    rows = [[[1, -pow(s, -1, ell) % ell], [0, ell]] if s else [[ell, 0], [0, 1]]
            for s in dict.fromkeys((r, (tw - r) % ell))]
    gen = field.principal_generator(rows[0])
    pairs = list(zip(rows, [gen, gen and field.canonical_associate(gen.conj())]))
    return pairs if gen is None else sorted(pairs, key=lambda pg: _by_iota0(pg[1]))


def valuation(x: FieldElement, pi: FieldElement):
    """(v, x / pi^v) with v the valuation of x at the prime (pi)."""
    K = x.field
    xy, p = (x.a, x.b), (pi.a, pi.b)
    v = 0
    while (q := kdiv_exact(K, xy, p)) is not None:
        xy, v = q, v + 1
    return v, (K.elt(*xy) if v else x)


def factor_element(x: FieldElement):
    """x = unit * prod(pi^e) over prime elements; exact, h_K = 1 scope.

    Memoised per field by the coordinates of x; each call gets a fresh list.
    """
    field = x.field
    if field.h_K != 1:
        raise ScopeError("element factorization requires h_K = 1")
    if x.a == 0 and x.b == 0:
        raise ValueError("need a nonzero element")
    key = (x.a, x.b)
    if key not in field._factor_cache:
        fac = []
        rem = x
        for ell in sorted(_factorint(x.norm())):
            for pi in prime_elements_above(field, ell):
                e, rem = valuation(rem, pi)
                if e:
                    fac.append((pi, e))
        assert abs(rem.norm()) == 1, "leftover non-unit after factorization"
        field._factor_cache[key] = (rem, tuple(fac))
    unit, fac = field._factor_cache[key]
    return unit, list(fac)


def square_divisor_splits(D: FieldElement):
    """All pairs (d, f) of ideals with (D) = d * f^2, as (IdealK, IdealK).

    Contains ((D), (1)). Requires h_K = 1 (element-level factorization).
    """
    field = D.field
    if D.a == 0 and D.b == 0:
        raise ValueError("D must be nonzero")
    if field.h_K != 1:
        raise ScopeError("square_divisor_splits requires h_K = 1")
    unit, fac = factor_element(D)
    splits = []

    def rec(i, f_acc):
        if i == len(fac):
            f_elt = f_acc
            d_elt = D / (f_elt * f_elt)
            splits.append((ideal_of_element(d_elt), ideal_of_element(f_elt)))
            return
        pi, e = fac[i]
        p_pow = field.one()
        for c in range(e // 2 + 1):
            rec(i + 1, f_acc * p_pow)
            p_pow = p_pow * pi
    rec(0, field.one())
    splits.sort(key=lambda df: (df[1].norm, df[1].rows))
    return splits
