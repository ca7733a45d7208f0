"""Exact arithmetic in real quadratic fields K = Q(sqrt(m)).

Elements are stored as a + b*w over the integral generator w (sqrt(m) for
m = 2,3 mod 4, (1+sqrt(m))/2 for m = 1 mod 4). A coordinate is a Python int
whenever its denominator is 1 and a Fraction only where a true division
leaves a denominator, so integral elements run on integers throughout.
All order/sign decisions are made by exact arithmetic, never by floats;
floating enclosures are available for numerics but carry rigorous widths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .intlinalg import hnf, in_lattice, pivot_product


class ScopeError(ValueError):
    """Raised when an input is outside the desk scope (e.g. h_K > 1)."""


def _is_squarefree(n: int) -> bool:
    if n % 4 == 0:
        return False
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


def _coord(x):
    """x as an exact coordinate: an int, or a Fraction with denominator > 1."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        if isinstance(x, float):
            raise TypeError(f"float coordinate {x!r}: field coordinates must be exact")
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _qdiv(x, n):
    """Exact quotient x / n of rationals (n != 0): an int when n divides x."""
    if type(x) is int and type(n) is int:
        q, r = divmod(x, n)
        if not r:
            return q
    return _coord(Fraction(x, n))


def sign_p_q_sqrt(p, q, m: int) -> int:
    """Exact sign of p + q*sqrt(m) for rational p, q (ints stay ints)."""
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


class FieldElement:
    """Element a + b*w of K with exact coordinates: each an int when
    integral, else a Fraction; a float coordinate raises TypeError."""

    __slots__ = ("field", "a", "b")

    def __init__(self, field: "BaseField", a, b):
        self.field = field
        self.a = a if type(a) is int else _coord(a)
        self.b = b if type(b) is int else _coord(b)

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
        o = self._coerce(other)
        n = o.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero field element")
        num = self * o.conj()
        return FieldElement(self.field, _qdiv(num.a, n), _qdiv(num.b, n))

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
        tw = self.field._trace_w
        return FieldElement(self.field, self.a + self.b * tw, -self.b)

    def norm(self):
        c0, c1 = self.field._w2
        # N(a + bw) = a^2 + ab*tr(w) - b^2 * (w*conj(w)) ; w*wbar = -c0 when tr=c1
        return _coord(self.a * self.a + self.a * self.b * c1 - self.b * self.b * c0)

    def trace(self):
        return _coord(2 * self.a + self.b * self.field._trace_w)

    def sqrt_coords(self):
        """(p, q) with self = p + q*sqrt(m), exact."""
        if self.field._half_basis:
            return (_qdiv(2 * self.a + self.b, 2), _qdiv(self.b, 2))
        return (self.a, self.b)

    def sign(self, place: int) -> int:
        # 2*self = (2a + b) + b*sqrt(m) when w = (1 + sqrt(m))/2: same sign
        a, b = self.a, self.b
        if self.field._half_basis:
            a = 2 * a + b
        return sign_p_q_sqrt(a, b if place == 0 else -b, self.field.m)

    def cmp(self, other, place: int) -> int:
        """Exact comparison of embeddings: sign of iota(self - other)."""
        return (self - self._coerce(other)).sign(place)

    def embed(self, place: int, prec: int = 64):
        """Rigorous enclosure (lo, hi) of iota_place(self), width <= 2^(1-prec)."""
        if prec < 32:
            raise ValueError("prec must be >= 32")
        p, q = self.sqrt_coords()
        if q == 0:
            return (p, p)
        k = prec + max(q.numerator.bit_length(), 1) + 2
        lo_s, hi_s = self.field.sqrt_m_enclosure(k)
        if place == 1:
            lo_s, hi_s = -hi_s, -lo_s
        if q > 0:
            return (p + q * lo_s, p + q * hi_s)
        return (p + q * hi_s, p + q * lo_s)

    def approx(self, place: int) -> float:
        """The float nearest the midpoint of embed(place, 64), by one
        correctly rounded integer division: p +- q*(2L + 1)/2^(k+1) with
        sqrt(m) in [L/2^k, (L+1)/2^k]."""
        p, q = self.sqrt_coords()
        if q == 0:
            return float(p)
        k = 66 + max(q.numerator.bit_length(), 1)
        s = 2 * math.isqrt(self.field.m << (2 * k)) + 1
        if place == 1:
            s = -s
        pd, qd = p.denominator, q.denominator
        return (p.numerator * qd * (2 << k) + q.numerator * pd * s) / (pd * qd * (2 << k))

    def is_integral(self) -> bool:
        return self.a.denominator == 1 and self.b.denominator == 1

    def is_unit(self) -> bool:
        return self.is_integral() and abs(self.norm()) == 1

    # -- misc ----------------------------------------------------------------
    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
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


def format_element(x: FieldElement) -> str:
    """Canonical text form a+b*w used in CLI and CSV."""

    def fr(f: Fraction) -> str:
        return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"

    if x.b == 0:
        return fr(x.a)
    bpart = "w" if x.b == 1 else ("-w" if x.b == -1 else f"{fr(x.b)}*w")
    if x.a == 0:
        return bpart
    sign = "+" if x.b > 0 else ""
    return f"{fr(x.a)}{sign}{bpart}" if bpart.startswith("-") or sign else f"{fr(x.a)}+{bpart}"


def parse_element(field: "BaseField", text: str) -> FieldElement:
    """Parse the canonical a+b*w form (whitespace tolerated)."""
    s = text.replace(" ", "").replace("*w", "w")
    if not s:
        raise ValueError("empty element string")
    # split into at most two signed terms
    terms = []
    cur = ""
    for i, ch in enumerate(s):
        if ch in "+-" and i > 0 and s[i - 1] not in "+-/":
            terms.append(cur)
            cur = ch
        else:
            cur += ch
    terms.append(cur)
    a = Fraction(0)
    b = Fraction(0)
    for t in terms:
        if t.endswith("w"):
            coef = t[:-1]
            if coef in ("", "+"):
                b += 1
            elif coef == "-":
                b -= 1
            else:
                b += Fraction(coef)
        else:
            a += Fraction(t)
    return FieldElement(field, a, b)


@dataclass(frozen=True)
class IdealK:
    """Nonzero integral O_K-ideal as an HNF row lattice over basis (1, w).

    hnf rows: ((p, q), (0, r)) meaning Z*(p + q*w) + Z*(r*w); norm = p*r.
    A principal generator is kept alongside (h_K = 1 scope).
    """

    m: int
    rows: tuple
    gen_a: Fraction
    gen_b: Fraction

    @property
    def norm(self) -> int:
        return pivot_product(self.rows)

    def generator(self, field: "BaseField") -> FieldElement:
        return FieldElement(field, self.gen_a, self.gen_b)

    def contains(self, x: FieldElement) -> bool:
        if not x.is_integral():
            return False
        return in_lattice([x.a, x.b], [list(r) for r in self.rows])

    def key(self):
        return (self.m, self.rows)

    def __str__(self):
        return str([list(r) for r in self.rows])


def ideal_of_element(x: FieldElement) -> IdealK:
    """Principal ideal (x); x must be a nonzero integral element."""
    if not x.is_integral() or (x.a == 0 and x.b == 0):
        raise ValueError("need a nonzero integral element")
    xw = x * x.field.w()
    rows = hnf([[x.a, x.b], [xw.a, xw.b]])
    return IdealK(x.field.m, tuple(tuple(r) for r in rows), x.a, x.b)


class BaseField:
    """Q(sqrt(m)) with verified fundamental unit and class data."""

    def __init__(self, m: int):
        if m <= 1 or not _is_squarefree(m):
            raise ValueError(f"m = {m} must be a squarefree integer > 1")
        self.m = m
        self.degree = 2
        self._half_basis = m % 4 == 1
        if self._half_basis:
            self.disc = m
            self._w2 = ((m - 1) // 4, 1)  # w^2 = (m-1)/4 + w
            self._trace_w = 1
        else:
            self.disc = 4 * m
            self._w2 = (m, 0)
            self._trace_w = 0
        self._sqrt_cache: dict[int, tuple[Fraction, Fraction]] = {}
        self._gen_cache: dict = {}
        self._prime_cache: dict[int, list] = {}
        self._factor_cache: dict[tuple, tuple] = {}
        self._norm_table: tuple[int, dict] | None = None
        self.eps = self._fundamental_unit()
        self.eps_norm = self.eps.norm()
        self._eps_xy = self._xy(self.eps)
        assert abs(self.eps_norm) == 1
        assert self.eps.sign(0) > 0 and self.eps.cmp(1, 0) > 0
        self.h_K = self._class_number()

    # -- element constructors -------------------------------------------------
    def elt(self, a, b=0) -> FieldElement:
        return FieldElement(self, a, b)

    def from_sqrt_coords(self, p, q) -> FieldElement:
        if self._half_basis:
            return FieldElement(self, p - q, 2 * q)
        return FieldElement(self, p, q)

    def one(self) -> FieldElement:
        return FieldElement(self, 1, 0)

    def zero(self) -> FieldElement:
        return FieldElement(self, 0, 0)

    def w(self) -> FieldElement:
        return FieldElement(self, 0, 1)

    # -- numerics ---------------------------------------------------------------
    def sqrt_m_enclosure(self, kbits: int):
        """Rational lo <= sqrt(m) <= hi with hi - lo = 2^-kbits."""
        if kbits not in self._sqrt_cache:
            scale = 1 << kbits
            lo = math.isqrt(self.m * scale * scale)
            self._sqrt_cache[kbits] = (Fraction(lo, scale), Fraction(lo + 1, scale))
        return self._sqrt_cache[kbits]

    def omega_text(self) -> str:
        return f"(1+sqrt({self.m}))/2" if self._half_basis else f"sqrt({self.m})"

    # -- fundamental unit ---------------------------------------------------------
    def _fundamental_unit(self) -> FieldElement:
        m = self.m
        if not self._half_basis:
            x, y = _pell_min_solution(m)
            return FieldElement(self, x, y)
        # minimal x^2 - m y^2 = +-4 by increasing y; x == y mod 2 is automatic
        y = 1
        while y < 10**7:
            for delta in (-4, 4):
                t = m * y * y + delta
                if t > 0:
                    x = math.isqrt(t)
                    if x * x == t:
                        return self.from_sqrt_coords(Fraction(x, 2), Fraction(y, 2))
            y += 1
        raise ArithmeticError(f"fundamental unit search exhausted for m={m}")

    # -- class number ----------------------------------------------------------------
    def _class_number(self) -> int:
        """Number of ideal classes, by Minkowski-bound enumeration and merging.

        Every class contains an integral ideal of norm <= sqrt(disc)/2; those
        are enumerated as HNF lattices and merged via principality of I*conj(J)
        (exact, unit-window-certified element searches).
        """
        bound = math.isqrt(self.disc) // 2
        lattices = [((1, 0), (0, 1))]
        for n in range(2, bound + 1):
            for rows in self._ideals_of_norm(n):
                lattices.append(rows)
        classes: list[tuple] = []
        for rows in lattices:
            found = False
            for rep in classes:
                prod = _lattice_product(self, rows, _lattice_conj(self, rep))
                if self.principal_generator(prod) is not None:
                    found = True
                    break
            if not found:
                classes.append(rows)
        return len(classes)

    def _ideals_of_norm(self, n: int):
        """All O_K-stable row lattices ((p, q), (0, r)) with p*r = n."""
        out = []
        for r in range(1, n + 1):
            if n % r:
                continue
            p = n // r
            for q in range(0, r):
                rows = [[p, q], [0, r]]
                if self._is_ideal(rows):
                    out.append(tuple(tuple(x) for x in rows))
        return out

    # -- bounded exact searches --------------------------------------------------------
    def elements_of_norm(self, n: int, lattice_rows=None):
        """Canonical associates (sorted by iota_0, a, b) of all x with |N(x)| = n
        in the ideal spanned by lattice_rows over (1, w) (default O_K).

        Strip search: x = (X + Y*sqrt(m))/c, c = 2 if m = 1 mod 4 else 1, so
        X^2 - m*Y^2 = +-c^2*n (X = Y mod 2 follows when c = 2). A canonical x
        has 0 < iota_0 < sqrt(n)*eps and |iota_1| <= sqrt(n), so X >= 0 and
        0 <= Y = c*(iota_0 - iota_1)/(2*sqrt(m)) <= Ymax, bounded exactly via
        the rational enclosure of eps; each Y gives X by isqrt: O(sqrt n)
        integer steps. A lattice that is not an O_K-ideal raises ValueError:
        membership must not depend on the associate.
        """
        if n <= 0:
            raise ValueError("n must be positive")
        ideal = hnf([list(r) for r in lattice_rows or [[1, 0], [0, 1]]])
        if not self._is_ideal(ideal):
            raise ValueError(f"lattice {ideal} is not an O_K-ideal")
        cc = 4 if self._half_basis else 1
        out = []
        for Y in range(self._ymax(n) + 1):
            for s in (1, -1):
                t = self.m * Y * Y + s * cc * n
                if t < 0:
                    continue
                X = math.isqrt(t)
                if X * X != t or not self._is_canonical_xy(X, Y):
                    continue
                x = self._from_xy(X, Y)
                if in_lattice([x.a, x.b], ideal):
                    out.append(x)
        out.sort(key=lambda z: (z.approx(0), z.a, z.b))
        return out

    def _is_ideal(self, rows) -> bool:
        """Whether the row lattice (HNF over (1, w)) is stable under w."""
        w = self.w()
        for r in rows:
            xw = self.elt(r[0], r[1]) * w
            if not in_lattice([xw.a, xw.b], rows):
                return False
        return True

    def elements_up_to_norm(self, bound: int) -> dict:
        """dict n -> canonical elements (up to units) with |N| = n <= bound,
        each list sorted as in elements_of_norm.

        The strip of elements_of_norm for all n <= bound at once: for each
        0 <= Y <= Ymax(bound), the X >= 0 with |X^2 - m*Y^2| <= c^2*bound form
        a range bounded by isqrt, and the canonical ones are kept. The table
        is cached; a larger bound rebuilds it at no less than twice the
        cached bound, so a rising sequence of bounds rebuilds it rarely.
        """
        if self._norm_table is None or self._norm_table[0] < bound:
            top = max(bound, 2 * self._norm_table[0]) if self._norm_table else bound
            cc = 4 if self._half_basis else 1
            out: dict[int, list] = {}
            for Y in range(self._ymax(top) + 1):
                mY2 = self.m * Y * Y
                lo = mY2 - cc * top
                X0 = math.isqrt(lo - 1) + 1 if lo > 0 else 0
                for X in range(X0, math.isqrt(mY2 + cc * top) + 1):
                    if (cc == 4 and (X - Y) % 2) or not self._is_canonical_xy(X, Y):
                        continue
                    out.setdefault(abs(X * X - mY2) // cc, []).append(self._from_xy(X, Y))
            for lst in out.values():
                lst.sort(key=lambda z: (z.approx(0), z.a, z.b))
            self._norm_table = (top, out)
        return {n: lst for n, lst in self._norm_table[1].items() if n <= bound}

    def _ymax(self, n: int) -> int:
        """Bound on Y = c*(iota_0 - iota_1)/(2*sqrt(m)) over canonical x with
        |N(x)| <= n, from the rational upper enclosure of iota_0(eps)."""
        cc = 4 if self._half_basis else 1
        return math.isqrt(math.floor(cc * n * (self.eps.embed(0)[1] + 1) ** 2 / (4 * self.m)))

    def _xy(self, x: FieldElement):
        """Integers (X, Y) with x = (X + Y*sqrt(m))/c, for integral x."""
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

    def trace_strip(self, R: float):
        """Elements a + b*w with |iota_1| < 2, padded by one value of a on
        each side, for |b| <= (R + 2)/(iota_0(w) - iota_1(w)) + 2.

        A superset of the x with |iota_0(x)| <= R and |iota_1(x)| < 2, since
        b*(iota_0(w) - iota_1(w)) = iota_0(x) - iota_1(x): O(R) elements, and
        each caller makes its own exact tests. Symmetric under x -> -x.
        """
        w0, w1 = self.w().approx(0), self.w().approx(1)
        bmax = int((R + 2) / abs(w0 - w1)) + 2
        for b in range(-bmax, bmax + 1):
            for a in range(math.floor(-2 - b * w1) - 1, math.ceil(2 - b * w1) + 2):
                yield FieldElement(self, a, b)

    def canonical_associate(self, x: FieldElement) -> FieldElement:
        """Associate of x with iota_0 > 0 and iota_0 in [sqrt|N|, sqrt|N|*eps),
        for integral x, by exact integer steps."""
        if x.a == 0 and x.b == 0:
            return x
        if not x.is_integral():
            raise ValueError("canonical_associate needs an integral element")
        X, Y = self._xy(x)
        if x.sign(0) < 0:
            X, Y = -X, -Y
        e1, e2 = self._eps_xy
        s, m = self.eps_norm, self.m
        c = 2 if self._half_basis else 1
        while not self._is_canonical_xy(X, Y):
            if X < 0 or Y < 0:  # iota_0^2 < |N|: multiply by eps
                X, Y = (X * e1 + m * Y * e2) // c, (X * e2 + Y * e1) // c
            else:  # iota_0^2 >= |N|*eps^2: divide by eps
                X, Y = s * (X * e1 - m * Y * e2) // c, s * (Y * e1 - X * e2) // c
        return self._from_xy(X, Y)

    def principal_generator(self, rows) -> FieldElement | None:
        """Generator of the row lattice if it is a principal ideal, else None."""
        H = hnf([list(r) for r in rows])
        key = tuple(tuple(r) for r in H)
        if key in self._gen_cache:
            return self._gen_cache[key]
        result = None
        for cand in self.elements_of_norm(pivot_product(H), H):
            ci = ideal_of_element(cand)
            if ci.rows == key:
                result = cand
                break
        self._gen_cache[key] = result
        return result


def _lattice_conj(field: BaseField, rows):
    """Row lattice of the conjugate module."""
    new = []
    for r in rows:
        x = field.elt(r[0], r[1]).conj()
        new.append([x.a, x.b])
    return hnf(new)


def _lattice_product(field: BaseField, rows_a, rows_b):
    """Row lattice of the product module (pairwise generator products)."""
    gens = []
    for ra in rows_a:
        xa = field.elt(ra[0], ra[1])
        for rb in rows_b:
            xb = field.elt(rb[0], rb[1])
            p = xa * xb
            gens.append([p.a, p.b])
    return hnf(gens)


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


def _kronecker(a: int, p: int) -> int:
    """Kronecker symbol (a/p) for odd prime or 2."""
    if p == 2:
        if a % 2 == 0:
            return 0
        return 1 if a % 8 in (1, 7) else -1
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def _pell_min_solution(m: int):
    """Minimal (x, y), x,y > 0, with x^2 - m y^2 = +-1, via sqrt(m) CF."""
    a0 = math.isqrt(m)
    P, Q = 0, 1
    pm1, p0 = 1, a0
    qm1, q0 = 0, 1
    a = a0
    while True:
        P = a * Q - P
        Q = (m - P * P) // Q
        a = (a0 + P) // Q
        p1 = a * p0 + pm1
        q1 = a * q0 + qm1
        if Q == 1:
            # period complete at this step: previous convergent solves Pell
            assert p0 * p0 - m * q0 * q0 in (1, -1)
            return p0, q0
        pm1, p0 = p0, p1
        qm1, q0 = q0, q1


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
    guaranteed_sign_changes: frozenset
    n_factors: int = 1


def sign_data(field: BaseField, n_factors: int = 1) -> SignReport:
    """Unit signs, narrow-class criterion, and guaranteed sign-change set.

    narrow_equals_class iff the unit group surjects onto {+-1}^2 under
    per-place signs, which for real quadratic K happens iff N(eps) = -1.
    The guaranteed set of holonomy sign changes is all of {+-1}^n in that
    case and otherwise only the subgroup generated by full time reversal.
    """
    gens = [(-1, -1), (field.eps.sign(0), field.eps.sign(1))]
    img = {(1, 1)}
    frontier = list(img)
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = (cur[0] * g[0], cur[1] * g[1])
            if nxt not in img:
                img.add(nxt)
                frontier.append(nxt)
    narrow = len(img) == 4
    full = {tuple(s) for s in _sign_tuples(n_factors)}
    if narrow:
        guaranteed = full
    else:
        rev = tuple([-1] * n_factors)
        guaranteed = {tuple([1] * n_factors), rev}
    return SignReport(field.m, frozenset(img), narrow, frozenset(guaranteed), n_factors)


def _sign_tuples(n):
    if n == 0:
        yield ()
        return
    for rest in _sign_tuples(n - 1):
        yield (1,) + rest
        yield (-1,) + rest


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
    """Prime elements of O_K above ell (h_K = 1 scope); memoised per field, fresh list."""
    if ell not in field._prime_cache:
        field._prime_cache[ell] = _find_prime_elements(field, ell)
    return list(field._prime_cache[ell])


def _find_prime_elements(field: BaseField, ell: int):
    ks = _kronecker(field.disc, ell)
    if ks == -1:
        return [field.elt(ell)]
    pis = field.elements_of_norm(ell)
    if not pis:
        raise ScopeError(f"no element of norm {ell}: h_K > 1 is out of scope")
    if ks == 0:
        return [pis[0]]
    # split: pi and its conjugate generate the two primes
    pi = pis[0]
    pib = field.canonical_associate(pi.conj())
    if ideal_of_element(pi).rows == ideal_of_element(pib).rows:
        for cand in pis[1:]:
            if ideal_of_element(cand).rows != ideal_of_element(pi).rows:
                pib = cand
                break
    return [pi, pib]


def valuation(x: FieldElement, pi: FieldElement):
    """(v, x / pi^v) with v the valuation of x at the prime (pi)."""
    v = 0
    while (q := x / pi).is_integral():
        x, v = q, v + 1
    return v, x


def factor_element(x: FieldElement):
    """x = unit * prod(pi^e) over prime elements; exact, h_K = 1 scope.

    Memoised per field by the coordinates of x; each call gets a fresh list.
    """
    field = x.field
    if field.h_K != 1:
        raise ScopeError("element factorization requires h_K = 1")
    if not x.is_integral() or (x.a == 0 and x.b == 0):
        raise ValueError("need nonzero integral element")
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
            assert d_elt.is_integral()
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
