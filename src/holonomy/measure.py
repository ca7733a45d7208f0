"""The limiting angle measure on [-pi,pi]^n and its Fourier-side toolkit.

The measure has density prod_j sin^2(theta_j/2)/pi, the pushforward of Haar
measure on a product of projective unitary groups to rotation angles. The
module provides the associated orthogonal kernel family (indexed by vectors
of nonzero integers), the sign-symmetrized Weyl characters, coefficient
extraction against the kernel family, and the coefficient cost functional
used for sharp-cutoff error budgets.

Conventions. TrigFunction stores f(theta) = sum_k c[k] exp(i k.theta).
The kernel family B_m(theta) = prod_j exp(i m_j theta_j)/(1 - exp(i sgn(m_j) theta_j))
is orthogonal with constant norm: <B_m, B_m'> = (1/2)^n delta_{m,m'}, so
sqrt(2^n) B_m is the orthonormal family; expansion coefficients of f in the
B-family are 2^n * basis_coefficient(f, m).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product


def _as_tuple(m) -> tuple[int, ...]:
    if isinstance(m, int):
        return (m,)
    return tuple(int(v) for v in m)


def m_star(m) -> int:
    """prod_j (2|m_j| - 1): the dimension weight of the index vector."""
    mv = _as_tuple(m)
    if any(v == 0 for v in mv):
        raise ValueError("index entries must be nonzero")
    out = 1
    for v in mv:
        out *= 2 * abs(v) - 1
    return out


def eval_basis_kernel(m, theta):
    """B_m(theta) = prod_j e^{i m_j th_j} / (1 - e^{i sgn(m_j) th_j}).

    Poles at any th_j = 0 are genuine; a ValueError is raised there.
    """
    mv = _as_tuple(m)
    th = theta if isinstance(theta, (tuple, list)) else (theta,)
    if len(th) != len(mv):
        raise ValueError("dimension mismatch")
    out = complex(1)
    for mj, tj in zip(mv, th):
        if tj == 0:
            raise ValueError("kernel has a pole at theta_j = 0")
        s = 1 if mj > 0 else -1
        out *= cmath.exp(1j * mj * tj) / (1 - cmath.exp(1j * s * tj))
    return out


def eval_char(m, theta):
    """Sign-symmetrized kernel sum: prod_j sin((m_j - 1/2) th_j) / sin(th_j / 2).

    Evaluated through the identity with 1 + 2 sum_{k<m_j} cos(k th_j), which is
    globally stable (no removable singularity handling needed). Requires all
    m_j >= 1; the value at th_j = 0 is 2 m_j - 1.
    """
    mv = _as_tuple(m)
    if any(v < 1 for v in mv):
        raise ValueError("char evaluation needs positive index entries")
    th = theta if isinstance(theta, (tuple, list)) else (theta,)
    out = 1.0
    for mj, tj in zip(mv, th):
        acc = 1.0
        for k in range(1, mj):
            acc += 2.0 * math.cos(k * tj)
        out *= acc
    return out


# -- the measure itself -------------------------------------------------------


def mu_interval(lo: float, hi: float) -> Fraction:
    """Exact-telescoping one-dimensional measure of [lo, hi].

    Antiderivative (theta - sin theta)/(2 pi) evaluated in floats, then
    differenced as exact rationals so that unions telescope exactly.
    """
    if not (-math.pi - 1e-12 <= lo <= hi <= math.pi + 1e-12):
        raise ValueError("interval endpoints must lie in [-pi, pi] with lo <= hi")

    def F(t: float) -> Fraction:
        return Fraction(t - math.sin(t)) / Fraction(2 * math.pi)

    return F(hi) - F(lo)


def mu_rect_exact(rect) -> Fraction:
    """Measure of a product of intervals as an exact rational.

    Rational in the antiderivative's float values, so unions of rectangles
    with shared cut points telescope exactly.
    """
    rect = _as_rect(rect)
    out = Fraction(1)
    for lo, hi in rect:
        out *= mu_interval(lo, hi)
    return out


def mu_rect(rect) -> float:
    """Measure of a product of intervals in [-pi, pi]^n (closed form)."""
    return float(mu_rect_exact(rect))


def _as_rect(rect):
    if isinstance(rect, tuple) and len(rect) == 2 and not isinstance(rect[0], (tuple, list)):
        rect = [rect]
    return [(float(lo), float(hi)) for lo, hi in rect]


# -- finite Fourier data -------------------------------------------------------


@dataclass
class TrigFunction:
    """Finite Fourier expansion on the n-torus: sum_k coeffs[k] e^{i k.theta}."""

    n: int
    coeffs: dict = field(default_factory=dict)

    @staticmethod
    def constant(n: int, value=1.0) -> "TrigFunction":
        return TrigFunction(n, {(0,) * n: complex(value)})

    @staticmethod
    def from_char(m) -> "TrigFunction":
        """The sign-symmetrized character as explicit Fourier data."""
        mv = _as_tuple(m)
        dims = []
        for mj in mv:
            if mj < 1:
                raise ValueError("char index entries must be >= 1")
            c = {0: complex(1)}
            for k in range(1, mj):
                c[k] = complex(1)
                c[-k] = complex(1)
            dims.append(c)
        return _tensor(dims)

    def eval(self, theta) -> complex:
        th = theta if isinstance(theta, (tuple, list)) else (theta,)
        out = 0j
        for k, c in self.coeffs.items():
            out += c * cmath.exp(1j * sum(kj * tj for kj, tj in zip(k, th)))
        return out

    def eval_real(self, theta) -> float:
        return self.eval(theta).real

    def max_degree(self) -> int:
        return max((max(abs(i) for i in k) for k in self.coeffs), default=0)

    def is_sign_symmetric(self, tol: float = 1e-12) -> bool:
        for k, c in self.coeffs.items():
            for sig in product((1, -1), repeat=self.n):
                ks = tuple(s * v for s, v in zip(sig, k))
                if abs(self.coeffs.get(ks, 0) - c) > tol:
                    return False
        return True

    def sign_symmetrize(self) -> "TrigFunction":
        """Average of f(sigma theta) over all sign vectors sigma."""
        out: dict = {}
        sigs = list(product((1, -1), repeat=self.n))
        for k, c in self.coeffs.items():
            for sig in sigs:
                ks = tuple(s * v for s, v in zip(sig, k))
                out[ks] = out.get(ks, 0j) + c / len(sigs)
        return TrigFunction(self.n, _prune(out))

    def __mul__(self, other):
        if isinstance(other, TrigFunction):
            if other.n != self.n:
                raise ValueError("dimension mismatch")
            out: dict = {}
            for k1, c1 in self.coeffs.items():
                for k2, c2 in other.coeffs.items():
                    k = tuple(a + b for a, b in zip(k1, k2))
                    out[k] = out.get(k, 0j) + c1 * c2
            return TrigFunction(self.n, _prune(out))
        out = {k: c * other for k, c in self.coeffs.items()}
        return TrigFunction(self.n, out)

    def __add__(self, other: "TrigFunction") -> "TrigFunction":
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0j) + c
        return TrigFunction(self.n, _prune(out))


def _prune(coeffs: dict, tol: float = 0.0) -> dict:
    return {k: c for k, c in coeffs.items() if abs(c) > tol}


def _tensor(dim_coeffs: list[dict]) -> TrigFunction:
    n = len(dim_coeffs)
    out = {(): complex(1)}
    for d in dim_coeffs:
        new = {}
        for k, c in out.items():
            for kj, cj in d.items():
                new[k + (kj,)] = c * cj
        out = new
    return TrigFunction(n, out)


def tensor_product(factors: list[TrigFunction]) -> TrigFunction:
    """Product f_1(th_1) ... f_n(th_n) of one-dimensional pieces."""
    dims = []
    for f in factors:
        if f.n != 1:
            raise ValueError("tensor factors must be one-dimensional")
        dims.append({k[0]: c for k, c in f.coeffs.items()})
    return _tensor(dims)


def mu_of_trig(f: TrigFunction) -> complex:
    """Exact mu-integral of finite Fourier data.

    Per dimension the weight of e^{i k theta} is 1 (k=0), -1/2 (|k|=1), 0 else.
    """
    out = 0j
    for k, c in f.coeffs.items():
        w = 1.0
        for kj in k:
            if kj == 0:
                continue
            if abs(kj) == 1:
                w *= -0.5
            else:
                w = 0.0
                break
        out += c * w
    return out


def basis_coefficient(f: TrigFunction, m) -> complex:
    """Integral of f against the conjugate kernel: int f conj(B_m) dmu.

    Computed exactly on Fourier data through the per-dimension identity
    a(m) = (fhat(m) - fhat(m - sgn(m) e_j)) / 2. The expansion coefficient
    of f in the B-family is 2^n times this value.
    """
    mv = _as_tuple(m)
    if len(mv) != f.n or any(v == 0 for v in mv):
        raise ValueError("bad index vector")
    cur = f.coeffs
    for j, mj in enumerate(mv):
        s = 1 if mj > 0 else -1
        new: dict = {}
        for k, c in cur.items():
            new[k] = new.get(k, 0j) + c / 2
            ks = k[:j] + (k[j] + s,) + k[j + 1 :]
            new[ks] = new.get(ks, 0j) - c / 2
        cur = new
    return cur.get(mv, 0j)


def cost_functional(f: TrigFunction, truncation: int):
    """Partial sum of m_star(m) |a_f(m)| over |m_j| <= truncation, plus tail.

    For finite Fourier data the coefficient support is finite, so the tail
    beyond max_degree + 1 is exactly zero and the reported tail bound is the
    exact remainder.
    """
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    full_m = f.max_degree() + 1
    partial = 0.0
    tail = 0.0
    rng_full = [v for v in range(-full_m, full_m + 1) if v != 0]
    for mv in product(rng_full, repeat=f.n):
        a = basis_coefficient(f, mv)
        if a == 0:
            continue
        term = m_star(mv) * abs(a)
        if all(abs(v) <= truncation for v in mv):
            partial += term
        else:
            tail += term
    return partial, tail


# -- quadrature ---------------------------------------------------------------


def gauss_legendre_nd(fn, rect, tol: float = 1e-10, max_doublings: int = 9):
    """Tensorized Gauss-Legendre with panel doubling until agreement < tol."""
    rect = _as_rect(rect)
    n = len(rect)
    prev = None
    panels = 2
    for _ in range(max_doublings):
        val = _gl_fixed(fn, rect, panels, 12)
        if prev is not None and abs(val - prev) < tol:
            return val
        prev = val
        panels *= 2
    return prev


def _gl_fixed(fn, rect, panels: int, order: int):
    import numpy as np

    x, w = np.polynomial.legendre.leggauss(order)
    axes = []
    wts = []
    for lo, hi in rect:
        edges = np.linspace(lo, hi, panels + 1)
        nodes = []
        ww = []
        for a, b in zip(edges[:-1], edges[1:]):
            nodes.append(0.5 * (b - a) * x + 0.5 * (a + b))
            ww.append(0.5 * (b - a) * w)
        axes.append(np.concatenate(nodes))
        wts.append(np.concatenate(ww))
    total = 0j
    for idx in product(*(range(len(a)) for a in axes)):
        th = tuple(axes[j][idx[j]] for j in range(len(axes)))
        wt = 1.0
        for j in range(len(axes)):
            wt *= wts[j][idx[j]]
        total += wt * fn(th)
    return total


def mu_quadrature(fn, n: int, tol: float = 1e-10) -> complex:
    """Quadrature of fn against the measure density (cross-check path)."""

    def integrand(th):
        d = 1.0
        for t in th:
            d *= math.sin(t / 2) ** 2 / math.pi
        return fn(th) * d

    return gauss_legendre_nd(integrand, [(-math.pi, math.pi)] * n, tol)
