"""Degree-N trigonometric majorants and minorants of interval indicators.

Construction: the sawtooth on the circle is approximated by the degree-N
interpolating polynomial with weights J(t) = pi t (1 - t) cot(pi t) + t at
t = k/(N+1), whose error is dominated by the Fejer kernel of order N+1
divided by 2(N+1). An interval indicator is a difference of two shifted
sawtooths plus a constant, so adding or subtracting the two Fejer error
envelopes yields a majorant/minorant pair with

  - sandwich: minus <= indicator <= plus pointwise,
  - integral over the 2pi circle exactly |J| +- 2pi/(N+1),
  - coefficient bound |c_k| <= 1/(N+1) + 1/|k| for 1 <= |k| <= N.

The tests, not this construction, are normative; every property above is
checked directly on the produced coefficients and on dense grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .measure import (
    TrigFunction,
    basis_coefficient,
    cost_functional,
    m_star,
    mu_of_trig,
    mu_rect,
    tensor_product,
)

MAJORANT = "majorant"
MINORANT = "minorant"


def _vaaler_weight(t: float) -> float:
    # J(t) = pi t (1-t) cot(pi t) + t on (0, 1)
    return math.pi * t * (1 - t) / math.tan(math.pi * t) + t


@dataclass(frozen=True)
class TrigPolynomial:
    """Real trigonometric polynomial sum_{|k|<=N} c_k e^{i k theta}."""

    degree: int
    coeffs: dict
    interval: tuple
    side: str

    def coeff(self, k: int) -> complex:
        return self.coeffs.get(k, 0j)

    def eval_grid(self, thetas):
        """Values at a numpy array of angles."""
        import numpy as np

        out = np.zeros_like(thetas, dtype=complex)
        for k, c in self.coeffs.items():
            out += c * np.exp(1j * k * thetas)
        return out.real

    def integral(self) -> float:
        """Integral over [-pi, pi]."""
        return 2 * math.pi * self.coeffs[0].real

    def to_trig_function(self) -> TrigFunction:
        return TrigFunction(1, {(k,): complex(c) for k, c in self.coeffs.items()})


def build_majorant(interval, N: int, side: str = MAJORANT) -> TrigPolynomial:
    """Majorant or minorant polynomial of degree N for an interval indicator.

    The interval [a, b] must be nondegenerate and lie in [-pi, pi].
    """
    a, b = float(interval[0]), float(interval[1])
    if not (-math.pi - 1e-12 <= a < b <= math.pi + 1e-12):
        raise ValueError("need a nondegenerate interval inside [-pi, pi]")
    if N < 1:
        raise ValueError("degree must be >= 1")
    if side not in (MAJORANT, MINORANT):
        raise ValueError("side must be 'majorant' or 'minorant'")
    import numpy as np

    K = N + 1
    sgn = 1.0 if side == MAJORANT else -1.0
    coeffs: dict[int, complex] = {0: complex((b - a) / (2 * math.pi) + sgn / K)}
    for k in range(1, N + 1):
        jw = _vaaler_weight(k / K)
        fw = (1 - k / K) / (2 * K)
        for kk in (k, -k):
            saw = (1j * jw / (2 * math.pi * kk)) * (
                np.exp(-1j * kk * b) - np.exp(-1j * kk * a)
            )
            fej = sgn * fw * (np.exp(-1j * kk * b) + np.exp(-1j * kk * a))
            coeffs[kk] = complex(saw + fej)
    return TrigPolynomial(N, coeffs, (a, b), side)


def rect_approximant(rect, N: int, side: str = MAJORANT):
    """Product-form approximant of a rectangle indicator with metadata.

    The majorant is the product of per-interval majorants. A product of
    minorants is not itself a minorant in dimension > 1, so the minorant
    uses 1 - sum_j (1 - minus_j(theta_j)), which is a pointwise minorant
    of the rectangle indicator in any dimension (and equals the interval
    minorant when n = 1).

    Metadata reports the cost-functional partial sum with its exact tail,
    the mu-integral, the deviation |mu(f) - mu(rect)| together with the
    certified bound 2n/(N+1). The tighter n/(N+1) figure quoted alongside
    is aspirational and is known to be exceeded by this construction for
    some rectangles; tests enforce only the certified bound.
    """
    rect = [(float(lo), float(hi)) for lo, hi in rect]
    n = len(rect)
    if side == MAJORANT:
        parts = [build_majorant(J, N, MAJORANT).to_trig_function() for J in rect]
        f = tensor_product(parts)
        # the cost functional factorizes over tensor products:
        # a_f(m) = prod a_j(m_j) and the dimension weight is multiplicative
        partial = 1.0
        for part in parts:
            cj, tj = cost_functional(part, part.max_degree() + 1)
            partial *= cj + tj
        tail = 0.0
    else:
        parts = []
        f = TrigFunction.constant(n, 1.0)
        for j, J in enumerate(rect):
            sj = build_majorant(J, N, MINORANT).to_trig_function()
            parts.append(sj)
            one_minus = TrigFunction.constant(1, 1.0) + sj * (-1.0)
            f = f + _lift_to_axis(one_minus, j, n) * (-1.0)
        partial, tail = _lincomb_cost(parts, n), 0.0
    mu_f = mu_of_trig(f).real
    mu_box = mu_rect(rect)
    meta = {
        "cost_partial": partial,
        "cost_tail": tail,
        "mu_f": mu_f,
        "mu_rect": mu_box,
        "deviation": abs(mu_f - mu_box),
        "deviation_bound_certified": 2 * n / (N + 1),
        "deviation_bound_nominal": n / (N + 1),
        "degree": N,
        "side": side,
    }
    return f, meta


def _lift_to_axis(f1: TrigFunction, axis: int, n: int) -> TrigFunction:
    out = {}
    for k, c in f1.coeffs.items():
        key = [0] * n
        key[axis] = k[0]
        out[tuple(key)] = c
    return TrigFunction(n, out)


def _lincomb_cost(parts: list[TrigFunction], n: int) -> float:
    """Exact cost of f = (1-n) + sum_j lifted(S_j).

    Coefficients against the kernel family vanish unless every coordinate
    other than at most one lies in {1, -1}; the per-dimension constant
    carries weight -1/2 at those coordinates.
    """
    if n == 1:
        c, t = cost_functional(parts[0], parts[0].max_degree() + 1)
        return c + t
    tables = []
    for part in parts:
        deg = part.max_degree() + 1
        tables.append({m: basis_coefficient(part, m)
                       for m in range(-deg, deg + 1) if m != 0})
    maxdeg = max(max(abs(m) for m in tb) for tb in tables)
    total = 0.0
    idx_ranges = []
    for j in range(n):
        idx_ranges.append([m for m in range(-maxdeg, maxdeg + 1) if m != 0])

    def w(k):
        return -0.5 if abs(k) == 1 else 0.0

    from itertools import product as iproduct

    for mv in iproduct(*idx_ranges):
        if sum(1 for k in mv if abs(k) > 1) > 1:
            continue
        a = (1 - n) * 1.0
        for k in mv:
            a *= w(k)
        acc = a
        for j in range(n):
            term = tables[j].get(mv[j], 0j)
            for i in range(n):
                if i != j:
                    term *= w(mv[i])
            acc += term
        if acc:
            total += m_star(mv) * abs(acc)
    return total
