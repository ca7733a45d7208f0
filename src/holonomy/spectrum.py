"""Enumeration of geodesic and elliptic trace data for an arithmetic lattice.

A closed geodesic on the distinguished energy shell corresponds to a field
trace t with |iota_0(t)| > 2 and |iota_1(t)| < 2; its length satisfies
|iota_0(t)| = 2 cosh(l/2) and its folded holonomy angle |theta| =
2 arccos(|iota_1(t)|/2). Multiplicities are sums of optimal-embedding counts
over the square-divisor splits of (t^2 - 4); non-realizable splits carry
count zero. Elliptic classes (all embeddings inside (-2, 2)) are finite in
number and carry weights 2/#O^1 per split.

Traces are normalized up to global sign; every table row represents the
time-reversal pair jointly. Rows are emitted per (trace, power-index) so the
CSV stays exact for primitive counting even when splits of one trace have
different power indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp

from .fields import BaseField, FieldElement, IdealK, square_divisor_splits
from .orders import (
    LatticeSpec,
    Multiplicity,
    OrderCache,
    RelativeQuadraticOrder,
    build_order,
    compute_arithmetic,
    embedding_count,
)

LENGTH_PREC_BITS = 96

# Largest strip radius 2 cosh(x/2) that enumerate_traces walks (x about 27.6
# for m = 2): the walk is O(radius), and a table at this cutoff is already
# far beyond what the class-number oracle can finish.
MAX_STRIP_RADIUS = 1e6


@dataclass
class SplitData:
    """One square-divisor split of (t^2-4) with its order arithmetic."""

    d_ideal: IdealK
    f_ideal: IdealK
    realizable: bool
    h_O: int | None = None
    unit_index: object = None
    reg: float | None = None
    m1: Multiplicity | None = None
    q: int | None = None
    primitive_trace: FieldElement | None = None
    certified: bool = False


@dataclass
class GeodesicClass:
    """All classes sharing one trace value (up to sign) and power index."""

    t: FieldElement
    iota0: float
    iota1: float
    length: float
    folded_angle: float
    q: int
    primitive_length: float
    splits: list
    multiplicity: Multiplicity

    @property
    def certified(self) -> bool:
        return self.multiplicity.certified

    def row(self) -> dict:
        return {
            "t_a": str(self.t.a),
            "t_b": str(self.t.b),
            "iota0": self.iota0,
            "iota1": self.iota1,
            "length": self.length,
            "folded_angle": self.folded_angle,
            "q": self.q,
            "primitive_length": self.primitive_length,
            "num_splits": len(self.splits),
            "multiplicity_lo": str(self.multiplicity.lo),
            "multiplicity_hi": str(self.multiplicity.hi),
            "certified": self.multiplicity.certified,
        }


@dataclass
class EllipticClass:
    t: FieldElement
    angle_0: float
    folded_angle: float
    splits: list
    multiplicity: Multiplicity
    weight_terms: list  # (m1, #O^1) pairs per realizable split


def _abs_embedding(field: BaseField, t: FieldElement, place: int):
    """|iota_place(t)| = |X +- Y*sqrt(m)|/c at LENGTH_PREC_BITS, from the
    integers of t = (X + Y*sqrt(m))/c."""
    mp.prec = LENGTH_PREC_BITS
    X, Y = field._xy(t)
    return abs(X + (Y if place == 0 else -Y) * mp.sqrt(field.m)) / (2 if field._half_basis else 1)


def trace_length(field: BaseField, t: FieldElement) -> float:
    """Geodesic length: 2 arccosh(|iota_0(t)|/2), evaluated at 96 bits."""
    return float(2 * mp.acosh(_abs_embedding(field, t, 0) / 2))


def trace_folded_angle(field: BaseField, t: FieldElement, place: int = 1) -> float:
    """Folded holonomy angle 2 arccos(|iota_place(t)|/2) in (0, pi]."""
    return float(2 * mp.acos(_abs_embedding(field, t, place) / 2))


def is_hyperbolic_elliptic_trace(field: BaseField, t: FieldElement) -> bool:
    """Exact sign test: |iota_0(t)| > 2 and |iota_1(t)| < 2."""
    a0 = (t - 2).sign(0) > 0 or (t + 2).sign(0) < 0
    a1 = (t - 2).sign(1) < 0 and (t + 2).sign(1) > 0
    return a0 and a1


def is_elliptic_trace(field: BaseField, t: FieldElement) -> bool:
    return all((t - 2).sign(place) < 0 and (t + 2).sign(place) > 0 for place in (0, 1))


def canonical_trace_sign(t: FieldElement) -> FieldElement:
    """Representative of {t, -t} with positive leading embedding."""
    if t.a == 0 and t.b == 0:
        return t
    return t if t.sign(0) > 0 else -t


def enumerate_traces(field: BaseField, x: float) -> list[FieldElement]:
    """All hyperbolic-elliptic traces with length <= x, up to sign, ordered
    by (iota_0, a, b): the part of BaseField.trace_strip(2 cosh(x/2)) with
    iota_0 > 2 (an exact sign) and length <= x at 96-bit precision. A cutoff
    whose 2 cosh(x/2) exceeds MAX_STRIP_RADIUS raises ValueError.
    """
    if not 0 < x <= 2 * math.acosh(MAX_STRIP_RADIUS / 2):
        raise ValueError(f"cutoff x must be positive with 2 cosh(x/2) <= {MAX_STRIP_RADIUS:g}, got {x}")
    return [t for t in field.trace_strip(2 * math.cosh(x / 2))
            if (t - 2).sign(0) > 0 and trace_length(field, t) <= x + 1e-12]


def enumerate_elliptic_traces(field: BaseField) -> list[FieldElement]:
    """All elliptic traces (every embedding inside (-2,2)), up to sign,
    ordered by (iota_0, a, b): the part of BaseField.trace_strip(2) with
    iota_0 < 2 (an exact sign)."""
    return [t for t in field.trace_strip(2) if (t - 2).sign(0) < 0]


def primitive_decomposition(order: RelativeQuadraticOrder, arith, t: FieldElement):
    """Power index q and primitive trace for the class element in this order.

    alpha = (t + f sqrt(Dred))/2 lies in the order; q is read off from the
    regulator ratio and certified by the exact identity alpha = +-eps^q.
    """
    alpha = order.from_sqrt_form(t, order.f_elt)
    if alpha is None:
        alpha = order.from_sqrt_form(t, -order.f_elt)
    assert alpha is not None, "class element missing from its order"
    rho = order.embeddings(alpha)[0]
    i0 = max(abs(rho[0]), abs(rho[1]))
    q0 = max(1, round(math.log(i0) / arith.reg))
    conj = order.rel_conj(alpha)
    for q in (q0, q0 + 1, max(1, q0 - 1)):
        eps_pow = _order_power(order, arith.eps_rel, q)
        neg = tuple(-c for c in eps_pow)
        if alpha in (eps_pow, neg) or conj in (eps_pow, neg):
            t_p = order.rel_trace(arith.eps_rel)
            return q, t_p
    raise AssertionError("power verification failed: unit search bug")


def _order_power(order, x, k: int):
    r = order.one()
    base = x
    while k:
        if k & 1:
            r = order.mul(r, base)
        base = order.mul(base, base)
        k >>= 1
    return r


def _split_data(field: BaseField, D: FieldElement, d_id: IdealK, f_id: IdealK,
                spec: LatticeSpec, cache: OrderCache | None):
    """(SplitData, order, arithmetic) of the split (D) = d * f^2; the
    arithmetic is None, and m1 zero, when the split is not realizable."""
    order = build_order(field, D, d_id, f_id)
    sd = SplitData(d_id, f_id, order.realizable)
    if not order.realizable:
        sd.m1 = Multiplicity(Fraction(0), Fraction(0), True)
        return sd, order, None
    arith = compute_arithmetic(order, cache)
    sd.h_O, sd.unit_index, sd.reg, sd.certified = arith.h_O, arith.unit_index, arith.reg, arith.certified
    sd.m1 = embedding_count(order, spec, arith.h_O, arith.unit_index, arith.certified)
    return sd, order, arith


def classify_trace(field: BaseField, t: FieldElement, spec: LatticeSpec,
                   cache: OrderCache | None = None):
    """GeodesicClass rows for one trace (one row per power index present)."""
    t = canonical_trace_sign(t)
    if not is_hyperbolic_elliptic_trace(field, t):
        if (t - 2).sign(0) == 0 or (t + 2).sign(0) == 0 or (t * t - 4) == 0:
            raise ValueError("parabolic trace (t = +-2) excluded")
        raise ValueError("trace is not hyperbolic-elliptic")
    D = t * t - 4
    length = trace_length(field, t)
    angle = trace_folded_angle(field, t)
    iota0 = abs(t.approx(0))
    iota1 = abs(t.approx(1))
    groups: dict[int, list[SplitData]] = {}
    for d_id, f_id in square_divisor_splits(D):
        sd, order, arith = _split_data(field, D, d_id, f_id, spec, cache)
        if arith is None:
            sd.q = 0
            groups.setdefault(-1, []).append(sd)
            continue
        sd.q, sd.primitive_trace = primitive_decomposition(order, arith, t)
        groups.setdefault(sd.q, []).append(sd)
    rows = []
    nonreal = groups.pop(-1, [])
    for q in sorted(groups):
        splits = groups[q] + (nonreal if q == min(groups) else [])
        mult = Multiplicity(Fraction(0), Fraction(0), True)
        for sd in splits:
            mult = mult + sd.m1
        rows.append(GeodesicClass(
            t=t, iota0=iota0, iota1=iota1, length=length, folded_angle=angle,
            q=q, primitive_length=length / q, splits=splits, multiplicity=mult,
        ))
    if not rows:  # all splits non-realizable cannot happen (d = (D) always is)
        raise AssertionError("no realizable split")
    return rows


def classify_elliptic_trace(field: BaseField, t: FieldElement, spec: LatticeSpec,
                            cache: OrderCache | None = None) -> EllipticClass:
    t = canonical_trace_sign(t)
    if not is_elliptic_trace(field, t):
        raise ValueError("trace is not elliptic")
    D = t * t - 4
    if D == 0:
        raise ValueError("parabolic trace excluded")
    angle0 = trace_folded_angle(field, t, place=0)
    angle1 = trace_folded_angle(field, t, place=1)
    splits = []
    weight_terms = []
    mult = Multiplicity(Fraction(0), Fraction(0), True)
    for d_id, f_id in square_divisor_splits(D):
        sd, _, arith = _split_data(field, D, d_id, f_id, spec, cache)
        if arith is not None:
            weight_terms.append((sd.m1, arith.torsion))
            mult = mult + sd.m1
        splits.append(sd)
    return EllipticClass(t, angle0, angle1, splits, mult, weight_terms)


@dataclass
class GeodesicTable:
    field_m: int
    x_max: float
    rows: list
    elliptic: list


def length_spectrum(field: BaseField, x: float, spec: LatticeSpec,
                    cache: OrderCache | None = None, with_elliptic: bool = True) -> GeodesicTable:
    """All geodesic classes with length <= x, sorted by length; deterministic."""
    rows = []
    for t in enumerate_traces(field, x):
        rows.extend(classify_trace(field, t, spec, cache))
    rows.sort(key=lambda r: (r.length, str(r.t.a), str(r.t.b), r.q))
    ell = []
    if with_elliptic:
        for t in enumerate_elliptic_traces(field):
            ell.append(classify_elliptic_trace(field, t, spec, cache))
    return GeodesicTable(field.m, x, rows, ell)


CSV_COLUMNS = [
    "t_a", "t_b", "iota0", "iota1", "length", "folded_angle", "q",
    "primitive_length", "num_splits", "multiplicity_lo", "multiplicity_hi", "certified",
]
