"""Counting and equidistribution reports, and the geometric side of the
hybrid trace formula, evaluated on enumerated geodesic tables.

Main terms follow the asymptotic counting statements: the primitive count
against 2^n Li(e^x), the weighted length sum against 2^(n+1) e^(x/2), unit
equidistribution against 2^(deg-2) Li(T^2) mu(f). In degree 2 the quotient
is noncompact, so every report carries an "empirical extension" caveat tag;
cutoff-trend behavior, not limits, is what the desk-scale suite checks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dfield
from functools import cache, cached_property
from pathlib import Path

import mpmath

from .extremal import MAJORANT, MINORANT, build_majorant
from .fields import format_element
from .measure import TrigFunction, eval_char, m_star, mu_of_trig, mu_rect
from .spectrum import GeodesicTable

DEGREE2_CAVEAT = "degree-2 base field: noncompact quotient, empirical extension"


def li(x: float) -> float:
    """Offset logarithmic integral: integral from 2 to x of dt/log t."""
    if x <= 2:
        if x == 2:
            return 0.0
        raise ValueError("li requires x > 2")
    return float(mpmath.li(x, offset=True))


@dataclass
class ComparisonReport:
    kind: str
    rows: list
    metadata: dict = dfield(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "rows": self.rows, "metadata": self.metadata}

    def to_text(self) -> str:
        lines = [f"# {self.kind}"]
        for k in sorted(self.metadata):
            lines.append(f"# {k} = {_fmt(self.metadata[k])}")
        if self.rows:
            cols = list(self.rows[0].keys())
            lines.append("  ".join(f"{c:>18}" for c in cols))
            for r in self.rows:
                lines.append("  ".join(f"{_fmt(r[c]):>18}" for c in cols))
        return "\n".join(lines) + "\n"


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def primitive_count(table: GeodesicTable, x: float) -> float:
    """pi_p(x): primitive classes counted with certified multiplicity."""
    total = 0.0
    for r in table.rows:
        if r.q == 1 and r.primitive_length <= x + 1e-12:
            total += float(r.multiplicity.lo)
    return total


def theta_sum(table: GeodesicTable, x: float) -> float:
    """Weighted length sum over all classes with length <= x."""
    total = 0.0
    for r in table.rows:
        if r.length <= x + 1e-12:
            total += float(r.multiplicity.lo) * r.primitive_length / (2 * math.sinh(r.length / 2))
    return total


def _check_grid(table: GeodesicTable, grid) -> None:
    """Every grid point must be finite and inside the table's length coverage."""
    for x in grid:
        if not math.isfinite(x):
            raise ValueError(f"grid point {x} is not finite")
        if x > table.x_max + 1e-9:
            raise ValueError(f"grid point {x} exceeds table coverage {table.x_max}")


def pgt_report(table: GeodesicTable, grid, count_all: bool = False) -> ComparisonReport:
    """Counting report: Theta(x) vs 2^(n+1) e^(x/2), pi_p(x) vs 2^n Li(e^x).

    count_all switches the count column from primitive classes to all
    classes (same main term asymptotically).
    """
    n = 1
    uncertified = [format_element(r.t) for r in table.rows if not r.certified]
    _check_grid(table, grid)
    rows = []
    for x in grid:
        th = theta_sum(table, x)
        th_main = 2 ** (n + 1) * math.exp(x / 2)
        if count_all:
            cnt = sum(
                float(r.multiplicity.lo) for r in table.rows if r.length <= x + 1e-12
            )
        else:
            cnt = primitive_count(table, x)
        cnt_main = 2 ** n * li(math.exp(x))
        rows.append({
            "x": x,
            "theta": th,
            "theta_main": th_main,
            "theta_ratio": th / th_main,
            "count": cnt,
            "count_main": cnt_main,
            "count_ratio": cnt / cnt_main if cnt_main > 0 else float("nan"),
        })
    meta = {
        "field_m": table.field_m,
        "n": n,
        "count_convention": "all classes" if count_all else "primitive classes (q=1 splits)",
        "li_convention": "integral from 2",
        "caveat": DEGREE2_CAVEAT,
        "uncertified_rows": ",".join(uncertified) if uncertified else "none",
        "rate_annotation": "error exponents 1/4 and alpha-1/2 from the spectral gap; not computed here",
    }
    return ComparisonReport("pgt", rows, meta)


def _sym_eval_trig(f: TrigFunction, theta: float) -> float:
    return 0.5 * (f.eval_real((theta,)) + f.eval_real((-theta,)))


def weyl_sum(table: GeodesicTable, fn, x: float) -> float:
    """(1/pi_p) sum of fn over folded angles of primitive classes, weighted."""
    denom = primitive_count(table, x)
    if denom == 0:
        return 0.0
    total = 0.0
    for r in table.rows:
        if r.q == 1 and r.primitive_length <= x + 1e-12:
            total += float(r.multiplicity.lo) * fn(r.folded_angle)
    return total / denom


def equi_report_function(table: GeodesicTable, f: TrigFunction, grid) -> ComparisonReport:
    """Equidistribution of folded holonomy angles against a test function."""
    _check_grid(table, grid)
    target = mu_of_trig(f).real
    rows = []
    for x in grid:
        val = weyl_sum(table, lambda th: _sym_eval_trig(f, th), x)
        rows.append({
            "x": x,
            "weyl_sum": val,
            "mu_f": target,
            "deviation": val - target,
            "pi_p": primitive_count(table, x),
        })
    meta = {
        "field_m": table.field_m,
        "target": "trig function (sign-symmetrized evaluation)",
        "caveat": DEGREE2_CAVEAT,
        "rate_annotation": "O(e^{-x/4}) + O(e^{(alpha-1/2)x}) per the smooth equidistribution statement",
    }
    return ComparisonReport("equi-function", rows, meta)


def _symmetrize_interval(lo: float, hi: float):
    """Intervals of the sign-symmetrized set (A union -A) inside [-pi, pi]."""
    if lo > hi:
        raise ValueError("empty interval")
    if lo <= 0 <= hi:
        m = max(-lo, hi)
        return [(-m, m)]
    if lo > 0:
        return [(-hi, -lo), (lo, hi)]
    return [(lo, hi), (-hi, -lo)]


def _folded_sum(table: GeodesicTable, polys):
    """th -> sum over polys of (S(th) + S(-th))/2 at the table's folded
    angles, each polynomial evaluated once over all of them."""
    import numpy as np

    angles = [r.folded_angle for r in table.rows]
    th = np.array(angles, dtype=float)
    vals = [(S.eval_grid(th), S.eval_grid(-th)) for S in polys]
    sums = [sum(0.5 * (float(p[i]) + float(q[i])) for p, q in vals) for i in range(len(angles))]
    return dict(zip(angles, sums)).__getitem__


def equi_report_rectangle(table: GeodesicTable, interval, N: int, grid,
                          symmetrize: bool = False) -> ComparisonReport:
    """Sharp-cutoff equidistribution for an interval of angles (n = 1).

    Folded data cannot resolve a sign-asymmetric window; such inputs are
    rejected unless symmetrize is set, in which case the report concerns
    A union -A. The frequency is bracketed by extremal majorant/minorant
    Weyl sums of degree N.
    """
    _check_grid(table, grid)
    lo, hi = float(interval[0]), float(interval[1])
    symmetric = abs(lo + hi) < 1e-12 or lo >= 0 or hi <= 0
    if not (abs(lo + hi) < 1e-12):
        if not symmetrize:
            raise ValueError("interval is not symmetric; pass symmetrize=True to fold it")
    pieces = _symmetrize_interval(lo, hi)
    mu_a = sum(mu_rect([p]) for p in pieces)
    up_fn = _folded_sum(table, [build_majorant(p, N, MAJORANT) for p in pieces])
    dn_fn = _folded_sum(table, [build_majorant(p, N, MINORANT) for p in pieces])
    rows = []
    for x in grid:
        freq = weyl_sum(table, lambda th: 1.0 if any(a <= th <= b or a <= -th <= b for a, b in pieces) else 0.0, x)
        up = weyl_sum(table, up_fn, x)
        dn = weyl_sum(table, dn_fn, x)
        rows.append({
            "x": x,
            "frequency": freq,
            "minorant_estimate": dn,
            "majorant_estimate": up,
            "bracket_width": up - dn,
            "mu_A": mu_a,
            "pi_p": primitive_count(table, x),
        })
    meta = {
        "field_m": table.field_m,
        "interval": f"{lo}:{hi}",
        "symmetrized": not symmetric or symmetrize,
        "N": N,
        "mu_deviation_bound_per_side": 1 / (N + 1),
        "caveat": DEGREE2_CAVEAT,
        "rate_annotation": "exponent c = 1/(2(n+2)) if alpha <= 1/(2(n+2)) else (1-2alpha)/(2(n+1))",
    }
    return ComparisonReport("equi-rectangle", rows, meta)


def units_report(table: GeodesicTable, T: float, f: TrigFunction) -> ComparisonReport:
    """Distribution of relative fundamental units over (D, d) pairs.

    Pairs with iota_0(eps) <= T correspond to primitive rows with
    primitive_length <= 2 log T; the weighted sum of f at the unit angles is
    compared to 2^(deg-2) Li(T^2) mu(f).
    """
    if not f.is_sign_symmetric():
        raise ValueError("test function must be invariant under sign changes")
    x = 2 * math.log(T)
    if x > table.x_max + 1e-9:
        raise ValueError("T exceeds table coverage")
    total = 0.0
    for r in table.rows:
        if r.q == 1 and r.primitive_length <= x + 1e-12:
            total += float(r.multiplicity.lo) * _sym_eval_trig(f, r.folded_angle)
    deg = 2
    main = 2 ** (deg - 2) * (li(T * T) if T * T > 2 else 0.0) * mu_of_trig(f).real
    rows = [{
        "T": T,
        "weighted_sum": total,
        "main_term": main,
        "ratio": total / main if main else float("nan"),
    }]
    meta = {
        "field_m": table.field_m,
        "dictionary": "iota_0(eps) = e^(l_p / 2)",
        "caveat": DEGREE2_CAVEAT,
    }
    return ComparisonReport("units", rows, meta)


# ---------------------------------------------------------------------------
# test functions for the trace formula


@dataclass
class TestFunctionSpec:
    """Even test pair (h, hhat) with hhat compactly supported.

    families:
      indicator_conv(x, eps): hhat = indicator of [-x,x] convolved with a
        bump of width eps; support [-(x+eps), x+eps].
      bump(s): hhat(t) = exp(-1/(1-(t/s)^2)) on |t| < s.
    """

    __test__ = False  # pytest: not a test class despite the name

    family: str
    params: tuple

    def __post_init__(self):
        arity = {"indicator_conv": 2, "bump": 1, "zero": 0}
        if self.family not in arity:
            raise ValueError(f"unknown test function family {self.family!r}")
        if len(self.params) != arity[self.family]:
            raise ValueError(f"test function {self.family} takes {arity[self.family]} "
                             f"parameter(s), got {len(self.params)}")
        if not all(math.isfinite(p) for p in self.params):
            raise ValueError(f"test function {self.family} parameters must be finite, got {self.params}")
        if self.family == "bump" and not self.params[0] > 0:
            raise ValueError(f"bump support s must be positive, got {self.params[0]}")
        if self.family == "indicator_conv":
            xx, eps = self.params
            if not xx >= 0:
                raise ValueError(f"indicator_conv half-width x must be >= 0, got {xx}")
            if not eps > 0:
                raise ValueError(f"indicator_conv smoothing eps must be positive, got {eps}")

    @property
    def support(self) -> float:
        if self.family == "indicator_conv":
            return self.params[0] + self.params[1]
        if self.family == "bump":
            return self.params[0]
        if self.family == "zero":
            return 0.0
        raise ValueError(f"unknown family {self.family}")

    def hhat(self, t: float) -> float:
        if self.family == "zero":
            return 0.0
        if self.family == "indicator_conv":
            xx, eps = self.params
            a = max(-1.0, (t - xx) / eps)
            b = min(1.0, (t + xx) / eps)
            if b <= a:
                return 0.0
            return _bump_integral(a, b)
        if self.family == "bump":
            s = self.params[0]
            u = t / s
            if abs(u) >= 1:
                return 0.0
            return math.exp(-1 / (1 - u * u))
        raise ValueError(self.family)

    def h_identity_integral(self, tol: float = 1e-9) -> float:
        """int over R of h(r) r tanh(pi r) dr by vectorized segment summation."""
        if self.family == "zero":
            return 0.0
        import numpy as np

        nodes, weights = _gl_nodes(48)
        total = 0.0
        consecutive_small = 0
        width = 1.0
        for seg in range(400):
            a = seg * width
            r = 0.5 * width * nodes + a + 0.5 * width
            vals = self._h_grid(r) * r * np.tanh(np.pi * r)
            val = 0.5 * width * float(np.sum(weights * vals))
            total += val
            if abs(val) < tol / 10:
                consecutive_small += 1
                if consecutive_small >= 3:
                    break
            else:
                consecutive_small = 0
        return 2 * total

    def _h_grid(self, r):
        """h on a real numpy grid (vectorized)."""
        import numpy as np

        if self.family == "zero":
            return np.zeros_like(r)
        nodes, wvals, norm = _bump_rule()
        if self.family == "indicator_conv":
            xx, eps = self.params
            # bump transform on the grid: sum_i w_i v_i cos(eps r t_i)
            ft = wvals @ np.cos(np.outer(nodes, eps * r)) / norm
            core = np.where(np.abs(r) < 1e-12, 2 * xx, 2 * np.sin(xx * r) / np.where(r == 0, 1, r))
            return core * ft
        s = self.params[0]
        return s * (wvals @ np.cos(np.outer(nodes * s, r)))

    @cached_property
    def _elliptic_nodes(self) -> list:
        """(w, hhat(u), e^{-u/2}, e^u, cosh u) at the 800 Gauss-Legendre
        nodes u over [-support, support] where hhat(u) != 0: every factor of
        htilde0 that does not depend on theta."""
        s = self.support
        nodes, weights = _gl_nodes(800)
        out = []
        for ui, wi in zip((s * nodes).tolist(), (s * weights).tolist()):
            hv = self.hhat(ui)
            if hv != 0.0:
                out.append((wi, hv, math.exp(-ui / 2), math.exp(ui), math.cosh(ui)))
        return out

    def htilde0(self, theta: float) -> complex:
        """Elliptic-term transform at weight zero (quadrature over supp hhat).

        (i/4) int hhat(u) e^{-(u + i theta)/2} (e^u - e^{i theta}) /
                (cosh u - cos theta) du
        """
        cth = math.cos(theta)
        eith = complex(math.cos(theta), math.sin(theta))
        c2, s2 = math.cos(-theta / 2), math.sin(-theta / 2)
        out = 0j
        for wi, hv, em, ep, ch in self._elliptic_nodes:
            out += wi * (hv * complex(em * c2, em * s2) * (ep - eith) / (ch - cth))
        return 0.25j * out

    def label(self) -> str:
        return f"{self.family}({','.join(_fmt(p) for p in self.params)})"


_GL_TABLE = Path(__file__).with_name("gauss_legendre.npz")


@cache
def _gl_nodes(n: int):
    """Gauss-Legendre rule (nodes, weights) of n points on [-1, 1], equal bit
    for bit to numpy's leggauss(n): the mirrored nonnegative half tabulated
    in gauss_legendre.npz (scripts/gauss_legendre_table.py writes it). An n
    not in the table raises KeyError."""
    import numpy as np

    with np.load(_GL_TABLE) as table:
        x, w = table[f"x{n}"], table[f"w{n}"]
    return np.concatenate((-x[::-1], x)), np.concatenate((w[::-1], w))


@cache
def _bump_rule():
    """(nodes, weights * v, sum of weights * v) for the 200-point rule and the
    bump v = exp(-1/(1 - nodes^2)): the nodes, the weighted bump values and
    the bump's integral over [-1, 1]."""
    import numpy as np

    nodes, weights = _gl_nodes(200)
    wvals = weights * np.exp(-1 / (1 - nodes ** 2))
    return nodes, wvals, float(np.sum(wvals))


def _bump_integral(a: float, b: float) -> float:
    """Integral of the normalized bump over [a, b] subset [-1, 1]."""
    import numpy as np

    nodes, weights = _gl_nodes(200)
    t = 0.5 * (b - a) * nodes + 0.5 * (a + b)
    vals = np.exp(-1 / np.maximum(1 - t * t, 1e-300))
    return float(0.5 * (b - a) * np.sum(weights * vals) / _bump_rule()[2])


# ---------------------------------------------------------------------------
# geometric side of the hybrid trace formula


def geometric_side(table: GeodesicTable, m_index, tf: TestFunctionSpec, vol: float):
    """Identity + hyperbolic-elliptic + elliptic terms at weight vector m.

    The test transform must be supported inside the table's length coverage
    so the truncation is exact, not approximate. Returns a dict of the three
    terms and their total (the spectral side is out of scope).
    """
    if not 0 < vol < math.inf:
        raise ValueError(f"vol must be positive and finite, got {vol}")
    if tf.support > table.x_max + 1e-9:
        raise ValueError("hhat support exceeds table coverage; truncation would be lossy")
    mv = m_index if isinstance(m_index, (tuple, list)) else (m_index,)
    n = len(mv)
    ident = (2 ** n) * m_star(mv) * vol / (4 * math.pi) ** (n + 1) * tf.h_identity_integral()
    hyper = 0.0
    for r in table.rows:
        hh = tf.hhat(r.length)
        if hh == 0.0:
            continue
        hyper += float(r.multiplicity.lo) * r.primitive_length * hh * \
            eval_char(mv, (r.folded_angle,)) / (2 * math.sinh(r.length / 2))
    hyper *= (-1) ** n
    ellip = 0.0
    for e in table.elliptic:
        fm = eval_char(mv, (e.folded_angle,))
        ht = tf.htilde0(e.angle_0).real
        s0 = math.sin(e.angle_0 / 2)
        for m1, n1 in e.weight_terms:
            ellip += float(m1.lo) * (2.0 / n1) * ht * fm / s0
    ellip *= (-1) ** n
    return {
        "identity_term": ident,
        "hyperbolic_elliptic_term": hyper,
        "elliptic_term": ellip,
        "total": ident + hyper + ellip,
        "weight": list(mv),
        "vol": vol,
        "testfn": tf.label(),
    }


def sign_invariance_report(field, sign_report) -> dict:
    """Certified-implication report on holonomy sign-change invariance.

    When the class and narrow class numbers agree, all sign changes are
    guaranteed for lattices from maximal orders (and their principal
    congruence subgroups) over this field; otherwise only full time
    reversal is guaranteed. No angle data is consulted: folded tables
    cannot test the statement empirically.
    """
    if sign_report.narrow_equals_class:
        guarantee = "GUARANTEED: invariance under all sign changes"
    else:
        guarantee = "only time reversal (sigma = -1) guaranteed"
    return {
        "field_m": field.m,
        "narrow_equals_class": sign_report.narrow_equals_class,
        "sign_images": sorted(map(list, sign_report.sign_images)),
        "guarantee": guarantee,
        "applies_to": "lattices derived from maximal quaternion orders over this field and their principal congruence subgroups",
        "mechanism": "unit signs realize all patterns iff h = h+; conjugation by a negative-determinant normalizer flips holonomy signs",
    }


def report_to_json(report: ComparisonReport, digest: str = "") -> str:
    d = report.to_json_dict()
    if digest:
        d["config_digest"] = digest
    return json.dumps(_round_floats(d), sort_keys=True, indent=1)


def _round_floats(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj
