import math

import pytest
from mpmath import mp

from holonomy.fields import format_element, make_field
from holonomy.orders import LatticeSpec
from holonomy.spectrum import (
    canonical_trace_sign,
    classify_elliptic_trace,
    classify_trace,
    enumerate_elliptic_traces,
    enumerate_traces,
    is_elliptic_trace,
    is_hyperbolic_elliptic_trace,
    length_spectrum,
    trace_folded_angle,
    trace_length,
)

K2 = make_field(2)
K5 = make_field(5)
SPEC2 = LatticeSpec.hilbert(K2)


def box_traces(field, x):
    """The O(R^2) coordinate-box scan that the O(R) strip of enumerate_traces
    replaced, kept as its oracle."""
    R = 2 * math.cosh(x / 2)
    w0 = field.w().approx(0)
    w1 = field.w().approx(1)
    bmax = int((R + 2) / abs(w0 - w1)) + 2
    amax = int((R + 2) / 2) + 2
    out = []
    seen = set()
    for b in range(-bmax, bmax + 1):
        for a in range(-amax, amax + 1):
            t = canonical_trace_sign(field.elt(a, b))
            key = (t.a, t.b)
            if key in seen or not is_hyperbolic_elliptic_trace(field, t):
                continue
            seen.add(key)
            if trace_length(field, t) <= x + 1e-12:
                out.append(t)
    out.sort(key=lambda z: (z.approx(0), z.a, z.b))
    return out


def box_elliptic_traces(field):
    """The coordinate-box scan that enumerate_elliptic_traces replaced."""
    w0 = field.w().approx(0)
    w1 = field.w().approx(1)
    bmax = int(4 / abs(w0 - w1)) + 2
    out = []
    seen = set()
    for b in range(-bmax, bmax + 1):
        for a in range(-4, 5):
            t = canonical_trace_sign(field.elt(a, b))
            key = (t.a, t.b)
            if key in seen or not is_elliptic_trace(field, t):
                continue
            seen.add(key)
            out.append(t)
    out.sort(key=lambda z: (z.approx(0), abs(z.a), abs(z.b), z.a, z.b))
    return out


class TestEnumeration:
    def test_x3_trace_set(self):
        got = {format_element(t) for t in enumerate_traces(K2, 3.0)}
        assert got == {"1+w", "2+w", "3+w", "1+2*w"}

    def test_empty_below_systole(self):
        assert enumerate_traces(K2, 0.5) == []

    def test_prefix_property(self):
        small = {(t.a, t.b) for t in enumerate_traces(K2, 3.0)}
        big = {(t.a, t.b) for t in enumerate_traces(K2, 6.0)}
        assert small <= big

    def test_rational_traces_never_included(self):
        for t in enumerate_traces(K2, 6.0):
            assert t.b != 0

    def test_matches_brute_force_scan_x6(self):
        brute = set()
        for a in range(-200, 201):
            for b in range(-200, 201):
                t = K2.elt(a, b)
                if not is_hyperbolic_elliptic_trace(K2, t):
                    continue
                tc = canonical_trace_sign(t)
                if trace_length(K2, tc) <= 6.0 + 1e-12:
                    brute.add((tc.a, tc.b))
        assert {(t.a, t.b) for t in enumerate_traces(K2, 6.0)} == brute

    def test_elliptic_sets(self):
        assert {format_element(t) for t in enumerate_elliptic_traces(K2)} == {"0", "1", "w"}
        got5 = {format_element(t) for t in enumerate_elliptic_traces(K5)}
        assert "w" in got5  # golden ratio trace
        assert "0" in got5

    @pytest.mark.parametrize("m,x", [(2, x) for x in (1.5, 4, 7, 8.5, 10)]
                             + [(m, x) for m in (3, 5, 13, 17) for x in (2, 4.5, 7)])
    def test_strip_matches_box_scan(self, m, x):
        K = make_field(m)
        assert [(t.a, t.b) for t in enumerate_traces(K, x)] == [(t.a, t.b) for t in box_traces(K, x)]

    @pytest.mark.parametrize("m", [2, 3, 5, 13, 17])
    def test_elliptic_strip_matches_box_scan(self, m):
        K = make_field(m)
        got = enumerate_elliptic_traces(K)
        assert got and [(t.a, t.b) for t in got] == [(t.a, t.b) for t in box_elliptic_traces(K)]

    def test_cutoff_positive_required(self):
        with pytest.raises(ValueError):
            enumerate_traces(K2, -1.0)


class TestClassify:
    def test_lengths_and_angles(self):
        rows = classify_trace(K2, K2.elt(2, 1), SPEC2)
        r = rows[0]
        mp.prec = 120
        i0 = 2 + mp.sqrt(2)
        assert abs(r.length - float(2 * mp.acosh(i0 / 2))) < 1e-12
        assert abs(r.length - 2.2567679299) < 1e-9
        i1 = 2 - mp.sqrt(2)
        assert abs(r.folded_angle - float(2 * mp.acos(i1 / 2))) < 1e-12
        assert len(r.splits) == 2  # one realizable + one flagged non-realizable
        assert float(r.multiplicity.lo) == 4.0

    def test_folded_angle_formula_t_1_plus_w(self):
        # 2 arccos(|iota_1|/2) with iota_1 = 1 - sqrt(2)
        got = trace_folded_angle(K2, K2.elt(1, 1))
        mp.prec = 120
        want = float(2 * mp.acos(abs(1 - mp.sqrt(2)) / 2))
        assert abs(got - want) < 1e-12
        assert abs(got - 2.7243592729) < 1e-9

    def test_parabolic_rejected(self):
        with pytest.raises(ValueError):
            classify_trace(K2, K2.elt(2, 0), SPEC2)
        with pytest.raises(ValueError):
            classify_trace(K2, K2.elt(-2, 0), SPEC2)

    def test_non_hyperbolic_elliptic_rejected(self):
        with pytest.raises(ValueError):
            classify_trace(K2, K2.elt(9, 2), SPEC2)

    def test_power_structure_acceptance_case(self):
        rows = classify_trace(K2, K2.elt(1, 2), SPEC2)
        assert len(rows) == 1
        r = rows[0]
        assert r.q == 2
        sd = r.splits[0]
        assert format_element(sd.primitive_trace) == "1+w"
        assert abs(r.primitive_length - trace_length(K2, K2.elt(1, 1))) < 1e-12

    def test_length_angle_consistency_invariants(self):
        for t in enumerate_traces(K2, 5.0):
            D = t * t - 4
            rows = classify_trace(K2, t, SPEC2)
            r = rows[0]
            lhs = 4 * math.cosh(r.length / 2) ** 2 - 4
            assert abs(lhs - D.approx(0)) < 1e-10 * max(1, abs(lhs))
            rhs = 4 - 4 * math.cos(r.folded_angle / 2) ** 2
            assert abs(rhs - (-D.approx(1))) < 1e-10

    def test_primitive_rows_have_full_length(self):
        for t in enumerate_traces(K2, 4.0):
            for r in classify_trace(K2, t, SPEC2):
                if r.q == 1:
                    assert r.primitive_length == r.length

    def test_multiplicity_convention_h1_ui2(self):
        # rows whose realizable splits all have h=1, unit index 2 carry
        # multiplicity 2 per realizable split
        rows = classify_trace(K2, K2.elt(1, 1), SPEC2)
        r = rows[0]
        assert all(sd.h_O == 1 and sd.unit_index == 2 for sd in r.splits if sd.realizable)
        n_real = sum(1 for sd in r.splits if sd.realizable)
        assert float(r.multiplicity.lo) == 2.0 * n_real

    def test_elliptic_classification(self):
        e = classify_elliptic_trace(K2, K2.elt(0, 0), SPEC2)
        assert abs(e.angle_0 - math.pi) < 1e-12
        assert {n1 for _, n1 in e.weight_terms} == {4, 8}
        e1 = classify_elliptic_trace(K2, K2.elt(1, 0), SPEC2)
        assert {n1 for _, n1 in e1.weight_terms} == {6}


class TestTable:
    def test_spectrum_sorted_and_prefix(self):
        tab4 = length_spectrum(K2, 4.0, SPEC2, with_elliptic=False)
        lengths = [r.length for r in tab4.rows]
        assert lengths == sorted(lengths)
        tab3 = length_spectrum(K2, 3.0, SPEC2, with_elliptic=False)
        keys3 = [(str(r.t), r.q) for r in tab3.rows]
        keys4 = [(str(r.t), r.q) for r in tab4.rows if r.length <= 3.0 + 1e-12]
        assert keys3 == keys4

    def test_x3_row_count(self):
        tab = length_spectrum(K2, 3.0, SPEC2, with_elliptic=False)
        assert len(tab.rows) == 4
        assert format_element(tab.rows[0].t) == "1+w"

    def test_all_rows_certified_small_cutoff(self):
        tab = length_spectrum(K2, 4.0, SPEC2, with_elliptic=False)
        assert all(r.certified for r in tab.rows)
