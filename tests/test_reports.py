import fnmatch
import functools
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holonomy.fields import make_field, sign_data
from holonomy.measure import TrigFunction, mu_rect
from holonomy.orders import LatticeSpec, Multiplicity
from holonomy.reports import (
    ComparisonReport,
    TestFunctionSpec,
    _gl_nodes,
    equi_report_function,
    equi_report_rectangle,
    geometric_side,
    li,
    pgt_report,
    primitive_count,
    sign_invariance_report,
    theta_sum,
    units_report,
    weyl_sum,
)
from holonomy.spectrum import GeodesicTable, length_spectrum

K2 = make_field(2)
SPEC2 = LatticeSpec.hilbert(K2)


@pytest.fixture(scope="module")
def table4():
    return length_spectrum(K2, 4.0, SPEC2)


@pytest.fixture(scope="module")
def empty_table():
    return GeodesicTable(2, 5.0, [], [])


class TestLi:
    def test_lower_limit_convention(self):
        assert li(2.0) == 0.0

    def test_value_at_ten(self):
        direct = mpmath.quad(lambda t: 1 / mpmath.log(t), [2, 10])
        assert abs(li(10.0) - float(direct)) < 1e-10
        assert abs(li(10.0) - 5.1204) < 1e-3

    def test_strictly_increasing(self):
        xs = [2.5, 3.0, 5.0, 10.0, 100.0]
        vals = [li(x) for x in xs]
        assert vals == sorted(vals) and len(set(vals)) == len(vals)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            li(1.5)


class TestPgt:
    def test_empty_table_zero(self, empty_table):
        rep = pgt_report(empty_table, [3.0, 4.0])
        for row in rep.rows:
            assert row["theta"] == 0.0 and row["count"] == 0.0

    def test_prefix_consistency(self, table4):
        tab3 = length_spectrum(K2, 3.0, SPEC2, with_elliptic=False)
        r_small = pgt_report(tab3, [3.0]).rows[0]
        r_big = pgt_report(table4, [3.0]).rows[0]
        assert r_small["theta"] == r_big["theta"]
        assert r_small["count"] == r_big["count"]

    def test_main_terms(self, table4):
        row = pgt_report(table4, [4.0]).rows[0]
        assert abs(row["theta_main"] - 4 * math.exp(2.0)) < 1e-9
        assert abs(row["count_main"] - 2 * li(math.exp(4.0))) < 1e-9

    def test_grid_beyond_coverage_rejected(self, table4):
        with pytest.raises(ValueError):
            pgt_report(table4, [5.0])


class TestEqui:
    def test_constant_function_is_exactly_one(self, table4):
        rep = equi_report_function(table4, TrigFunction.constant(1), [3.0, 4.0])
        for row in rep.rows:
            if row["pi_p"] > 0:
                assert abs(row["weyl_sum"] - 1.0) < 1e-14
                assert row["mu_f"] == 1.0

    def test_char_target_is_zero(self, table4):
        rep = equi_report_function(table4, TrigFunction.from_char(2), [4.0])
        assert rep.rows[0]["mu_f"] == 0.0

    def test_rectangle_sandwich_order(self, table4):
        for N in (4, 8, 16):
            rep = equi_report_rectangle(table4, (-math.pi / 2, math.pi / 2), N, [4.0])
            row = rep.rows[0]
            assert row["minorant_estimate"] <= row["frequency"] + 1e-12
            assert row["frequency"] <= row["majorant_estimate"] + 1e-12
            assert abs(row["mu_A"] - (0.5 - 1 / math.pi)) < 1e-12

    def test_asymmetric_rectangle_rejected_without_flag(self, table4):
        with pytest.raises(ValueError):
            equi_report_rectangle(table4, (0.2, 1.0), 8, [4.0])
        rep = equi_report_rectangle(table4, (0.2, 1.0), 8, [4.0], symmetrize=True)
        assert rep.metadata["symmetrized"]
        # symmetrized target: mu of the union of the two mirror intervals
        assert abs(rep.rows[0]["mu_A"] - 2 * mu_rect([(0.2, 1.0)])) < 1e-12

    def test_units_report_matches_pgt_count(self, table4):
        T = math.exp(2.0)  # x = 4
        rep = units_report(table4, T, TrigFunction.constant(1))
        assert rep.rows[0]["weighted_sum"] == primitive_count(table4, 4.0)
        assert abs(rep.rows[0]["main_term"] - li(T * T)) < 1e-9

    def test_units_requires_symmetric_function(self, table4):
        f = TrigFunction(1, {(1,): 1.0})
        with pytest.raises(ValueError):
            units_report(table4, math.exp(1.5), f)

    def test_units_below_systole_zero(self):
        tab = length_spectrum(K2, 1.0, SPEC2, with_elliptic=False)
        rep = units_report(tab, math.exp(0.4), TrigFunction.constant(1))
        assert rep.rows[0]["weighted_sum"] == 0.0


class TestGeometricSide:
    def test_zero_test_function(self, table4):
        tf = TestFunctionSpec("zero", ())
        out = geometric_side(table4, (1,), tf, vol=1.0)
        assert out["total"] == 0.0

    def test_weight_one_matches_theta_path(self, table4):
        # the character at weight 1 is constant 1, so the class sum must
        # reproduce an independently coded hhat-weighted loop
        tf = TestFunctionSpec("bump", (3.5,))
        out = geometric_side(table4, (1,), tf, vol=1.0)
        direct = 0.0
        for r in table4.rows:
            direct += float(r.multiplicity.lo) * r.primitive_length * tf.hhat(r.length) \
                / (2 * math.sinh(r.length / 2))
        direct *= -1  # (-1)^n with n = 1
        assert abs(out["hyperbolic_elliptic_term"] - direct) < 1e-10

    def test_vol_linearity_exact(self, table4):
        tf = TestFunctionSpec("bump", (3.0,))
        a = geometric_side(table4, (2,), tf, vol=1.0)
        b = geometric_side(table4, (2,), tf, vol=3.5)
        assert abs(b["identity_term"] - 3.5 * a["identity_term"]) < 1e-12
        assert b["hyperbolic_elliptic_term"] == a["hyperbolic_elliptic_term"]
        assert b["elliptic_term"] == a["elliptic_term"]

    def test_multiplicity_linearity_exact(self, table4):
        tf = TestFunctionSpec("bump", (3.0,))
        doubled_rows = []
        for r in table4.rows:
            rr = type(r)(**{**r.__dict__})
            rr.multiplicity = Multiplicity(r.multiplicity.lo * 2, r.multiplicity.hi * 2, True)
            doubled_rows.append(rr)
        doubled_ell = []
        for e in table4.elliptic:
            ee = type(e)(**{**e.__dict__})
            ee.weight_terms = [(Multiplicity(m.lo * 2, m.hi * 2, True), n1)
                               for m, n1 in e.weight_terms]
            doubled_ell.append(ee)
        tab2 = GeodesicTable(2, table4.x_max, doubled_rows, doubled_ell)
        a = geometric_side(table4, (2,), tf, vol=1.0)
        b = geometric_side(tab2, (2,), tf, vol=1.0)
        assert abs(b["hyperbolic_elliptic_term"] - 2 * a["hyperbolic_elliptic_term"]) < 1e-12
        assert abs(b["elliptic_term"] - 2 * a["elliptic_term"]) < 1e-12

    def test_support_exceeding_coverage_rejected(self, table4):
        tf = TestFunctionSpec("bump", (10.0,))
        with pytest.raises(ValueError):
            geometric_side(table4, (1,), tf, vol=1.0)

    def test_weight_two_finite(self, table4):
        tf = TestFunctionSpec("indicator_conv", (3.0, 0.5))
        out = geometric_side(table4, (2,), tf, vol=2.0)
        assert math.isfinite(out["total"])


@functools.cache
def leggauss(n):
    return np.polynomial.legendre.leggauss(n)


def htilde0_loop(tf, theta):
    """htilde0 as an 800-node loop that evaluates every factor per call at
    numpy's leggauss nodes: the reference for the tabulated, precomputed one."""
    s = tf.support
    nodes, weights = leggauss(800)
    out = 0j
    cth = math.cos(theta)
    eith = complex(math.cos(theta), math.sin(theta))
    for ui, wi in zip(s * nodes, s * weights):
        hv = tf.hhat(ui)
        if hv == 0.0:
            continue
        z = -(ui + 1j * theta) / 2
        ez = complex(math.exp(z.real) * math.cos(z.imag), math.exp(z.real) * math.sin(z.imag))
        out += wi * (hv * ez * (math.exp(ui) - eith) / (math.cosh(ui) - cth))
    return 0.25j * out


def bump_hhat_mp(s):
    return lambda u: mpmath.exp(-1 / (1 - (u / s) ** 2)) if abs(u) < s else mpmath.mpf(0)


class TestQuadrature:
    @pytest.mark.parametrize("n", [48, 200, 800])
    def test_tabulated_rule_equals_leggauss(self, n):
        x, w = _gl_nodes(n)
        lx, lw = leggauss(n)
        assert np.array_equal(x, lx) and np.array_equal(w, lw)

    def test_untabulated_rule_rejected(self):
        with pytest.raises(KeyError, match="x100"):
            _gl_nodes(100)

    @settings(max_examples=40, deadline=None)
    @given(
        st.one_of(
            st.floats(0.1, 10.0).map(lambda s: TestFunctionSpec("bump", (s,))),
            st.tuples(st.floats(0.0, 5.0), st.floats(0.05, 3.0)).map(
                lambda p: TestFunctionSpec("indicator_conv", p)),
        ),
        st.floats(0.05, math.pi),
    )
    def test_htilde0_matches_per_call_loop(self, tf, theta):
        assert tf.htilde0(theta) == htilde0_loop(tf, theta)

    @pytest.mark.parametrize("s", [2.0, 3.5, 8.0])
    def test_htilde0_matches_mpmath(self, s):
        tf = TestFunctionSpec("bump", (s,))
        hh = bump_hhat_mp(s)
        for theta in (math.pi / 3, math.pi / 2, 2 * math.pi / 3):
            eith = mpmath.expj(theta)
            f = lambda u: hh(u) * mpmath.exp(-(u + 1j * theta) / 2) * (mpmath.exp(u) - eith) \
                / (mpmath.cosh(u) - mpmath.cos(theta))
            exact = 0.25j * mpmath.quad(f, [-s, 0, s])
            assert abs(tf.htilde0(theta) - complex(exact)) <= 1e-10 * abs(exact)

    # h_identity_integral stops only after three segments below tol, which
    # aliasing in _h_grid's 200-node rule never allows at large r: it sums
    # all 400 segments of noise. The exact value is the closed form
    # int h(r) r tanh(pi r) dr = -2 int_0^s hhat'(u) / sinh(u/2) du.
    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="h_identity_integral does not converge")
    @pytest.mark.parametrize("s", [2.0, 8.0])
    def test_identity_integral_matches_closed_form(self, s):
        hh = bump_hhat_mp(s)
        dhh = lambda u: hh(u) * (-2 * u / s ** 2) / (1 - (u / s) ** 2) ** 2
        closed = -2 * mpmath.quad(lambda u: dhh(u) / mpmath.sinh(u / 2), [0, s])
        assert abs(TestFunctionSpec("bump", (s,)).h_identity_integral() - float(closed)) < 1e-6


def test_package_data_lists_every_non_python_file():
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        patterns = tomllib.load(fh)["tool"]["setuptools"]["package-data"]["holonomy"]
    pkg = root / "src" / "holonomy"
    data = [p.relative_to(pkg).as_posix() for p in pkg.rglob("*")
            if p.is_file() and p.suffix not in (".py", ".pyc") and "__pycache__" not in p.parts]
    assert data, "the package ships no data file"
    assert [f for f in data if not any(fnmatch.fnmatch(f, pat) for pat in patterns)] == []


class TestSignInvariance:
    @pytest.mark.parametrize("m,expect_all", [(2, True), (3, False), (5, True)])
    def test_guarantee_levels(self, m, expect_all):
        K = make_field(m)
        rep = sign_invariance_report(K, sign_data(K))
        if expect_all:
            assert rep["guarantee"].startswith("GUARANTEED")
        else:
            assert "time reversal" in rep["guarantee"]


class TestReportRendering:
    def test_text_and_json_deterministic(self, table4):
        rep = pgt_report(table4, [3.0, 4.0])
        t1 = rep.to_text()
        t2 = pgt_report(table4, [3.0, 4.0]).to_text()
        assert t1 == t2
        import json

        from holonomy.reports import report_to_json
        j = json.loads(report_to_json(rep, "digest"))
        assert j["config_digest"] == "digest"
        assert j["rows"] == json.loads(report_to_json(rep, "digest"))["rows"]
