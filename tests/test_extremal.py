import math

import numpy as np
import pytest

from holonomy.extremal import MAJORANT, MINORANT, build_majorant, rect_approximant
from holonomy.measure import cost_functional, mu_of_trig, mu_quadrature, mu_rect

PI = math.pi

GRID = np.linspace(-PI, PI, 10001)

CASES = [
    ((-PI / 2, PI / 2), 4),
    ((-PI / 2, PI / 2), 16),
    ((0.3, 2.0), 8),
    ((-2.9, -0.4), 12),
    ((-PI, PI), 5),
    ((-0.05, 0.07), 32),
]


@pytest.mark.parametrize("interval,N", CASES)
def test_sandwich_on_grid(interval, N):
    a, b = interval
    ind = ((GRID >= a) & (GRID <= b)).astype(float)
    up = build_majorant(interval, N, MAJORANT).eval_grid(GRID)
    dn = build_majorant(interval, N, MINORANT).eval_grid(GRID)
    assert np.min(up - ind) >= -1e-12
    assert np.min(ind - dn) >= -1e-12


@pytest.mark.parametrize("interval,N", CASES)
def test_integral_defect_exact(interval, N):
    a, b = interval
    up = build_majorant(interval, N, MAJORANT)
    dn = build_majorant(interval, N, MINORANT)
    assert abs(up.integral() - ((b - a) + 2 * PI / (N + 1))) < 1e-12
    assert abs(dn.integral() - ((b - a) - 2 * PI / (N + 1))) < 1e-12


def test_integral_examples_from_contract():
    up = build_majorant((-PI / 2, PI / 2), 4, MAJORANT)
    assert abs(up.integral() - (PI + 2 * PI / 5)) < 1e-12
    dn = build_majorant((-PI, PI), 7, MINORANT)
    assert abs(dn.integral() - (2 * PI - 2 * PI / 8)) < 1e-12


@pytest.mark.parametrize("interval,N", CASES)
def test_coefficient_bounds(interval, N):
    poly = build_majorant(interval, N, MAJORANT)
    for k in range(1, N + 1):
        bound = 1 / (N + 1) + 1 / k
        assert abs(poly.coeff(k)) <= bound + 1e-14
        assert abs(poly.coeff(-k)) <= bound + 1e-14
    assert poly.coeff(N + 1) == 0  # degree support exactly N


def test_coefficient_bound_example_k3_N8():
    poly = build_majorant((0.2, 1.9), 8, MAJORANT)
    assert abs(poly.coeff(3)) <= 1 / 9 + 1 / 3 + 1e-14


@pytest.mark.parametrize("interval,N", CASES)
def test_sup_norm_bound(interval, N):
    up = build_majorant(interval, N, MAJORANT)
    assert np.max(np.abs(up.eval_grid(GRID))) <= 5.0


def test_real_valued_hermitian_coefficients(self=None):
    poly = build_majorant((0.1, 1.0), 9, MAJORANT)
    for k in range(1, 10):
        assert abs(poly.coeff(-k) - poly.coeff(k).conjugate()) < 1e-15
    vals = poly.eval_grid(GRID)
    assert np.all(np.isreal(vals))


def test_degenerate_interval_rejected():
    with pytest.raises(ValueError):
        build_majorant((1.0, 1.0), 4, MAJORANT)
    with pytest.raises(ValueError):
        build_majorant((0.5, 0.2), 4, MAJORANT)
    with pytest.raises(ValueError):
        build_majorant((0.0, 1.0), 0, MAJORANT)


@pytest.mark.parametrize("N", [4, 8, 16, 32])
def test_cost_bound_dimension_one(N):
    f, meta = rect_approximant([(-PI / 2, PI / 2)], N, MAJORANT)
    assert meta["cost_partial"] + meta["cost_tail"] <= 6 * N


@pytest.mark.parametrize("N", [4, 8, 16, 32])
def test_cost_bound_dimension_two(N):
    f, meta = rect_approximant([(-PI / 2, PI / 2), (0.3, 1.4)], N, MAJORANT)
    assert meta["cost_partial"] + meta["cost_tail"] <= (6 * N) ** 2


def test_product_cost_equals_direct_cost():
    # the tensor shortcut must agree with the generic coefficient sum
    f, meta = rect_approximant([(-1.0, 1.2)], 6, MAJORANT)
    direct, tail = cost_functional(f, f.max_degree() + 1)
    assert abs(meta["cost_partial"] + meta["cost_tail"] - direct - tail) < 1e-10


def test_rect_majorant_mu_within_certified_bound():
    f, meta = rect_approximant([(-PI / 2, PI / 2)], 16, MAJORANT)
    # certified bound 2n/(N+1); the nominal n/(N+1) is known to be exceeded
    # by this construction for this rectangle (deviation ~ 0.0622 > 1/17)
    assert meta["deviation"] <= meta["deviation_bound_certified"] + 1e-12
    assert meta["mu_f"] >= meta["mu_rect"]  # majorant integrates above
    direct = mu_quadrature(lambda th: f.eval(th), 1, 1e-10).real
    assert abs(direct - meta["mu_f"]) < 1e-8


def test_full_interval_majorant_mu_at_least_one():
    f, meta = rect_approximant([(-PI, PI)], 8, MAJORANT)
    assert meta["mu_f"] >= 1 - 1e-12


def test_minorant_product_form_is_pointwise_minorant():
    rect = [(-1.5, 1.5), (-2.0, 1.0)]
    f, meta = rect_approximant(rect, 8, MINORANT)
    g = np.linspace(-PI, PI, 101)
    for t1 in g:
        for t2 in g:
            ind = 1.0 if (rect[0][0] <= t1 <= rect[0][1] and rect[1][0] <= t2 <= rect[1][1]) else 0.0
            assert f.eval_real((t1, t2)) <= ind + 1e-10


def test_minorant_one_dim_equals_interval_minorant():
    f, meta = rect_approximant([(0.2, 1.1)], 8, MINORANT)
    poly = build_majorant((0.2, 1.1), 8, MINORANT)
    grid = np.linspace(-PI, PI, 101)
    for th, v in zip(grid, poly.eval_grid(grid)):
        assert abs(f.eval_real((th,)) - v) < 1e-12
