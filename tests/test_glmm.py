"""Random-intercept block models: information, equivalence, optimization."""

from itertools import product

import numpy as np
import pytest
from scipy import integrate
from scipy.special import expit
from scipy.stats import norm

from conftest import nearest_row
from optdes.designs import ContinuousDesign, design_objective, sensitivity
from optdes.errors import UnsupportedModelError, ValidationError
from optdes.families import DesignRegion, Family, LinkFunction, ModelBasis, ModelSpec
from optdes.glmm import (
    BlockDesign,
    RandomInterceptModel,
    _block_grid,
    block_design_info,
    block_equivalence_check,
    block_info_matrix,
    block_objective,
    direct_binary_block_info,
    mv_sensitivity,
    optimize_block_design,
)
from optdes.optimize import optimize_continuous


def _poisson_quadratic():
    return ModelSpec(
        Family("poisson"),
        LinkFunction("log"),
        ModelBasis.second_order(1),
        DesignRegion.cube(-1.0, 1.0, 1),
    )


def _logistic_1d():
    return ModelSpec(
        Family("binomial"),
        LinkFunction("logistic"),
        ModelBasis.first_order(1),
        DesignRegion.cube(-1.0, 1.0, 1),
    )


THETA = np.array([0.0, 5.0, 1.0])


def test_random_intercept_model_validation():
    base = _poisson_quadratic()
    gm = RandomInterceptModel(base, sigma2=0.5, m=2)
    assert gm.p == 3 and gm.k == 1
    with pytest.raises(ValidationError):
        RandomInterceptModel(base, sigma2=-0.1, m=2)
    with pytest.raises(ValidationError):
        RandomInterceptModel(base, sigma2=0.5, m=0)


def test_block_design_container():
    blocks = np.array([[[0.1], [0.9]], [[0.7], [1.0]]])
    with pytest.raises(ValidationError):
        BlockDesign(blocks, np.array([0.5, 0.4]))
    d = BlockDesign(blocks, np.array([0.5, 0.5]))
    assert d.t == 2 and d.m == 2 and d.k == 1
    # 2-D input means one factor
    d1 = BlockDesign(np.array([[0.1, 0.9]]), np.array([1.0]))
    assert d1.k == 1 and d1.m == 2


def test_block_design_canonical_sorts():
    blocks = np.array([[[0.9], [0.1]], [[0.7], [0.2]]])
    d = BlockDesign(blocks, np.array([0.6, 0.4])).canonical()
    assert d.blocks[0, 0, 0] <= d.blocks[0, 1, 0]
    assert d.blocks[0, 0, 0] <= d.blocks[1, 0, 0]


def test_gee_requires_known_method():
    gm = RandomInterceptModel(_poisson_quadratic(), sigma2=0.5, m=2)
    d = BlockDesign(np.array([[[0.1], [0.9]]]), np.array([1.0]))
    with pytest.raises(ValidationError):
        block_objective(d, gm, THETA, method="pql")


@pytest.mark.parametrize("method", ["ql", "mql", "gee"])
def test_zero_variance_reduces_to_independent_glm(method):
    # with sigma2 = 0 (identity working correlation for gee) a block of m
    # points carries the same information as m independent observations
    base = _poisson_quadratic()
    gm = RandomInterceptModel(base, sigma2=0.0, m=2)
    blocks = np.array([[[-0.5], [0.3]], [[0.1], [0.9]]])
    d = BlockDesign(blocks, np.array([0.5, 0.5]))
    M = block_design_info(d, gm, THETA, method, gee_alpha=0.0)
    flat = ContinuousDesign(blocks.reshape(-1, 1), np.full(4, 0.25))
    from optdes.designs import information_matrix

    M_glm = 2.0 * information_matrix(flat, base, THETA)  # m points per block
    assert np.allclose(M, M_glm, rtol=1e-10)


def test_gee_identity_correlation_ignores_variance():
    base = _poisson_quadratic()
    d = BlockDesign(np.array([[[-0.5], [0.3]]]), np.array([1.0]))
    a = block_design_info(d, RandomInterceptModel(base, 0.0, 2), THETA, "gee", gee_alpha=0.0)
    b = block_design_info(d, RandomInterceptModel(base, 1.5, 2), THETA, "gee", gee_alpha=0.0)
    assert np.allclose(a, b, rtol=1e-14)


def test_ql_and_mql_scalar_variances_differ_as_hand_computed():
    # m = 1, eta = 0, sigma2 = 0.5: the two approximations give different
    # scalar variances, each checkable by hand
    base = ModelSpec(
        Family("poisson"),
        LinkFunction("log"),
        ModelBasis.first_order(1),
        DesignRegion.cube(-1.0, 1.0, 1),
    )
    gm = RandomInterceptModel(base, sigma2=0.5, m=1)
    theta = np.array([0.0, 1.0])
    z = np.array([[0.0]])  # eta = 0
    f = np.array([1.0, 0.0])
    v_ql = np.exp(0.25) + (np.exp(0.5) - 1.0) * np.exp(0.5)
    mubar = np.exp(0.25)
    M_ql = block_info_matrix(z, gm, theta, "ql")
    assert np.allclose(M_ql, mubar**2 / v_ql * np.outer(f, f), rtol=1e-12)
    v_mql = 1.0 + 0.5
    M_mql = block_info_matrix(z, gm, theta, "mql")
    assert np.allclose(M_mql, 1.0 / v_mql * np.outer(f, f), rtol=1e-12)


def test_ql_and_mql_agree_for_tiny_variance():
    gm = RandomInterceptModel(_poisson_quadratic(), sigma2=1e-8, m=2)
    blocks = np.array([[[0.1], [0.88]], [[0.75], [1.0]]])
    d = BlockDesign(blocks, np.array([0.5, 0.5]))
    a = block_objective(d, gm, THETA, method="ql")
    b = block_objective(d, gm, THETA, method="mql")
    assert a == pytest.approx(b, abs=1e-6)


def test_mv_sensitivity_matches_pointwise_at_degenerate_block():
    base = _poisson_quadratic()
    gm = RandomInterceptModel(base, sigma2=0.0, m=1)
    pts = np.array([[-0.6], [0.2], [0.9]])
    w = np.array([0.3, 0.3, 0.4])
    d = BlockDesign(pts[:, None, :], w)
    cd = ContinuousDesign(pts, w)
    for x in (-0.8, 0.0, 0.5):
        a = mv_sensitivity(np.array([[x]]), d, gm, THETA, method="ql")
        b = sensitivity(np.array([x]), cd, base, THETA)
        assert a == pytest.approx(b, abs=1e-10)


def test_direct_binary_block_info_matches_quadrature_oracle():
    # independent check of the Gauss-Hermite marginal information at m = 1:
    # var(y) integrates mu(1-mu) over the random intercept, and the marginal
    # mean derivative follows from differentiating E[mu] under the integral
    base = _logistic_1d()
    sigma2 = 0.8
    gm = RandomInterceptModel(base, sigma2=sigma2, m=1)
    theta = np.array([0.3, 1.7])
    sd = np.sqrt(sigma2)

    def marginal_info(x):
        f = np.array([1.0, x])
        eta0 = theta @ f

        def p1(s):
            return integrate.quad(
                lambda g: expit(eta0 + s * g) * norm.pdf(g), -12, 12, limit=200
            )[0]

        h = 1e-5
        # derivative of the marginal mean wrt eta0
        dmean = (
            integrate.quad(
                lambda g: expit(eta0 + h + sd * g) * norm.pdf(g), -12, 12, limit=200
            )[0]
            - integrate.quad(
                lambda g: expit(eta0 - h + sd * g) * norm.pdf(g), -12, 12, limit=200
            )[0]
        ) / (2 * h)
        pm = p1(sd)
        u = dmean**2 / (pm * (1.0 - pm))
        return u * np.outer(f, f)

    for x in (-1.0, -0.3, 0.4, 1.0):
        got = direct_binary_block_info(np.array([[x]]), gm, theta)
        want = marginal_info(x)
        assert np.max(np.abs(got - want)) < 1e-8


def test_direct_binary_block_info_zero_variance_is_glm():
    base = _logistic_1d()
    gm = RandomInterceptModel(base, sigma2=0.0, m=2)
    theta = np.array([0.3, 1.7])
    z = np.array([[-0.4], [0.8]])
    got = direct_binary_block_info(z, gm, theta)
    from optdes.designs import information_matrix

    want = 2.0 * information_matrix(
        ContinuousDesign(z, np.array([0.5, 0.5])), base, theta
    )
    assert np.max(np.abs(got - want)) < 1e-6


def test_direct_binary_block_info_guards():
    gm3 = RandomInterceptModel(_logistic_1d(), sigma2=0.5, m=4)
    with pytest.raises(ValidationError):
        direct_binary_block_info(np.zeros((4, 1)), gm3, np.array([0.0, 1.0]))
    gmp = RandomInterceptModel(_poisson_quadratic(), sigma2=0.5, m=2)
    with pytest.raises(UnsupportedModelError):
        direct_binary_block_info(np.zeros((2, 1)), gmp, THETA)


def test_quadratic_count_block_objectives():
    # regression anchors for the three approximations at the same design
    gm = RandomInterceptModel(_poisson_quadratic(), sigma2=0.5, m=2)
    d = BlockDesign(
        np.array([[[0.0999], [0.8843]], [[0.7523], [1.0]]]), np.array([0.4998, 0.5002])
    )
    assert block_objective(d, gm, THETA, method="ql") == pytest.approx(
        -0.39479, abs=2e-4
    )
    assert block_objective(d, gm, THETA, method="mql") == pytest.approx(
        -0.15319, abs=2e-4
    )


def test_optimize_block_design_ql():
    gm = RandomInterceptModel(_poisson_quadratic(), sigma2=0.5, m=2)
    res = optimize_block_design(gm, THETA, method="ql")
    assert res.is_optimal
    assert res.objective == pytest.approx(-0.39479788, abs=1e-5)
    d = res.design.canonical()
    assert d.t == 2
    rows = np.sort(d.blocks.reshape(d.t, -1), axis=1)
    i = nearest_row([0.10, 0.88], rows)
    assert np.allclose(rows[i], [0.0999, 0.8843], atol=2e-3)
    assert d.weights[i] == pytest.approx(0.5, abs=1e-3)


def test_one_run_blocks_without_random_effect_match_points():
    # m = 1, sigma2 = 0: a block is a point and M(zeta) = u f f'
    base = _poisson_quadratic()
    gm = RandomInterceptModel(base, sigma2=0.0, m=1)
    blocks = optimize_block_design(gm, THETA, method="mql")
    points = optimize_continuous(base, THETA)
    assert blocks.is_optimal and points.is_optimal
    assert blocks.objective == pytest.approx(points.objective, abs=1e-8)
    assert blocks.design.t == points.design.t == 3
    got = np.sort(blocks.design.blocks.reshape(-1))
    assert np.allclose(got, np.sort(points.design.points.reshape(-1)), atol=1e-4)


def test_block_equivalence_check_flags_bad_design():
    gm = RandomInterceptModel(_poisson_quadratic(), sigma2=0.5, m=2)
    bad = BlockDesign(np.array([[[-1.0], [-0.5]], [[0.0], [0.5]]]), np.array([0.5, 0.5]))
    rep = block_equivalence_check(bad, gm, THETA, method="ql", grid_step=0.05)
    assert not rep.is_optimal
    assert rep.min_psi < -rep.tol


@pytest.mark.parametrize("k, m, step", [(1, 1, 0.5), (1, 3, 0.25), (2, 2, 0.5)])
def test_block_grid_lists_every_nondecreasing_block_once(k, m, step):
    base = ModelSpec(
        Family("poisson"), LinkFunction("log"), ModelBasis.first_order(k), DesignRegion.cube(-1.0, 1.0, k)
    )
    axis = np.linspace(-1.0, 1.0, int(round(2.0 / step)) + 1)
    pts = np.array(list(product(axis, repeat=k)))
    want = [pts[list(c)] for c in product(range(len(pts)), repeat=m) if list(c) == sorted(c)]
    assert np.array_equal(_block_grid(RandomInterceptModel(base, sigma2=0.5, m=m), step), np.stack(want))


@pytest.mark.parametrize("step", [1e-300, 0.001], ids=["underflow", "just-over-cap"])
def test_block_grid_rejects_a_step_above_the_block_cap(step):
    # 0.001 gives 2001 points and 2,003,001 blocks of 2 runs; nothing is built
    gm = RandomInterceptModel(_poisson_quadratic(), sigma2=0.5, m=2)
    with pytest.raises(ValidationError, match="grid step"):
        _block_grid(gm, step)
