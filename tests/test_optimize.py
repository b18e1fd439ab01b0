"""Continuous and exact optimizer behavior on known problems."""

import numpy as np
import pytest

from conftest import assert_design_matches
from optdes.errors import ValidationError
from optdes.families import DesignRegion, Family, LinkFunction, ModelBasis, ModelSpec
from optdes.optimize import (
    ContinuousOptOptions,
    ExactOptOptions,
    _PointAtoms,
    optimize_continuous,
    optimize_exact,
)
from optdes.priors import Prior, SampleSpec

C_STAR = 1.5434046384182085


def _logistic(k, region):
    return ModelSpec(
        Family("binomial"), LinkFunction("logistic"), ModelBasis.first_order(k), region
    )


def test_continuous_recovers_canonical_two_point():
    model = _logistic(1, DesignRegion.box_with_free_last(()))
    res = optimize_continuous(model, np.array([0.0, 1.0]))
    assert res.is_optimal
    assert_design_matches(
        res.design, [((-C_STAR,), 0.5), ((C_STAR,), 0.5)], 1e-3, 1e-4
    )
    assert res.objective == pytest.approx(2.9933650576551107, abs=1e-6)


def test_continuous_bounded_square_corners():
    model = _logistic(2, DesignRegion.cube(-1.0, 1.0, 2))
    res = optimize_continuous(model, np.array([0.0, 1.0, 1.0]))
    assert res.is_optimal
    assert_design_matches(
        res.design,
        [
            ((-1.0, -1.0), 0.204),
            ((1.0, -1.0), 0.296),
            ((-1.0, 1.0), 0.296),
            ((1.0, 1.0), 0.204),
        ],
        5e-3,
        5e-3,
    )


def test_continuous_is_seed_deterministic():
    model = _logistic(2, DesignRegion.cube(-1.0, 1.0, 2))
    theta = np.array([1.0, 1.5, -0.5])
    a = optimize_continuous(model, theta, ContinuousOptOptions(seed=4))
    b = optimize_continuous(model, theta, ContinuousOptOptions(seed=4))
    assert a.objective == b.objective
    assert np.array_equal(a.design.points, b.design.points)
    assert np.array_equal(a.design.weights, b.design.weights)


def test_continuous_bayes_needs_sample_spec():
    model = _logistic(1, DesignRegion.cube(-3.0, 3.0, 1))
    prior = Prior.uniform_box([[0.0, 0.0], [0.8, 1.2]])
    with pytest.raises(ValidationError):
        optimize_continuous(model, prior)
    res = optimize_continuous(
        model, prior, ContinuousOptOptions(seed=0, sample=SampleSpec(8, seed=2))
    )
    assert res.is_optimal
    # a tight slope prior keeps the two-point geometry
    assert res.design.points.shape[0] == 2


def test_exact_grid_exchange_finds_known_support():
    model = _logistic(1, DesignRegion.cube(-2.0, 2.0, 1))
    res = optimize_exact(
        model,
        np.array([0.0, 1.0]),
        ExactOptOptions(n=4, method="grid_exchange", grid_step=0.01, seed=0),
    )
    assert res.design.n == 4
    assert int(res.design.reps.sum()) == 4
    pts = np.sort(res.design.points[:, 0])
    assert pts[0] == pytest.approx(-C_STAR, abs=0.02)
    assert pts[-1] == pytest.approx(C_STAR, abs=0.02)
    assert res.method == "grid_exchange"


def test_exact_anneal_is_seed_deterministic():
    model = _logistic(2, DesignRegion.cube(-1.0, 1.0, 2))
    theta = np.array([0.0, 1.0, 1.0])
    opts = ExactOptOptions(n=6, method="anneal", steps=3000, seed=11)
    a = optimize_exact(model, theta, opts)
    b = optimize_exact(model, theta, opts)
    assert a.objective == b.objective
    assert np.array_equal(a.design.points, b.design.points)
    c = optimize_exact(model, theta, ExactOptOptions(n=6, method="anneal", steps=3000, seed=12))
    assert c.design.n == 6


def test_exact_objective_never_beats_continuous():
    model = _logistic(2, DesignRegion.cube(-1.0, 1.0, 2))
    theta = np.array([0.0, 1.0, 1.0])
    cont = optimize_continuous(model, theta)
    ex = optimize_exact(
        model, theta, ExactOptOptions(n=5, method="grid_exchange", grid_step=0.05, seed=0)
    )
    assert ex.objective >= cont.objective - 1e-9


def _central_gradient(f, X, w, h=1e-6):
    gX = np.zeros_like(X)
    for idx in np.ndindex(*X.shape):
        e = np.zeros_like(X)
        e[idx] = h
        gX[idx] = (f(X + e, w) - f(X - e, w)) / (2 * h)
    gw = np.zeros_like(w)
    for i in range(w.size):
        e = np.zeros_like(w)
        e[i] = h
        gw[i] = (f(X, w + e) - f(X, w - e)) / (2 * h)
    return gX, gw


@pytest.mark.parametrize("case", ["local-quadratic", "bayes-probit", "free-axis-cloglog"])
def test_point_value_grad_matches_central_differences(case):
    rng = np.random.default_rng(5)
    if case == "local-quadratic":
        model = ModelSpec(
            Family("binomial"), LinkFunction("logistic"), ModelBasis.second_order(2),
            DesignRegion.cube(-1.0, 1.0, 2),
        )
        thetas = np.array([[1.0, 2.0, 2.0, -1.0, -1.5, 1.5]])
        X = rng.uniform(-1.0, 1.0, (8, 2))
    elif case == "bayes-probit":
        model = ModelSpec(
            Family("binomial"), LinkFunction("probit"), ModelBasis.first_order(2),
            DesignRegion.cube(-1.0, 1.0, 2),
        )
        thetas = np.array([0.5, 1.0, 1.5]) + 0.3 * rng.standard_normal((5, 3))
        X = rng.uniform(-1.0, 1.0, (5, 2))
    else:
        model = ModelSpec(
            Family("binomial"), LinkFunction("cloglog"), ModelBasis.first_order(1),
            DesignRegion.box_with_free_last(()),
        )
        thetas = np.array([[0.2, 1.3]])
        X = rng.uniform(-3.0, 2.0, (3, 1))
    atoms = _PointAtoms(model, thetas, rng.uniform(0.5, 1.0, thetas.shape[0]))
    w = rng.uniform(0.5, 1.0, X.shape[0])
    w /= w.sum()
    obj, gX, gw = atoms.value_grad(X, w)
    assert obj == atoms.mean_objective(X, w)
    fX, fw = _central_gradient(atoms.mean_objective, X, w)
    scale = max(np.max(np.abs(fX)), np.max(np.abs(fw)))
    assert max(np.max(np.abs(gX - fX)), np.max(np.abs(gw - fw))) <= 1e-6 * scale


def test_gradient_polish_finds_smaller_certified_quadratic_optimum():
    # Nelder-Mead stopped at t = 10 with 18.594932 on this problem
    model = ModelSpec(
        Family("binomial"), LinkFunction("logistic"), ModelBasis.second_order(2),
        DesignRegion.cube(-1.0, 1.0, 2),
    )
    res = optimize_continuous(model, np.array([1.0, 2.0, 2.0, -1.0, -1.5, 1.5]))
    assert res.is_optimal
    assert res.objective <= 18.59493
    assert res.t_final <= 9
