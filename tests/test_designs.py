"""Design containers, information matrices, and the equivalence machinery."""

import numpy as np
import pytest

from conftest import nearest_row
from optdes.designs import (
    ContinuousDesign,
    ExactDesign,
    GridSpec,
    d_efficiency,
    d_objective,
    default_tol,
    design_objective,
    equivalence_scan,
    from_runs,
    information_matrix,
    merge_close_points,
    prune_design,
    psd_logdet,
    sensitivity,
    sensitivity_profile,
    support_bound,
)
from optdes.errors import ValidationError
from optdes.families import DesignRegion, Family, LinkFunction, ModelBasis, ModelSpec


def _logistic_1d():
    return ModelSpec(
        Family("binomial"),
        LinkFunction("logistic"),
        ModelBasis.first_order(1),
        DesignRegion.box_with_free_last(()),
    )


def _poisson_2d():
    return ModelSpec(
        Family("poisson"),
        LinkFunction("log"),
        ModelBasis.first_order(2),
        DesignRegion.cube(-1.0, 1.0, 2),
    )


C_STAR = 1.5434046384182085


def test_continuous_design_validates_weights():
    pts = np.array([[0.0], [1.0]])
    with pytest.raises(ValidationError):
        ContinuousDesign(pts, np.array([0.5, 0.4]))
    with pytest.raises(ValidationError):
        ContinuousDesign(pts, np.array([1.0, 0.0]))
    with pytest.raises(ValidationError):
        ContinuousDesign(pts, np.array([0.5, 0.5, 0.0][:2] + [0.0]))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"window": (1.0, -1.0)},
        {"window": (1.0, 1.0)},
        {"window": (float("inf"), 1.0)},
        {"window": (-1.0, float("nan"))},
        {"step": float("inf")},
        {"step": float("nan")},
        {"step": 0.0},
    ],
    ids=["reversed", "empty", "inf-lo", "nan-hi", "inf-step", "nan-step", "zero-step"],
)
def test_grid_spec_rejects_bad_window_or_step(kwargs):
    with pytest.raises(ValidationError):
        GridSpec(**kwargs)


def test_continuous_design_does_not_renormalize():
    # weights are taken as given, not rescaled behind the caller's back
    d = ContinuousDesign(np.array([[0.0], [1.0]]), np.array([0.25, 0.75]))
    assert d.weights.tolist() == [0.25, 0.75]


def test_design_arrays_are_immutable():
    d = ContinuousDesign(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        d.points[0, 0] = 9.0
    with pytest.raises(ValueError):
        d.weights[0] = 0.9


def test_canonical_sorts_support():
    d = ContinuousDesign(np.array([[1.0], [-1.0]]), np.array([0.6, 0.4])).canonical()
    assert d.points[0, 0] == -1.0
    assert d.weights.tolist() == [0.4, 0.6]


def test_exact_design_from_runs():
    d = from_runs(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]))
    assert d.n == 3
    assert d.reps.sum() == 3
    c = d.as_continuous()
    i = nearest_row([1.0, 0.0], c.points)
    assert c.weights[i] == pytest.approx(2.0 / 3.0)


def test_support_bound():
    assert support_bound(3) == 7
    assert support_bound(10) == 56


def test_information_matrix_hand_computed():
    model = _poisson_2d()
    theta = np.array([0.0, 1.0, -1.0])
    pts = np.array([[1.0, -1.0], [0.0, 0.0]])
    d = ContinuousDesign(pts, np.array([0.5, 0.5]))
    M = information_matrix(d, model, theta)
    expect = np.zeros((3, 3))
    for x, w in zip(pts, (0.5, 0.5)):
        f = np.array([1.0, x[0], x[1]])
        expect += w * np.exp(theta @ f) * np.outer(f, f)
    assert np.allclose(M, expect, rtol=1e-14)


def test_trace_identity():
    # sum_i w_i u_i f_i' M^&#8315;&#185; f_i = p for any nonsingular design
    rng = np.random.default_rng(7)
    model = _poisson_2d()
    theta = rng.normal(size=3) * 0.5
    pts = rng.uniform(-1, 1, size=(6, 2))
    w = rng.uniform(0.1, 1.0, size=6)
    w /= w.sum()
    d = ContinuousDesign(pts, w)
    total = sum(
        wi * sensitivity(x, d, model, theta) for x, wi in zip(pts, w)
    )
    # psi = p - w-weighted quadratic form, so sum w_i psi_i = p - trace = 0
    assert abs(total) < 1e-9


def test_singular_objective_is_infinite():
    model = _poisson_2d()
    d = ContinuousDesign(np.array([[0.0, 0.0]]), np.array([1.0]))
    assert design_objective(d, model, np.zeros(3)) == np.inf
    assert psd_logdet(np.zeros((2, 2))) is None
    assert d_objective(np.eye(3) * 2.0) == pytest.approx(-3 * np.log(2.0))


def test_d_efficiency_is_rooted_det_ratio():
    model = _logistic_1d()
    theta = np.array([0.0, 1.0])
    opt = ContinuousDesign(np.array([[-C_STAR], [C_STAR]]), np.array([0.5, 0.5]))
    sub = ContinuousDesign(np.array([[-1.0], [1.0]]), np.array([0.5, 0.5]))
    eff = d_efficiency(sub, opt, model, theta)
    gap = design_objective(sub, model, theta) - design_objective(opt, model, theta)
    assert eff == pytest.approx(np.exp(-gap / 2.0), rel=1e-12)
    assert d_efficiency(opt, opt, model, theta) == pytest.approx(1.0)


def test_sensitivity_zero_at_optimal_support():
    model = _logistic_1d()
    theta = np.array([0.0, 1.0])
    opt = ContinuousDesign(np.array([[-C_STAR], [C_STAR]]), np.array([0.5, 0.5]))
    assert abs(sensitivity(np.array([C_STAR]), opt, model, theta)) < 1e-10
    prof = sensitivity_profile(np.array([[0.0], [5.0]]), opt, model, theta)
    assert np.all(prof > 0)


def test_default_tol():
    assert default_tol(2) == pytest.approx(2e-3)
    assert default_tol(10) == pytest.approx(1e-2)


def test_equivalence_scan_certifies_known_optimum():
    model = _logistic_1d()
    theta = np.array([0.0, 1.0])
    opt = ContinuousDesign(np.array([[-C_STAR], [C_STAR]]), np.array([0.5, 0.5]))
    rep = equivalence_scan(opt, model, theta)
    assert rep.is_optimal
    assert rep.min_psi > -rep.tol
    assert rep.support_size == 2
    j = rep.to_jsonable()
    assert set(j) >= {"min_psi", "argmin", "tol", "is_optimal", "objective", "n_grid"}


def test_equivalence_scan_flags_suboptimal_design():
    model = _logistic_1d()
    theta = np.array([0.0, 1.0])
    bad = ContinuousDesign(np.array([[-0.5], [0.5]]), np.array([0.5, 0.5]))
    rep = equivalence_scan(bad, model, theta)
    assert not rep.is_optimal
    assert rep.min_psi < -rep.tol


def test_merge_and_prune():
    pts = np.array([[0.0], [1e-9], [1.0]])
    w = np.array([0.3, 0.3, 0.4])
    mp, mw = merge_close_points(pts, w, radius=1e-6)
    assert mp.shape[0] == 2
    i = nearest_row([0.0], mp)
    assert mw[i] == pytest.approx(0.6)

    pts = np.array([[0.0], [0.5], [1.0]])
    w = np.array([0.49995, 1e-4, 0.49995])
    d2 = prune_design(ContinuousDesign(pts, w), weight_floor=1e-3)
    assert d2.points.shape[0] == 2
    assert d2.weights.sum() == pytest.approx(1.0)
