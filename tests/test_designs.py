"""Design containers, information matrices, and the equivalence machinery."""

import math

import numpy as np
import pytest

from conftest import nearest_row
from optdes.designs import (
    ContinuousDesign,
    ExactDesign,
    GridSpec,
    _information_stack,
    _logdet_stack,
    build_eval_grid,
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
from optdes.errors import DimensionError, LinkDomainError, ValidationError
from optdes.families import (
    DesignRegion,
    Family,
    LinkFunction,
    ModelBasis,
    ModelSpec,
    eval_basis_many,
    weights_at,
)


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


def _one_design_information(pts, w, model, theta):
    """M = sum_i w_i u_i f_i f_i' in the matmul form the stack must reproduce."""
    F = eval_basis_many(model.basis, pts)
    M = (F * (w * weights_at(model, theta, pts))[:, None]).T @ F
    return 0.5 * (M + M.T)


def _one_matrix_logdet(M, rel_tol=1e-12):
    """Symmetric elimination of one matrix, stopping at the first small pivot."""
    a = np.array(M, dtype=float)
    n = a.shape[0]
    scale = float(np.abs(np.diag(a)).max()) if n else 0.0
    if not np.isfinite(scale) or scale <= 0.0:
        return None
    acc = 0.0
    for i in range(n):
        piv = a[i, i]
        if not piv > rel_tol * scale:
            return None
        acc += math.log(piv)
        col = a[i + 1 :, i] / piv
        a[i + 1 :, i + 1 :] -= np.outer(col, a[i + 1 :, i])
    return acc


def test_stacked_information_and_logdet_match_one_design_forms():
    model = ModelSpec(
        Family("poisson"),
        LinkFunction("log"),
        ModelBasis.second_order(2),
        DesignRegion.cube(-1.0, 1.0, 2),
    )
    rng = np.random.default_rng(18)
    S, t = 40, 8
    pts = rng.uniform(-1, 1, size=(S, t, 2))
    w = rng.uniform(0.1, 1.0, size=(S, t))
    w /= w.sum(axis=1, keepdims=True)
    thetas = rng.normal(size=(S, model.p))
    M, ok = _information_stack(model, pts, w, thetas)
    ld = _logdet_stack(M)
    assert ok.all()
    for s in range(S):
        want = _one_design_information(pts[s], w[s], model, thetas[s])
        assert np.array_equal(M[s], want)
        assert np.array_equal(information_matrix(ContinuousDesign(pts[s], w[s]), model, thetas[s]), want)
        assert ld[s] == _one_matrix_logdet(want) == psd_logdet(want)


def test_stacked_singular_rule_matches_psd_logdet():
    nan, inf = np.nan, np.inf
    mats = [
        np.diag([1.0, 1e-13]),
        np.array([[1.0, nan], [nan, 1.0]]),
        np.array([[nan, 0.0], [0.0, 1.0]]),
        np.array([[inf, 0.0], [0.0, 1.0]]),
        np.array([[1.0, inf], [inf, 1.0]]),
        np.zeros((2, 2)),
        np.array([[2.0, 0.5], [0.5, 1.0]]),
        np.array([[1.0, 1.0], [1.0, 1.0]]),
        np.diag([3.0, 1e-11]),
    ]
    ld = _logdet_stack(np.stack(mats))
    for M, got in zip(mats, ld):
        want = _one_matrix_logdet(M)
        assert psd_logdet(M) == want
        assert np.isnan(got) if want is None else got == want
    assert [v is None for v in map(psd_logdet, mats)] == [True] * 6 + [False, True, False]
    # a singular pivot in the middle leaves garbage only in its own matrix
    mid = np.stack([np.diag([1.0, 0.0, 1.0]), np.eye(3) * 2.0])
    assert np.isnan(_logdet_stack(mid)[0]) and _logdet_stack(mid)[1] == 3 * math.log(2.0)
    assert psd_logdet(np.zeros((0, 0))) is None


def test_information_matrix_errors_name_the_failing_point():
    model = ModelSpec(
        Family("gamma"), LinkFunction("power", 1.0), ModelBasis.first_order(1), DesignRegion.cube(0, 1, 1)
    )
    d = ContinuousDesign(np.array([[1.0], [0.5], [0.0]]), np.full(3, 1 / 3))
    with pytest.raises(LinkDomainError, match=r"design point index 1"):
        information_matrix(d, model, np.array([-0.6, 0.9]))
    with pytest.raises(DimensionError, match=r"theta has shape \(3,\), model expects \(2,\)"):
        information_matrix(d, model, np.array([1.0, 1.0, 1.0]))
    with pytest.raises(DimensionError, match="design has k=1, model has k=2"):
        information_matrix(d, _poisson_2d(), np.zeros(3))


@pytest.mark.parametrize("step", [1e-300, 2.0 / 3200], ids=["underflow", "just-over-cap"])
def test_tensor_grid_rejects_a_step_above_the_point_cap(step):
    # rejected from the point count alone: nothing the size of the grid is built
    with pytest.raises(ValidationError, match="lattice points"):
        build_eval_grid(_poisson_2d(), np.array([0.0, 1.0, 1.0]), GridSpec(step=step))


def test_ragged_design_points_are_a_validation_error():
    with pytest.raises(ValidationError, match="points"):
        ContinuousDesign([[-1.0], [1.0, 0.5]], [0.5, 0.5])
    with pytest.raises(ValidationError, match="points"):
        ExactDesign([[-1.0], [1.0, 0.5]], [1, 1])
