"""Priors, parameter sampling, and the Bayesian criterion plumbing."""

import numpy as np
import pytest

from optdes import priors
from optdes.closed_form import russell_poisson_design
from optdes.designs import ContinuousDesign, ExactDesign, d_efficiency, design_objective
from optdes.errors import (
    LinkDomainError,
    PreconditionError,
    SingularDesignError,
    ValidationError,
)
from optdes.families import DesignRegion, Family, LinkFunction, ModelBasis, ModelSpec
from optdes.priors import (
    STREAM_PRIOR,
    EfficiencyDistribution,
    Prior,
    SampleSpec,
    _draw,
    bayes_objective,
    efficiency_distribution,
    equivalence_check,
    nearest_rank_quantile,
    resolve_sample,
    rng_for,
    sample_prior,
)


def _poisson_2d():
    return ModelSpec(
        Family("poisson"),
        LinkFunction("log"),
        ModelBasis.first_order(2),
        DesignRegion.cube(-1.0, 1.0, 2),
    )


def test_rng_streams_are_independent_and_deterministic():
    a = rng_for(0, 11).random(4)
    b = rng_for(0, 11).random(4)
    c = rng_for(0, 23).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    d = rng_for(0, 11, 5).random(4)
    assert not np.array_equal(a, d)


def test_point_prior():
    p = Prior.point([0.0, 1.0])
    assert p.kind == "point"
    assert p.dim == 2
    assert np.array_equal(p.mean(), [0.0, 1.0])


def test_uniform_box_prior_allows_degenerate_axes():
    p = Prior.uniform_box([[0.0, 0.0], [1.0, 3.0]])
    assert p.dim == 2
    assert np.allclose(p.mean(), [0.0, 2.0])
    with pytest.raises(ValidationError):
        Prior.uniform_box([[1.0, 0.0]])


@pytest.mark.parametrize(
    "draws,weights",
    [
        ([[0.0, 1.0], [0.0]], None),
        ([[0.0, 1.0], [0.0, float("inf")]], None),
        ([[0.0, 1.0], [float("nan"), 1.0]], None),
        ([[0.0, 1.0], [0.5, 1.0]], [1.0, float("inf")]),
        ([[0.0, 1.0], [0.5, 1.0]], [[1.0], [1.0, 2.0]]),
    ],
    ids=["ragged-draws", "inf-draw", "nan-draw", "inf-weight", "ragged-weights"],
)
def test_sample_prior_rejects_bad_input(draws, weights):
    with pytest.raises(ValidationError):
        Prior.from_sample(draws, weights)


def test_sample_prior_lhs_stratifies_each_axis():
    p = Prior.uniform_box([[0.0, 1.0], [-2.0, 0.0]])
    s = sample_prior(p, SampleSpec(8, seed=3, method="lhs"))
    assert s.draws.shape == (8, 2)
    for j, (lo, hi) in enumerate([(0.0, 1.0), (-2.0, 0.0)]):
        u = (s.draws[:, j] - lo) / (hi - lo)
        # exactly one draw per 1/8 stratum
        assert sorted(np.floor(u * 8).astype(int).tolist()) == list(range(8))


def test_sample_prior_is_seed_deterministic():
    p = Prior.uniform_box([[0.0, 1.0], [0.0, 1.0]])
    for method in ("iid", "lhs"):
        a = sample_prior(p, SampleSpec(16, seed=9, method=method))
        b = sample_prior(p, SampleSpec(16, seed=9, method=method))
        c = sample_prior(p, SampleSpec(16, seed=10, method=method))
        assert np.array_equal(a.draws, b.draws)
        assert not np.array_equal(a.draws, c.draws)


def test_resolve_sample_paths():
    point = Prior.point([1.0, 0.5, -0.5])
    s = resolve_sample(point)
    assert s.draws.shape == (1, 3)
    assert s.weights.tolist() == [1.0]

    fixed = Prior.from_sample(np.array([[0.0, 1.0], [1.0, 0.0]]))
    s = resolve_sample(fixed)
    assert s.draws.shape == (2, 2)
    assert np.allclose(s.weights, 0.5)

    box = Prior.uniform_box([[0.0, 1.0]])
    with pytest.raises(ValidationError):
        resolve_sample(box)  # stochastic prior needs an explicit sample spec
    s = resolve_sample(box, SampleSpec(4, seed=0))
    assert s.draws.shape == (4, 1)

    s = resolve_sample(np.array([0.0, 1.0, 2.0]))  # bare theta
    assert s.draws.shape == (1, 3)


def test_bayes_objective_at_point_prior_matches_local():
    model = _poisson_2d()
    theta = np.array([0.5, 1.0, -1.0])
    d = ContinuousDesign(
        np.array([[1.0, -1.0], [-1.0, -1.0], [1.0, 1.0]]), np.full(3, 1.0 / 3.0)
    )
    assert bayes_objective(d, model, Prior.point(theta)) == pytest.approx(
        design_objective(d, model, theta), rel=1e-14
    )


def test_bayes_objective_averages_over_draws():
    model = _poisson_2d()
    draws = np.array([[0.0, 1.0, -1.0], [0.0, 2.0, -2.0]])
    d = ContinuousDesign(
        np.array([[1.0, -1.0], [-1.0, -1.0], [1.0, 1.0]]), np.full(3, 1.0 / 3.0)
    )
    got = bayes_objective(d, model, Prior.from_sample(draws))
    want = 0.5 * sum(design_objective(d, model, t) for t in draws)
    assert got == pytest.approx(want, rel=1e-14)


def test_nearest_rank_quantile():
    v = np.array([4.0, 1.0, 3.0, 2.0])
    assert nearest_rank_quantile(v, 0.5) == 2.0
    assert nearest_rank_quantile(v, 0.25) == 1.0
    assert nearest_rank_quantile(v, 1.0) == 4.0


def test_efficiency_distribution_statistics():
    d = EfficiencyDistribution(
        draws=np.zeros((4, 1)),
        efficiencies=np.array([0.9, 0.5, 1.2, 0.7]),
        n_rejected=1,
    )
    assert d.n == 4
    assert d.minimum == 0.5
    assert d.maximum == 1.2
    assert d.median == 0.7
    assert d.fraction_above(1.0) == 0.25
    s = d.summary()
    assert s["n"] == 4 and s["n_rejected"] == 1 and s["median"] == 0.7


def test_efficiency_distribution_run_is_deterministic_and_counts_rejections():
    model = _poisson_2d()
    # slope magnitudes can fall below the step-design threshold, forcing redraws
    prior = Prior.uniform_box([[0.0, 0.0], [0.5, 3.0], [-3.0, -0.5]])
    competitor = lambda th: russell_poisson_design(th, model.region).design
    d = ContinuousDesign(
        np.array([[1.0, -1.0], [-1.0, -1.0], [1.0, 1.0]]), np.full(3, 1.0 / 3.0)
    )
    a = efficiency_distribution(d, competitor, model, prior, n_draws=40, seed=5)
    b = efficiency_distribution(d, competitor, model, prior, n_draws=40, seed=5)
    assert np.array_equal(a.efficiencies, b.efficiencies)
    assert a.n == 40
    assert a.n_rejected == b.n_rejected
    assert a.n_rejected > 0
    assert np.all(a.efficiencies > 0) and np.all(a.efficiencies <= 1.0 + 1e-12)


def test_equivalence_check_accepts_point_theta_and_prior():
    model = _poisson_2d()
    theta = np.array([0.0, 2.0, -2.0])
    d = russell_poisson_design(theta, model.region).design
    rep = equivalence_check(d, model, theta)
    assert rep.is_optimal
    rep2 = equivalence_check(d, model, Prior.point(theta))
    assert rep2.is_optimal
    assert rep2.objective == pytest.approx(rep.objective, rel=1e-12)


def _per_draw_distribution(design, competitor, model, prior, n_draws, seed, method="iid"):
    """The efficiency distribution as a plain loop: one d_efficiency per kept draw."""
    rng = rng_for(seed, STREAM_PRIOR)
    fixed = isinstance(competitor, (ContinuousDesign, ExactDesign))
    draws, effs, rejected = [], [], 0
    while len(effs) < n_draws:
        for th in _draw(prior, rng, n_draws - len(effs), method):
            try:
                ref = competitor if fixed else competitor(th)
            except PreconditionError:
                rejected += 1
                continue
            effs.append(d_efficiency(design, getattr(ref, "design", ref), model, th))
            draws.append(th)
    return np.array(draws), np.array(effs), rejected


_TRIANGLE = ContinuousDesign(np.array([[1.0, -1.0], [-1.0, -1.0], [1.0, 1.0]]), np.full(3, 1 / 3))


def _mixed_competitor(th):
    """Rejects some draws; returns references of 3, 4 and 5 points, of every kind."""
    region = _poisson_2d().region
    if th[1] < 1.3:
        raise PreconditionError("rejected for the test")
    if th[1] < 2.0:
        return russell_poisson_design(th, region)
    if th[1] < 2.4:
        return ExactDesign(np.array([[1.0, -1.0], [-1.0, -1.0], [1.0, 1.0], [0.0, 0.0]]), [1, 2, 1, 3])
    pts = np.array([[1.0, -1.0], [-1.0, -1.0], [1.0, 1.0], [-1.0, 1.0], [0.0, 0.0]])
    return ContinuousDesign(pts, np.array([0.3, 0.3, 0.2, 0.1, 0.1]))


@pytest.mark.parametrize(
    "competitor, n_draws, chunk",
    [
        (lambda th: russell_poisson_design(th, _poisson_2d().region).design, 200, 1024),
        (lambda th: russell_poisson_design(th, _poisson_2d().region), 50, 1024),
        (_mixed_competitor, 300, 1024),
        (_mixed_competitor, 60, 7),
        (ContinuousDesign(np.array([[1.0, -1.0], [-1.0, -1.0], [1.0, 1.0]]), [0.5, 0.25, 0.25]), 100, 1024),
        (ExactDesign(np.array([[1.0, -1.0], [-1.0, -1.0], [1.0, 1.0]]), [2, 1, 1]), 1030, 1024),
    ],
    ids=[
        "callable",
        "theorem-design",
        "mixed-with-rejections",
        "mixed-with-rejections-many-chunks",
        "fixed-continuous",
        "fixed-exact-two-chunks",
    ],
)
def test_efficiency_distribution_matches_a_per_draw_loop_bit_for_bit(
    competitor, n_draws, chunk, monkeypatch
):
    monkeypatch.setattr(priors, "_EFF_CHUNK", chunk)
    model = _poisson_2d()
    prior = Prior.uniform_box([[0.0, 0.0], [1.0, 3.0], [-3.0, -1.0]])
    dist = efficiency_distribution(_TRIANGLE, competitor, model, prior, n_draws=n_draws, seed=5)
    draws, effs, rejected = _per_draw_distribution(_TRIANGLE, competitor, model, prior, n_draws, 5)
    assert dist.draws.tobytes() == draws.tobytes()
    assert dist.efficiencies.tobytes() == effs.tobytes()
    assert dist.n_rejected == rejected
    assert (rejected > 0) == (competitor is _mixed_competitor)


def _gamma_power_1d():
    return ModelSpec(
        Family("gamma"), LinkFunction("power", 1.0), ModelBasis.first_order(1), DesignRegion.cube(0, 1, 1)
    )


def _singular_above(level):
    def competitor(th):
        if th[0] > level:  # one point for two parameters
            return ContinuousDesign(np.array([[1.0]]), np.array([1.0]))
        return ContinuousDesign(np.array([[0.5], [1.0]]), np.array([0.5, 0.5]))

    return competitor


@pytest.mark.parametrize(
    "design, competitor, seed, error",
    [
        # draw 0: the design's point 0 leaves the domain (the CLI test's config)
        ([0.0, 1.0], [0.5, 1.0], 7, LinkDomainError),
        # draw 0: the reference's point 0 leaves the domain
        ([0.5, 1.0], [0.0, 1.0], 7, LinkDomainError),
        # draw 9: a singular reference, before any domain error
        ([0.5, 1.0], _singular_above(0.3), 2, SingularDesignError),
        # draw 7: a domain error, before any singular reference
        ([0.5, 1.0], _singular_above(0.3), 13, LinkDomainError),
        # draw 0: singular reference and inadmissible design; the reference comes first
        ([0.0, 1.0], _singular_above(-0.2), 5, SingularDesignError),
    ],
)
def test_efficiency_distribution_raises_the_first_failing_draws_error(
    design, competitor, seed, error, monkeypatch
):
    model = _gamma_power_1d()
    prior = Prior.uniform_box([[-0.5, 0.5], [0.5, 1.5]])
    design = ContinuousDesign(np.array(design)[:, None], np.array([0.5, 0.5]))
    if isinstance(competitor, list):
        competitor = ContinuousDesign(np.array(competitor)[:, None], np.array([0.5, 0.5]))
    with pytest.raises(error) as want:
        _per_draw_distribution(design, competitor, model, prior, 200, seed)
    for chunk in (1024, 3):
        monkeypatch.setattr(priors, "_EFF_CHUNK", chunk)
        with pytest.raises(error) as got:
            efficiency_distribution(design, competitor, model, prior, n_draws=200, seed=seed)
        assert str(got.value) == str(want.value)
