"""Link functions, weight formulas, bases, and regions."""

import math

import numpy as np
import pytest
from scipy.special import expit
from scipy.stats import norm

from optdes.errors import ValidationError
from optdes.families import (
    DesignRegion,
    Family,
    LinkFunction,
    ModelBasis,
    ModelSpec,
    eta_admissible_mask,
    eval_basis_jacobian,
    eval_basis_many,
    inverse_link,
    link_value,
    linear_predictor,
    mean_derivative,
    weight_derivative,
    weight_from_eta,
    weights_at,
)

LINKS = [
    LinkFunction("logistic"),
    LinkFunction("probit"),
    LinkFunction("cloglog"),
    LinkFunction("loglog"),
    LinkFunction("log"),
    LinkFunction("identity"),
    LinkFunction("boxcox", 0.5),
    LinkFunction("boxcox", 0.0),
    LinkFunction("power", 1.0),
    LinkFunction("power", 0.5),
]


def _admissible_grid(link):
    eta = np.linspace(-4.0, 4.0, 33)
    return eta[eta_admissible_mask(link, eta)]


@pytest.mark.parametrize("link", LINKS, ids=lambda l: f"{l.kind}-{l.shape}")
def test_mean_derivative_matches_finite_differences(link):
    eta = _admissible_grid(link)
    h = 1e-6
    # stay inside the admissible set for the two-sided stencil
    ok = eta_admissible_mask(link, eta - h) & eta_admissible_mask(link, eta + h)
    eta = eta[ok]
    fd = (inverse_link(link, eta + h) - inverse_link(link, eta - h)) / (2 * h)
    an = mean_derivative(link, eta)
    scale = np.maximum(1.0, np.abs(an))
    assert np.max(np.abs(fd - an) / scale) < 1e-6


# every family-link pair, with the shapes that change the weight's form
WEIGHT_PAIRS = [
    (Family("binomial"), LinkFunction("logistic")),
    (Family("binomial"), LinkFunction("probit")),
    (Family("binomial"), LinkFunction("cloglog")),
    (Family("binomial", 2.0), LinkFunction("loglog")),
    (Family("poisson"), LinkFunction("log")),
    (Family("gamma"), LinkFunction("log")),
    (Family("gamma"), LinkFunction("boxcox", 0.0)),
    (Family("gamma"), LinkFunction("boxcox", 0.5)),
    (Family("gamma", 0.5), LinkFunction("boxcox", -2.0)),
    (Family("gamma"), LinkFunction("power", 1.0)),
    (Family("gamma"), LinkFunction("power", -0.5)),
    (Family("normal"), LinkFunction("identity")),
]


def _eta_with_edges(family, link):
    """Tails for binomial (|eta| up to 40); points near the domain edge for
    box-cox and power, each with a stencil step scaled to its distance."""
    if family.kind == "binomial":
        eta = np.linspace(-40.0, 40.0, 161)
        return eta, np.full(eta.shape, 1e-6)
    if link.kind == "power" or (link.kind == "boxcox" and link.shape != 0.0):
        edge = 0.0 if link.kind == "power" else -1.0 / link.shape
        side = 1.0 if link.kind == "power" or link.shape > 0 else -1.0
        dist = np.concatenate([[1e-4, 1e-3, 0.1], np.linspace(0.5, 5.0, 10)])
        return edge + side * dist, 1e-4 * np.minimum(dist, 1.0)
    eta = np.linspace(-5.0, 5.0, 21)
    return eta, np.full(eta.shape, 1e-6)


@pytest.mark.parametrize(
    "family,link", WEIGHT_PAIRS, ids=lambda v: f"{v.kind}-{getattr(v, 'shape', '')}"
)
def test_weight_derivative_matches_central_differences(family, link):
    eta, h = _eta_with_edges(family, link)
    fd = (weight_from_eta(family, link, eta + h) - weight_from_eta(family, link, eta - h)) / (2 * h)
    an = weight_derivative(family, link, eta)
    assert np.all(np.isfinite(an))
    # atol only absorbs subnormal weights deep in the binomial tails
    np.testing.assert_allclose(an, fd, rtol=1e-6, atol=1e-290)


def test_weight_derivative_is_nan_outside_the_domain():
    assert math.isnan(weight_derivative(Family("gamma"), LinkFunction("power", 1.0), -0.5))
    assert math.isnan(weight_derivative(Family("gamma"), LinkFunction("boxcox", 0.5), -3.0))
    assert weight_derivative(Family("binomial"), LinkFunction("cloglog"), 800.0) == 0.0


def test_basis_jacobian_matches_central_differences():
    basis = ModelBasis(3, ((0, 0, 0), (1, 0, 0), (0, 1, 1), (2, 0, 1), (0, 3, 0), (1, 1, 1)))
    pts = np.random.default_rng(3).uniform(-2.0, 2.0, (7, 3))
    jac = eval_basis_jacobian(basis, pts)
    assert jac.shape == (7, basis.p, 3)
    h = 1e-6
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        fd = (eval_basis_many(basis, pts + e) - eval_basis_many(basis, pts - e)) / (2 * h)
        np.testing.assert_allclose(jac[:, :, j], fd, rtol=1e-7, atol=1e-8)


@pytest.mark.parametrize("link", LINKS, ids=lambda l: f"{l.kind}-{l.shape}")
def test_link_round_trip(link):
    eta = _admissible_grid(link)
    if link.kind == "cloglog":
        # the mean saturates at 1 in double precision beyond eta ~ 3.5
        eta = eta[eta < 3.0]
    mu = inverse_link(link, eta)
    back = link_value(link, mu)
    assert np.max(np.abs(back - eta)) < 1e-8


def test_logistic_weight_formula():
    eta = np.linspace(-5, 5, 41)
    w = weight_from_eta(Family("binomial"), LinkFunction("logistic"), eta)
    assert np.allclose(w, expit(eta) * expit(-eta), atol=1e-14)


def test_probit_weight_formula():
    eta = np.linspace(-4, 4, 33)
    w = weight_from_eta(Family("binomial"), LinkFunction("probit"), eta)
    p = norm.cdf(eta)
    expected = norm.pdf(eta) ** 2 / (p * (1 - p))
    assert np.allclose(w, expected, rtol=1e-10)


def test_probit_weight_stable_in_far_tails():
    eta = np.array([-30.0, 30.0])
    w = weight_from_eta(Family("binomial"), LinkFunction("probit"), eta)
    assert np.all(np.isfinite(w)) and np.all(w > 0)


def test_cloglog_weight_limit_at_minus_infinity():
    fam = Family("binomial")
    w = weight_from_eta(fam, LinkFunction("cloglog"), np.array([-800.0]))
    assert w[0] == 0.0


def test_cloglog_loglog_weights_mirror():
    fam = Family("binomial")
    eta = np.linspace(-3, 2, 21)
    wc = weight_from_eta(fam, LinkFunction("cloglog"), eta)
    wl = weight_from_eta(fam, LinkFunction("loglog"), eta)
    assert np.allclose(wc, wl, rtol=1e-12)


def test_poisson_log_weight_is_mean():
    eta = np.linspace(-2, 3, 11)
    w = weight_from_eta(Family("poisson"), LinkFunction("log"), eta)
    assert np.allclose(w, np.exp(eta), rtol=1e-14)


def test_gamma_weights_constant_for_log_and_boxcox_zero():
    fam = Family("gamma")
    eta = np.linspace(0.5, 3, 11)
    for link in (LinkFunction("log"), LinkFunction("boxcox", 0.0)):
        w = weight_from_eta(fam, link, eta)
        assert np.allclose(w, 1.0)


def test_gamma_power_weight():
    fam = Family("gamma")
    link = LinkFunction("power", 0.5)
    eta = np.linspace(0.3, 4, 11)
    w = weight_from_eta(fam, link, eta)
    assert np.allclose(w, 1.0 / (0.5 * eta) ** 2, rtol=1e-12)


def test_gamma_boxcox_weight():
    fam = Family("gamma")
    link = LinkFunction("boxcox", 0.5)
    eta = np.linspace(0.0, 3, 7)
    w = weight_from_eta(fam, link, eta)
    assert np.allclose(w, (1 + 0.5 * eta) ** -2, rtol=1e-12)


def test_dispersion_scales_weights():
    fam1 = Family("normal")
    fam2 = Family("normal", dispersion=4.0)
    link = LinkFunction("identity")
    eta = np.array([0.0, 1.0])
    assert np.allclose(
        weight_from_eta(fam2, link, eta), weight_from_eta(fam1, link, eta) / 4.0
    )


def test_invalid_family_and_link_rejected():
    with pytest.raises(ValidationError):
        Family("beta")
    with pytest.raises(ValidationError):
        Family("normal", dispersion=0.0)
    with pytest.raises(ValidationError):
        LinkFunction("cauchit")
    with pytest.raises(ValidationError):
        LinkFunction("power", None)


def test_second_order_term_labels():
    basis = ModelBasis.second_order(3)
    assert basis.term_labels() == (
        "1", "x1", "x2", "x3", "x1*x2", "x1*x3", "x2*x3", "x1^2", "x2^2", "x3^2",
    )


def test_first_order_basis_evaluation():
    basis = ModelBasis.first_order(2)
    rows = eval_basis_many(basis, np.array([[0.5, -2.0]]))
    assert np.allclose(rows, [[1.0, 0.5, -2.0]])


def test_second_order_basis_evaluation():
    basis = ModelBasis.second_order(2)
    rows = eval_basis_many(basis, np.array([[2.0, 3.0]]))
    assert np.allclose(rows, [[1.0, 2.0, 3.0, 6.0, 4.0, 9.0]])


def test_linear_predictor_and_weights_at():
    model = ModelSpec(
        Family("poisson"),
        LinkFunction("log"),
        ModelBasis.first_order(1),
        DesignRegion.cube(-1.0, 1.0, 1),
    )
    pts = np.array([[0.0], [1.0]])
    eta = linear_predictor(model, np.array([1.0, 2.0]), pts)
    assert np.allclose(eta, [1.0, 3.0])
    assert np.allclose(weights_at(model, np.array([1.0, 2.0]), pts), np.exp([1.0, 3.0]))


def test_region_cube_and_contains():
    r = DesignRegion.cube(-1.0, 1.0, 2)
    assert r.k == 2 and r.is_bounded
    assert r.contains(np.array([1.0, -1.0]))
    assert not r.contains(np.array([1.1, 0.0]))
    assert np.allclose(r.clip(np.array([2.0, -3.0])), [1.0, -1.0])


def test_region_free_last_axis():
    r = DesignRegion.box_with_free_last(((-1.0, 1.0),))
    assert r.k == 2
    assert r.unbounded_axis == 1
    assert not r.is_bounded
    assert r.contains(np.array([0.5, 1e9]))


def test_region_rejects_two_unbounded_axes():
    inf = math.inf
    with pytest.raises(ValidationError):
        DesignRegion(((-inf, inf), (-inf, inf)))
    with pytest.raises(ValidationError):
        DesignRegion(((0.0, inf),))


def test_model_dimension_checks():
    model = ModelSpec(
        Family("binomial"),
        LinkFunction("logistic"),
        ModelBasis.first_order(2),
        DesignRegion.cube(-1.0, 1.0, 2),
    )
    assert model.p == 3
    with pytest.raises(ValidationError):
        linear_predictor(model, np.array([0.0, 1.0]), np.array([[0.0, 0.0]]))
