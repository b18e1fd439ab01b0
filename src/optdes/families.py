"""Model families, link functions, regression bases and design regions.

A single observation at x contributes the rank-one information
``u(x) f(x) f(x)'`` where f is the basis vector and

    u(x) = (dmu/deta)^2 / (phi * V(mu)),    eta = theta' f(x).

Everything downstream (information matrices, sensitivity functions, the
closed-form constructions) is built from u and f.  The binomial weights are
evaluated in log space: the naive pdf/cdf ratios turn into 0/0 once |eta|
passes ~38, while the log-space forms underflow cleanly to u = 0.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy import special

from .errors import (
    DimensionError,
    LinkDomainError,
    UnsupportedModelError,
    ValidationError,
)

FAMILY_KINDS = ("binomial", "poisson", "gamma", "normal")
LINK_KINDS = ("logistic", "probit", "cloglog", "loglog", "log", "boxcox", "power", "identity")

_ALLOWED = {
    "binomial": ("logistic", "probit", "cloglog", "loglog"),
    "poisson": ("log",),
    "gamma": ("log", "boxcox", "power"),
    "normal": ("identity",),
}

# smallest admissible value of (1 + lambda*eta) for box-cox, and of eta for
# the power link; below this the mean is not a positive real number
ETA_DOMAIN_FLOOR = 1e-12


@dataclass(frozen=True)
class Family:
    """Response distribution; dispersion is treated as fixed and known."""

    kind: str
    dispersion: float = 1.0

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise UnsupportedModelError(f"unknown family kind {self.kind!r}")
        if not (float(self.dispersion) > 0.0):
            raise ValidationError("dispersion must be positive")
        object.__setattr__(self, "dispersion", float(self.dispersion))

    def variance(self, mu):
        """Variance function V(mu) of the family (without dispersion)."""
        mu = np.asarray(mu, dtype=float)
        if self.kind == "binomial":
            return mu * (1.0 - mu)
        if self.kind == "poisson":
            return mu
        if self.kind == "gamma":
            return mu * mu
        return np.ones_like(mu)


@dataclass(frozen=True)
class LinkFunction:
    """Link g with mu = g^{-1}(eta).

    ``shape`` carries the box-cox exponent (any real, 0 means the log link)
    or the power-link exponent (nonzero).  Other links take no shape.
    """

    kind: str
    shape: float | None = None

    def __post_init__(self):
        if self.kind not in LINK_KINDS:
            raise UnsupportedModelError(f"unknown link kind {self.kind!r}")
        if self.kind == "boxcox":
            if self.shape is None:
                raise ValidationError("boxcox link requires a shape exponent")
            object.__setattr__(self, "shape", float(self.shape))
        elif self.kind == "power":
            if self.shape is None or float(self.shape) == 0.0:
                raise ValidationError("power link requires a nonzero exponent")
            object.__setattr__(self, "shape", float(self.shape))
        elif self.shape is not None:
            raise ValidationError(f"link {self.kind!r} takes no shape parameter")


@dataclass(frozen=True)
class ModelBasis:
    """Polynomial regression basis.

    Each term is a tuple of exponents, one per variable; the basis vector at x
    is the product x_j^{e_j} over each term.  Term order is fixed: intercept,
    linear terms, cross products of pairs in lexicographic order, then squares.
    """

    k: int
    terms: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.k < 1:
            raise ValidationError("basis needs at least one variable")
        terms = tuple(tuple(int(e) for e in t) for t in self.terms)
        if not terms:
            raise ValidationError("basis needs at least one term")
        for t in terms:
            if len(t) != self.k or any(e < 0 for e in t):
                raise ValidationError(f"bad exponent tuple {t!r} for k={self.k}")
        if len(set(terms)) != len(terms):
            raise ValidationError("duplicate basis terms")
        object.__setattr__(self, "terms", terms)

    @property
    def p(self) -> int:
        return len(self.terms)

    @property
    def max_order(self) -> int:
        return max(sum(t) for t in self.terms)

    @staticmethod
    def first_order(k: int) -> "ModelBasis":
        terms = [(0,) * k]
        for i in range(k):
            e = [0] * k
            e[i] = 1
            terms.append(tuple(e))
        return ModelBasis(k, tuple(terms))

    @staticmethod
    def second_order(k: int) -> "ModelBasis":
        terms = list(ModelBasis.first_order(k).terms)
        for i, j in combinations(range(k), 2):
            e = [0] * k
            e[i] = 1
            e[j] = 1
            terms.append(tuple(e))
        for i in range(k):
            e = [0] * k
            e[i] = 2
            terms.append(tuple(e))
        return ModelBasis(k, tuple(terms))

    def is_first_order(self) -> bool:
        return self.terms == ModelBasis.first_order(self.k).terms

    def term_labels(self) -> tuple[str, ...]:
        out = []
        for t in self.terms:
            parts = []
            for j, e in enumerate(t):
                if e == 1:
                    parts.append(f"x{j + 1}")
                elif e > 1:
                    parts.append(f"x{j + 1}^{e}")
            out.append("*".join(parts) if parts else "1")
        return tuple(out)


@dataclass(frozen=True)
class DesignRegion:
    """Axis-aligned box, with at most one axis allowed to be the whole line."""

    bounds: tuple[tuple[float, float], ...]

    def __post_init__(self):
        bnds = []
        n_unbounded = 0
        for b in self.bounds:
            lo, hi = float(b[0]), float(b[1])
            if math.isinf(lo) != math.isinf(hi):
                raise ValidationError("half-infinite axes are not supported")
            if math.isinf(lo):
                n_unbounded += 1
                bnds.append((-math.inf, math.inf))
                continue
            if not lo < hi:
                raise ValidationError(f"degenerate axis bounds ({lo}, {hi})")
            bnds.append((lo, hi))
        if n_unbounded > 1:
            raise ValidationError("at most one unbounded axis is supported")
        object.__setattr__(self, "bounds", tuple(bnds))

    @property
    def k(self) -> int:
        return len(self.bounds)

    @property
    def unbounded_axis(self) -> int | None:
        for j, (lo, _) in enumerate(self.bounds):
            if math.isinf(lo):
                return j
        return None

    @property
    def is_bounded(self) -> bool:
        return self.unbounded_axis is None

    @staticmethod
    def cube(lo: float, hi: float, k: int) -> "DesignRegion":
        return DesignRegion(tuple((lo, hi) for _ in range(k)))

    @staticmethod
    def box(bounds) -> "DesignRegion":
        return DesignRegion(tuple((b[0], b[1]) for b in bounds))

    @staticmethod
    def box_with_free_last(bounds) -> "DesignRegion":
        """Bounded box on the leading axes, unbounded final axis."""
        full = [(b[0], b[1]) for b in bounds]
        full.append((-math.inf, math.inf))
        return DesignRegion(tuple(full))

    def contains(self, x, tol: float = 1e-9) -> bool:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.k,):
            raise DimensionError(f"point has shape {x.shape}, region has k={self.k}")
        for v, (lo, hi) in zip(x, self.bounds):
            if math.isinf(lo):
                continue
            if v < lo - tol or v > hi + tol:
                return False
        return True

    def clip(self, x):
        x = np.asarray(x, dtype=float).copy()
        for j, (lo, hi) in enumerate(self.bounds):
            if not math.isinf(lo):
                x[j] = min(max(x[j], lo), hi)
        return x


@dataclass(frozen=True)
class ModelSpec:
    """Family + link + basis + design region (the full design problem input)."""

    family: Family
    link: LinkFunction
    basis: ModelBasis
    region: DesignRegion

    def __post_init__(self):
        if self.link.kind not in _ALLOWED[self.family.kind]:
            raise UnsupportedModelError(
                f"link {self.link.kind!r} is not available for family {self.family.kind!r}"
            )
        if self.region.k != self.basis.k:
            raise DimensionError(
                f"region has {self.region.k} axes but basis expects {self.basis.k}"
            )

    @property
    def p(self) -> int:
        return self.basis.p

    @property
    def k(self) -> int:
        return self.basis.k


def eval_basis(basis: ModelBasis, x) -> np.ndarray:
    """Basis vector f(x), shape (p,)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (basis.k,):
        raise DimensionError(f"point has shape {x.shape}, basis expects ({basis.k},)")
    return eval_basis_many(basis, x[None, :])[0]

def eval_basis_many(basis: ModelBasis, points) -> np.ndarray:
    """Basis rows for a (n, k) array of points, shape (n, p)."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != basis.k:
        raise DimensionError(f"points have shape {pts.shape}, basis expects (n, {basis.k})")
    n = pts.shape[0]
    out = np.empty((n, basis.p))
    for col, term in enumerate(basis.terms):
        acc = np.ones(n)
        for j, e in enumerate(term):
            if e == 1:
                acc = acc * pts[:, j]
            elif e > 1:
                acc = acc * pts[:, j] ** e
        out[:, col] = acc
    return out


def eval_basis_jacobian(basis: ModelBasis, points) -> np.ndarray:
    """Derivatives df_i/dx_j of the basis rows at (n, k) points, shape (n, p, k)."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != basis.k:
        raise DimensionError(f"points have shape {pts.shape}, basis expects (n, {basis.k})")
    E = np.array(basis.terms)
    out = np.empty((pts.shape[0], basis.p, basis.k))
    for j in range(basis.k):
        lowered = np.maximum(E - np.eye(basis.k, dtype=int)[j], 0)
        out[:, :, j] = E[:, j] * np.prod(pts[:, None, :] ** lowered, axis=2)
    return out


def linear_predictor(model: ModelSpec, theta, points) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (model.p,):
        raise DimensionError(f"theta has shape {theta.shape}, model expects ({model.p},)")
    return eval_basis_many(model.basis, points) @ theta


def eta_admissible_mask(link: LinkFunction, eta) -> np.ndarray:
    """Boolean mask of eta values inside the link's domain."""
    eta = np.asarray(eta, dtype=float)
    if link.kind == "boxcox" and link.shape != 0.0:
        return 1.0 + link.shape * eta >= ETA_DOMAIN_FLOOR
    if link.kind == "power":
        return eta >= ETA_DOMAIN_FLOOR
    return np.ones(eta.shape, dtype=bool)


def assert_eta_admissible(link: LinkFunction, eta) -> None:
    eta = np.asarray(eta, dtype=float)
    ok = eta_admissible_mask(link, eta)
    if not np.all(ok):
        bad = float(np.asarray(eta).reshape(-1)[np.flatnonzero(~ok.reshape(-1))[0]])
        if link.kind == "boxcox":
            detail = f"requires 1 + {link.shape}*eta >= {ETA_DOMAIN_FLOOR}"
        else:
            detail = f"requires eta >= {ETA_DOMAIN_FLOOR}"
        raise LinkDomainError(link.kind, bad, detail)


def inverse_link(link: LinkFunction, eta) -> np.ndarray:
    """Mean mu = g^{-1}(eta); raises LinkDomainError outside the domain."""
    eta = np.asarray(eta, dtype=float)
    assert_eta_admissible(link, eta)
    kind = link.kind
    with np.errstate(over="ignore", under="ignore"):
        if kind == "identity":
            return eta + 0.0
        if kind == "logistic":
            return special.expit(eta)
        if kind == "probit":
            return special.ndtr(eta)
        if kind == "cloglog":
            # mu = 1 - exp(-exp(eta))
            return -np.expm1(-np.exp(eta))
        if kind == "loglog":
            return np.exp(-np.exp(eta))
        if kind == "log":
            return np.exp(eta)
        if kind == "boxcox":
            lam = link.shape
            if lam == 0.0:
                return np.exp(eta)
            return np.power(1.0 + lam * eta, 1.0 / lam)
        if kind == "power":
            return np.power(eta, 1.0 / link.shape)
    raise UnsupportedModelError(kind)


def link_value(link: LinkFunction, mu) -> np.ndarray:
    """eta = g(mu), the forward link.  Provided for round-trip checks."""
    mu = np.asarray(mu, dtype=float)
    kind = link.kind
    if kind == "identity":
        return mu + 0.0
    if kind == "logistic":
        return special.logit(mu)
    if kind == "probit":
        return special.ndtri(mu)
    if kind == "cloglog":
        return np.log(-np.log1p(-mu))
    if kind == "loglog":
        return np.log(-np.log(mu))
    if kind == "log":
        return np.log(mu)
    if kind == "boxcox":
        lam = link.shape
        if lam == 0.0:
            return np.log(mu)
        return (np.power(mu, lam) - 1.0) / lam
    if kind == "power":
        return np.power(mu, link.shape)
    raise UnsupportedModelError(kind)


def mean_derivative(link: LinkFunction, eta) -> np.ndarray:
    """dmu/deta at eta, analytic."""
    eta = np.asarray(eta, dtype=float)
    assert_eta_admissible(link, eta)
    kind = link.kind
    with np.errstate(over="ignore", under="ignore"):
        if kind == "identity":
            return np.ones_like(eta)
        if kind == "logistic":
            return special.expit(eta) * special.expit(-eta)
        if kind == "probit":
            return np.exp(-0.5 * eta * eta) / math.sqrt(2.0 * math.pi)
        if kind == "cloglog":
            return np.exp(eta - np.exp(eta))
        if kind == "loglog":
            return -np.exp(eta - np.exp(eta))
        if kind == "log":
            return np.exp(eta)
        if kind == "boxcox":
            lam = link.shape
            if lam == 0.0:
                return np.exp(eta)
            return np.power(1.0 + lam * eta, 1.0 / lam - 1.0)
        if kind == "power":
            kap = link.shape
            return np.power(eta, 1.0 / kap - 1.0) / kap
    raise UnsupportedModelError(kind)


def weight_from_eta(family: Family, link: LinkFunction, eta) -> np.ndarray:
    """Information weight u(eta), NaN where eta is outside the link domain.

    Stable forms:
      logistic        u = sigm(eta) sigm(-eta)
      probit          log u = 2 log phi(eta) - log Phi(eta) - log Phi(-eta)
      cloglog/loglog  log u = 2 eta - t - log(1 - e^{-t}),  t = e^eta
      poisson-log     u = e^eta
      gamma-log       u = 1
      gamma-boxcox    u = (1 + lambda eta)^{-2}
      gamma-power     u = (kappa eta)^{-2}
      normal-identity u = 1
    all divided by the fixed dispersion.
    """
    eta = np.asarray(eta, dtype=float)
    scalar = eta.ndim == 0
    eta = np.atleast_1d(eta).astype(float)
    fam, kind = family.kind, link.kind
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        if fam == "binomial":
            if kind == "logistic":
                u = special.expit(eta) * special.expit(-eta)
            elif kind == "probit":
                log_pdf = -0.5 * eta * eta - 0.5 * math.log(2.0 * math.pi)
                u = np.exp(2.0 * log_pdf - special.log_ndtr(eta) - special.log_ndtr(-eta))
            else:
                # cloglog and loglog share the same weight profile
                t = np.exp(eta)
                log_u = 2.0 * eta - t - np.log(-np.expm1(-t))
                u = np.where(t > 0.0, np.exp(log_u), 0.0)
        elif fam == "poisson":
            u = np.exp(eta)
        elif fam == "gamma":
            if kind == "log" or (kind == "boxcox" and link.shape == 0.0):
                u = np.ones_like(eta)
            elif kind == "boxcox":
                s = 1.0 + link.shape * eta
                u = np.where(s >= ETA_DOMAIN_FLOOR, 1.0 / (s * s), np.nan)
            else:  # power
                se = link.shape * eta
                u = np.where(eta >= ETA_DOMAIN_FLOOR, 1.0 / (se * se), np.nan)
        else:  # normal
            u = np.ones_like(eta)
    u = u / family.dispersion
    return float(u[0]) if scalar else u


def weight_derivative(family: Family, link: LinkFunction, eta) -> np.ndarray:
    """du/deta, NaN where eta is outside the link domain.

    Written as u * dlog(u)/deta from the forms of weight_from_eta:
      logistic        u (1 - 2 mu) = -u tanh(eta/2)
      probit          u (-2 eta - phi/Phi(eta) + phi/Phi(-eta))
      cloglog/loglog  u (2 - t - t/(e^t - 1)),  t = e^eta
      poisson-log     u
      gamma-boxcox    -2 lambda u / (1 + lambda eta)
      gamma-power     -2 u / eta
      otherwise       0
    so the tails give 0 wherever u underflows to 0.
    """
    eta = np.asarray(eta, dtype=float)
    scalar = eta.ndim == 0
    eta = np.atleast_1d(eta).astype(float)
    u = np.atleast_1d(weight_from_eta(family, link, eta))
    fam, kind = family.kind, link.kind
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        if fam == "binomial":
            if kind == "logistic":
                g = -np.tanh(0.5 * eta)
            elif kind == "probit":
                log_pdf = -0.5 * eta * eta - 0.5 * math.log(2.0 * math.pi)
                g = (
                    -2.0 * eta
                    - np.exp(log_pdf - special.log_ndtr(eta))
                    + np.exp(log_pdf - special.log_ndtr(-eta))
                )
            else:
                t = np.exp(eta)
                g = 2.0 - t - np.where(t > 0.0, t / np.expm1(t), 1.0)
            du = np.where(u > 0.0, u * g, 0.0)
        elif fam == "poisson":
            du = u
        elif fam == "gamma" and kind == "boxcox" and link.shape != 0.0:
            du = -2.0 * link.shape * u / (1.0 + link.shape * eta)
        elif fam == "gamma" and kind == "power":
            du = -2.0 * u / eta
        else:  # gamma-log, gamma-boxcox at lambda = 0, normal: u is constant
            du = np.zeros_like(eta)
    return float(du[0]) if scalar else du


def glm_weight(model: ModelSpec, theta, x) -> float:
    """u(x) for a single design point; raises LinkDomainError when inadmissible."""
    eta = float(linear_predictor(model, theta, np.asarray(x, dtype=float)[None, :])[0])
    assert_eta_admissible(model.link, eta)
    return float(weight_from_eta(model.family, model.link, eta))


def weights_at(model: ModelSpec, theta, points) -> np.ndarray:
    """u at each row of points, strict: inadmissible rows raise with their index."""
    eta = linear_predictor(model, theta, points)
    ok = eta_admissible_mask(model.link, eta)
    if not np.all(ok):
        i = int(np.flatnonzero(~ok)[0])
        raise LinkDomainError(
            model.link.kind, float(eta[i]), detail=f"design point index {i}"
        )
    return weight_from_eta(model.family, model.link, eta)
