"""Parameter priors, reproducible sampling and prior-averaged criteria.

Randomness discipline: every consumer derives its generator as
``default_rng([master_seed, stream_tag, *extras])`` with a fixed per-purpose
stream tag, so adding draws in one place never shifts the draws used by
another.  Degenerate prior axes still consume their column of uniforms,
keeping the stream layout independent of which axes happen to be fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .designs import (
    ContinuousDesign,
    EquivalenceReport,
    GridSpec,
    _efficiencies,
    design_objective,
    equivalence_scan,
)
from .errors import (
    DimensionError,
    NumericalError,
    PreconditionError,
    ValidationError,
)
from .families import ModelSpec

# stream tags (see module docstring)
STREAM_PRIOR = 11
STREAM_STARTS = 23
STREAM_ANNEAL = 37
STREAM_LOWDISC = 41
STREAM_EXCHANGE = 43

_EFF_CHUNK = 1024  # draws per efficiency stack: bounds memory whatever n_draws is


def rng_for(master_seed: int, stream: int, *extras: int) -> np.random.Generator:
    return np.random.default_rng([int(master_seed), int(stream), *[int(e) for e in extras]])


@dataclass(frozen=True, eq=False)
class Prior:
    """Point mass, uniform box, or an explicit weighted sample."""

    kind: str
    theta: np.ndarray | None = None
    bounds: np.ndarray | None = None
    draws: np.ndarray | None = None
    weights: np.ndarray | None = None

    @staticmethod
    def point(theta) -> "Prior":
        theta = np.asarray(theta, dtype=float).reshape(-1)
        if theta.size == 0 or not np.all(np.isfinite(theta)):
            raise ValidationError("point prior needs a finite parameter vector")
        return Prior(kind="point", theta=theta)

    @staticmethod
    def uniform_box(bounds) -> "Prior":
        b = np.asarray(bounds, dtype=float)
        if b.ndim != 2 or b.shape[1] != 2 or b.shape[0] == 0:
            raise ValidationError("uniform box bounds must be (p, 2)")
        if not np.all(np.isfinite(b)):
            raise ValidationError("uniform box bounds must be finite")
        # equal endpoints express an axis held fixed; reversed ones are a bug
        if np.any(b[:, 0] > b[:, 1]):
            raise ValidationError("uniform box needs lower <= upper on every axis")
        return Prior(kind="uniform_box", bounds=b)

    @staticmethod
    def from_sample(draws, weights=None) -> "Prior":
        try:
            d = np.atleast_2d(np.asarray(draws, dtype=float))
            w = None if weights is None else np.asarray(weights, dtype=float).reshape(-1)
        except ValueError:
            raise ValidationError("sample draws and weights must be rectangular arrays") from None
        if d.ndim != 2 or not np.all(np.isfinite(d)):
            raise ValidationError("sample draws must be a finite (n, p) array")
        if w is None:
            w = np.full(d.shape[0], 1.0 / d.shape[0])
        else:
            if w.shape[0] != d.shape[0] or not np.all((w > 0) & np.isfinite(w)):
                raise ValidationError("sample weights must be positive and finite, one per draw")
            w = w / w.sum()
        return Prior(kind="sample", draws=d, weights=w)

    @property
    def dim(self) -> int:
        if self.kind == "point":
            return self.theta.shape[0]
        if self.kind == "uniform_box":
            return self.bounds.shape[0]
        return self.draws.shape[1]

    def mean(self) -> np.ndarray:
        """Prior mean, exact for every supported kind."""
        if self.kind == "point":
            return self.theta.copy()
        if self.kind == "uniform_box":
            return 0.5 * (self.bounds[:, 0] + self.bounds[:, 1])
        return self.weights @ self.draws


@dataclass(frozen=True)
class SampleSpec:
    """How many draws, which master seed, and the sampling scheme."""

    n_draws: int
    seed: int = 0
    method: str = "lhs"

    def __post_init__(self):
        if self.n_draws < 1:
            raise ValidationError("n_draws must be at least 1")
        if self.method not in ("lhs", "iid"):
            raise ValidationError(f"unknown sampling method {self.method!r}")


@dataclass(frozen=True, eq=False)
class ParamSample:
    """Concrete draws used to average a criterion over the prior."""

    draws: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        d = np.atleast_2d(np.asarray(self.draws, dtype=float))
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        if w.shape[0] != d.shape[0]:
            raise DimensionError("one weight per draw")
        object.__setattr__(self, "draws", d)
        object.__setattr__(self, "weights", w / w.sum())

    @property
    def n(self) -> int:
        return self.draws.shape[0]


def _lhs_unit(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """Latin hypercube on the unit cube: one stratum per draw on every axis.

    Hand-rolled so that the stream layout (per axis: a permutation, then the
    in-stratum offsets) is pinned by this package, not by a library version.
    """
    u = np.empty((n, dim))
    for j in range(dim):
        perm = rng.permutation(n)
        off = rng.random(n)
        u[:, j] = (perm + off) / n
    return u


def _draw(prior: Prior, rng: np.random.Generator, n: int, method: str) -> np.ndarray:
    """n draws from a uniform box or an explicit sample, taken from rng."""
    if prior.kind == "uniform_box":
        if method == "lhs":
            unit = _lhs_unit(rng, n, prior.dim)
        else:
            unit = rng.random((n, prior.dim))
        lo = prior.bounds[:, 0]
        span = prior.bounds[:, 1] - prior.bounds[:, 0]
        return lo + span * unit
    # resample an explicit sample
    if method == "lhs":
        raise ValidationError("latin hypercube sampling needs a uniform box prior")
    idx = rng.choice(prior.draws.shape[0], size=n, replace=True, p=prior.weights)
    return prior.draws[idx]


def sample_prior(prior: Prior, spec: SampleSpec) -> ParamSample:
    """Draw a reproducible sample from the prior."""
    if prior.kind == "point":
        return ParamSample(prior.theta[None, :], np.array([1.0]))
    rng = rng_for(spec.seed, STREAM_PRIOR)
    n = spec.n_draws
    return ParamSample(_draw(prior, rng, n, spec.method), np.full(n, 1.0 / n))


def resolve_sample(prior, sample=None) -> ParamSample:
    """Normalize the accepted prior forms into concrete draws.

    Accepts a parameter vector, a stack of draws, a Prior, a ParamSample, or
    a SampleSpec to realize a stochastic prior.
    """
    if isinstance(prior, ParamSample):
        return prior
    if isinstance(prior, Prior):
        if prior.kind == "point":
            return ParamSample(prior.theta[None, :], np.array([1.0]))
        if prior.kind == "sample" and sample is None:
            return ParamSample(prior.draws, prior.weights)
        if sample is None:
            raise ValidationError(
                "a stochastic prior needs a SampleSpec to be averaged over"
            )
        if isinstance(sample, ParamSample):
            return sample
        return sample_prior(prior, sample)
    arr = np.asarray(prior, dtype=float)
    if arr.ndim == 1:
        return ParamSample(arr[None, :], np.array([1.0]))
    if arr.ndim == 2:
        return ParamSample(arr, np.full(arr.shape[0], 1.0 / arr.shape[0]))
    raise ValidationError("prior must be a vector, draw stack, Prior or ParamSample")


def bayes_objective(design, model: ModelSpec, prior, sample=None) -> float:
    """Prior average of -log det M; +inf if any draw is singular."""
    ps = resolve_sample(prior, sample)
    acc = 0.0
    for th, w in zip(ps.draws, ps.weights):
        val = design_objective(design, model, th)
        if math.isinf(val):
            return math.inf
        acc += w * val
    return acc


def equivalence_check(
    design,
    model: ModelSpec,
    prior,
    grid: GridSpec | None = None,
    sample=None,
    tol: float | None = None,
) -> EquivalenceReport:
    """Equivalence theorem check for point priors and prior averages alike."""
    ps = resolve_sample(prior, sample)
    return equivalence_scan(design, model, ps.draws, ps.weights, grid=grid, tol=tol)


def nearest_rank_quantile(values, q: float) -> float:
    """Classical nearest-rank quantile: the ceil(qN)-th order statistic."""
    vals = np.sort(np.asarray(values, dtype=float).reshape(-1))
    n = vals.shape[0]
    if n == 0:
        raise ValidationError("quantile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValidationError("quantile level must be in [0, 1]")
    rank = max(int(math.ceil(q * n)), 1)
    return float(vals[rank - 1])


@dataclass(frozen=True, eq=False)
class EfficiencyDistribution:
    """Efficiency of a fixed design across prior draws, with summary stats."""

    draws: np.ndarray
    efficiencies: np.ndarray
    n_rejected: int

    @property
    def n(self) -> int:
        return self.efficiencies.shape[0]

    @property
    def minimum(self) -> float:
        return float(np.min(self.efficiencies))

    @property
    def maximum(self) -> float:
        return float(np.max(self.efficiencies))

    @property
    def median(self) -> float:
        return nearest_rank_quantile(self.efficiencies, 0.5)

    def quantile(self, q: float) -> float:
        return nearest_rank_quantile(self.efficiencies, q)

    def fraction_above(self, level: float) -> float:
        return float(np.mean(self.efficiencies > level))

    def summary(self) -> dict:
        return {
            "n": self.n,
            "n_rejected": int(self.n_rejected),
            "min": self.minimum,
            "q25": self.quantile(0.25),
            "median": self.median,
            "q75": self.quantile(0.75),
            "max": self.maximum,
        }


def efficiency_distribution(
    design,
    competitor,
    model: ModelSpec,
    prior: Prior,
    n_draws: int,
    seed: int = 0,
    method: str = "iid",
) -> EfficiencyDistribution:
    """Efficiency of ``design`` relative to ``competitor`` draw by draw.

    competitor is either a fixed design or a callable theta -> design (for a
    per-draw optimal reference).  Draws where the callable raises
    PreconditionError are rejected and replaced by fresh draws from the same
    stream; their count is reported.

    The callable is called for every draw of a chunk of 1024 draws before the
    chunk's efficiencies, equal to d_efficiency's bit for bit, are computed as
    stacks; an error is d_efficiency's at the chunk's first failing draw.
    """
    if prior.kind == "point":
        raise ValidationError("an efficiency distribution needs a non-degenerate prior")
    if n_draws < 1:
        raise ValidationError("n_draws must be at least 1")
    rng = rng_for(seed, STREAM_PRIOR)
    kept_draws, effs = [], []
    n_rejected = 0
    budget = 1000 * n_draws
    while len(kept_draws) < n_draws:
        need = n_draws - len(kept_draws)
        batch = _draw(prior, rng, need, method)
        for lo in range(0, need, _EFF_CHUNK):
            refs = []
            for th in batch[lo : lo + _EFF_CHUNK]:
                if isinstance(competitor, (ContinuousDesign,)) or hasattr(competitor, "reps"):
                    ref = competitor
                else:
                    try:
                        ref = competitor(th)
                    except PreconditionError:
                        n_rejected += 1
                        continue
                kept_draws.append(th)
                refs.append(getattr(ref, "design", ref))
            if refs:
                effs += _efficiencies(design, refs, model, kept_draws[len(effs) :])
        budget -= need
        if budget <= 0:
            raise NumericalError("efficiency distribution rejected nearly every draw")
    return EfficiencyDistribution(
        draws=np.array(kept_draws),
        efficiencies=np.array(effs),
        n_rejected=n_rejected,
    )
