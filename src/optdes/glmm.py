"""Block designs for models with a shared random intercept.

Each block of m runs shares one normal random effect with variance sigma2 on
the linear predictor scale.  Marginal information approximations:

  ql   quasi-likelihood on the marginal moments (closed form needs the
       poisson-log pair): mubar = exp(eta + sigma2/2),
       V = diag(mubar) + (e^{sigma2} - 1) mubar mubar',  Delta = diag(mubar)
  mql  first-order expansion around a zero random effect: mu = h(eta),
       V = diag(V_glm(mu)) + sigma2 * Delta J Delta,  Delta = diag(h'(eta))
  gee  working covariance D^{1/2} R(alpha) D^{1/2} with exchangeable R and
       D = diag(V_glm(mu))

and in every case the block contributes M(zeta) = F' Delta V^{-1} Delta F,
the m-run analogue of the pointwise atom u f f'.  At sigma2 = 0 (gee with
alpha = 0) all three collapse to the independent-observation information.

For binomial blocks with a logistic link the exact marginal information is
also available by Gauss-Hermite quadrature over the random intercept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations_with_replacement, product

import numpy as np

from .designs import (
    EquivalenceReport,
    _lattice_sizes,
    _lock,
    d_objective,
    psd_logdet,
)
from .errors import (
    DimensionError,
    SingularDesignError,
    UnsupportedModelError,
    ValidationError,
)
from .families import (
    DesignRegion,
    ModelSpec,
    assert_eta_admissible,
    eval_basis_many,
    inverse_link,
    mean_derivative,
)
from .optimize import ContinuousOptOptions, OptimizeResult, _Atoms, _optimize_atoms

BLOCK_METHODS = ("ql", "mql", "gee")


@dataclass(frozen=True)
class RandomInterceptModel:
    """A marginal GLM plus a block-shared normal intercept."""

    base: ModelSpec
    sigma2: float
    m: int

    def __post_init__(self):
        if float(self.sigma2) < 0.0:
            raise ValidationError("random intercept variance must be nonnegative")
        if int(self.m) < 1:
            raise ValidationError("block size must be at least 1")
        object.__setattr__(self, "sigma2", float(self.sigma2))
        object.__setattr__(self, "m", int(self.m))

    @property
    def p(self) -> int:
        return self.base.p

    @property
    def k(self) -> int:
        return self.base.k


@dataclass(frozen=True, eq=False)
class BlockDesign:
    """Weighted measure over blocks; blocks is (t, m, k)."""

    blocks: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        try:
            B = np.asarray(self.blocks, dtype=float)
        except ValueError:
            raise ValidationError(
                "design blocks must be a rectangular (t, m, k) array: every block m runs of k numbers"
            ) from None
        if B.ndim == 2:
            B = B[:, :, None]
        if B.ndim != 3:
            raise DimensionError(f"blocks must be (t, m, k), got shape {B.shape}")
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        if w.shape[0] != B.shape[0]:
            raise DimensionError(f"{B.shape[0]} blocks but {w.shape[0]} weights")
        if not np.all(w > 0.0):
            raise ValidationError("block weights must be strictly positive")
        if abs(float(w.sum()) - 1.0) > 1e-8:
            raise ValidationError(f"block weights sum to {float(w.sum()):.12g}, expected 1")
        if not np.all(np.isfinite(B)):
            raise ValidationError("block coordinates must be finite")
        object.__setattr__(self, "blocks", _lock(B))
        object.__setattr__(self, "weights", _lock(w))

    @property
    def t(self) -> int:
        return self.blocks.shape[0]

    @property
    def m(self) -> int:
        return self.blocks.shape[1]

    @property
    def k(self) -> int:
        return self.blocks.shape[2]

    def canonical(self) -> "BlockDesign":
        """Rows sorted within each block, then blocks sorted, weights carried."""
        B = _sort_slots(self.blocks)
        flat = B.reshape(B.shape[0], -1)
        order = np.lexsort(flat.T[::-1])
        return BlockDesign(B[order], np.array(self.weights)[order])


def _sort_slots(B: np.ndarray) -> np.ndarray:
    """Copy of a (t, m, k) block stack with each block's runs sorted."""
    B = np.array(B)
    for b in range(B.shape[0]):
        B[b] = B[b][np.lexsort(B[b].T[::-1])]
    return B


def _check_method(model: RandomInterceptModel, method: str) -> None:
    if method not in BLOCK_METHODS:
        raise ValidationError(f"unknown block method {method!r}")
    fam, link = model.base.family.kind, model.base.link.kind
    if method == "ql" and not (fam == "poisson" and link == "log"):
        raise UnsupportedModelError(
            "closed-form marginal moments are only available for the "
            "poisson family with log link; use mql or gee instead"
        )


def _block_matrices(
    model: RandomInterceptModel, etas: np.ndarray, method: str, gee_alpha: float
) -> tuple[np.ndarray, np.ndarray]:
    """V (n, m, m) and the diagonal of Delta (n, m) for blocks of predictors."""
    base = model.base
    s2 = model.sigma2
    m = etas.shape[1]
    phi = base.family.dispersion
    eye = np.eye(m)
    ones = np.ones((m, m))
    if method == "ql":
        mubar = np.exp(etas + 0.5 * s2)
        V = mubar[:, :, None] * eye[None, :, :] * phi
        V = V + (math.expm1(s2)) * mubar[:, :, None] * mubar[:, None, :]
        return V, mubar
    mu = inverse_link(base.link, etas)
    var = base.family.variance(mu) * phi
    delta = mean_derivative(base.link, etas)
    if method == "mql":
        V = var[:, :, None] * eye[None, :, :]
        V = V + s2 * delta[:, :, None] * delta[:, None, :]
        return V, delta
    # gee
    if not (0.0 <= gee_alpha < 1.0):
        raise ValidationError("exchangeable correlation must be in [0, 1)")
    R = (1.0 - gee_alpha) * eye + gee_alpha * ones
    sd = np.sqrt(var)
    V = sd[:, :, None] * R[None, :, :] * sd[:, None, :]
    return V, delta


def block_info_batch(
    Z: np.ndarray,
    model: RandomInterceptModel,
    theta,
    method: str,
    gee_alpha: float = 0.5,
) -> np.ndarray:
    """Information matrices for a stack of blocks, shape (n, p, p)."""
    _check_method(model, method)
    Z = np.asarray(Z, dtype=float)
    if Z.ndim == 2:
        Z = Z[:, :, None]
    n, m, k = Z.shape
    if m != model.m or k != model.k:
        raise DimensionError(f"blocks have shape {(m, k)}, model expects {(model.m, model.k)}")
    theta = np.asarray(theta, dtype=float).reshape(-1)
    F = eval_basis_many(model.base.basis, Z.reshape(n * m, k)).reshape(n, m, model.p)
    etas = F @ theta
    assert_eta_admissible(model.base.link, etas)
    V, delta = _block_matrices(model, etas, method, gee_alpha)
    Vinv = np.linalg.inv(V)
    A = delta[:, :, None] * F
    M = np.einsum("nmi,nml,nlj->nij", A, Vinv, A)
    return 0.5 * (M + M.transpose(0, 2, 1))


def block_info_matrix(
    zeta, model: RandomInterceptModel, theta, method: str, gee_alpha: float = 0.5
) -> np.ndarray:
    """Information contributed by one block of m runs."""
    zeta = np.asarray(zeta, dtype=float)
    if zeta.ndim == 1:
        zeta = zeta[:, None]
    return block_info_batch(zeta[None, :, :], model, theta, method, gee_alpha)[0]


def block_design_info(
    design: BlockDesign, model: RandomInterceptModel, theta, method: str,
    gee_alpha: float = 0.5,
) -> np.ndarray:
    Ms = block_info_batch(design.blocks, model, theta, method, gee_alpha)
    return np.einsum("n,nij->ij", design.weights, Ms)


def block_objective(
    design: BlockDesign, model: RandomInterceptModel, theta, method: str,
    gee_alpha: float = 0.5,
) -> float:
    return d_objective(block_design_info(design, model, theta, method, gee_alpha))


def mv_sensitivity(
    zeta, design: BlockDesign, model: RandomInterceptModel, theta, method: str,
    gee_alpha: float = 0.5,
) -> float:
    """psi(zeta) = p - tr{ M(zeta) M(design)^{-1} }, the block-level analogue
    of the pointwise sensitivity (and equal to it at m = 1, sigma2 = 0)."""
    M = block_design_info(design, model, theta, method, gee_alpha)
    if psd_logdet(M) is None:
        raise SingularDesignError("block design information matrix is singular")
    Minv = np.linalg.inv(M)
    Mz = block_info_matrix(zeta, model, theta, method, gee_alpha)
    return float(model.p - np.einsum("ij,ji->", Mz, Minv))


# largest block lattice block_equivalence_check may scan
_MAX_BLOCKS = 2_000_000


def _block_grid(model: RandomInterceptModel, step: float) -> np.ndarray:
    """All lex-nondecreasing blocks with rows on the axis lattice.

    A step that would give more than _MAX_BLOCKS blocks is rejected before
    anything is built.
    """
    bounds = model.base.region.bounds
    if any(math.isinf(lo) for lo, _ in bounds):
        raise ValidationError("block grids need a bounded region")
    sizes = _lattice_sizes(bounds, step)
    n = math.prod(sizes)
    count = math.comb(n + model.m - 1, model.m)
    if count > _MAX_BLOCKS:
        raise ValidationError(
            f"grid step {step!r} gives more than {_MAX_BLOCKS} lattice blocks of {model.m} runs"
        )
    mesh = np.meshgrid(*[np.linspace(lo, hi, s) for (lo, hi), s in zip(bounds, sizes)], indexing="ij")
    pts = np.column_stack([a.ravel() for a in mesh])
    combos = chain.from_iterable(combinations_with_replacement(range(n), model.m))
    return pts[np.fromiter(combos, dtype=np.intp, count=count * model.m).reshape(count, model.m)]


def block_equivalence_check(
    design: BlockDesign,
    model: RandomInterceptModel,
    theta,
    method: str,
    grid_step: float = 0.02,
    tol: float | None = None,
    gee_alpha: float = 0.5,
) -> EquivalenceReport:
    """Scan the block-level sensitivity over a lattice of blocks."""
    _check_method(model, method)
    p = model.p
    if tol is None:
        tol = 1e-3 * p
    M = block_design_info(design, model, theta, method, gee_alpha)
    ld = psd_logdet(M)
    if ld is None:
        raise SingularDesignError("block design information matrix is singular")
    Minv = np.linalg.inv(M)
    Z = _block_grid(model, grid_step)
    Z = np.vstack([Z, design.blocks])
    Ms = block_info_batch(Z, model, theta, method, gee_alpha)
    psi = p - np.einsum("nij,ji->n", Ms, Minv)
    j = int(np.argmin(psi))
    return EquivalenceReport(
        min_psi=float(psi[j]),
        argmin=np.asarray(Z[j], dtype=float),
        tol=float(tol),
        is_optimal=bool(psi[j] >= -tol),
        support_size=int(design.t),
        objective=float(-ld),
        n_grid=int(Z.shape[0]),
    )


class _BlockAtoms(_Atoms):
    """Blocks as atoms: a block is a row of m*k coordinates (its m runs in
    turn) and contributes M(zeta) under the one parameter vector."""

    def __init__(self, model: RandomInterceptModel, theta, method: str, gee_alpha: float):
        bounds = model.base.region.bounds
        if any(math.isinf(lo) for lo, _ in bounds):
            raise ValidationError("block optimization needs a bounded region")
        self.model = model
        self.theta = theta
        self.method = method
        self.gee_alpha = gee_alpha
        self.p, self.k = model.p, model.m * model.k
        self.tw = np.ones(1)
        self.min_atoms = math.ceil(model.p / model.m)
        self.region = DesignRegion(bounds * model.m)

    def _blocks(self, X: np.ndarray) -> np.ndarray:
        return X.reshape(-1, self.model.m, self.model.k)

    def eval(self, X: np.ndarray) -> np.ndarray:
        Ms = block_info_batch(self._blocks(X), self.model, self.theta, self.method, self.gee_alpha)
        return Ms[None]

    def take(self, Ms: np.ndarray, idx) -> np.ndarray:
        return Ms[:, idx]

    def admissible(self, Ms: np.ndarray) -> np.ndarray:
        return np.isfinite(Ms).all(axis=(0, 2, 3))

    def info_stack(self, Ms: np.ndarray, w: np.ndarray) -> np.ndarray:
        return np.einsum("snij,n->sij", Ms, w)

    def variances(self, Ms: np.ndarray, Minv: np.ndarray) -> np.ndarray:
        return np.einsum("snij,sji->sn", Ms, Minv)

    def search_box(self, opts) -> tuple[np.ndarray, np.ndarray]:
        lo = np.array([b[0] for b in self.region.bounds])
        return lo, np.array([b[1] for b in self.region.bounds]) - lo

    def candidates(self, opts) -> np.ndarray:
        grid = _block_grid(self.model, max(0.05, opts.merge_radius * 10))
        return grid.reshape(grid.shape[0], self.k)

    def unit_draws(self, rng: np.random.Generator):
        # uniform, not Sobol: importing scipy.stats for Sobol raises a
        # block-only process's peak memory by about 20 MB
        return lambda n: rng.random((n, self.k))

    def canonical(self, X: np.ndarray) -> np.ndarray:
        return _sort_slots(self._blocks(X)).reshape(X.shape)

    def design(self, X: np.ndarray, w: np.ndarray) -> BlockDesign:
        return BlockDesign(self._blocks(X), w).canonical()

    def objective(self, design: BlockDesign) -> float:
        return block_objective(design, self.model, self.theta, self.method, self.gee_alpha)

    def certify(self, design: BlockDesign, opts, tol: float) -> EquivalenceReport:
        return block_equivalence_check(
            design, self.model, self.theta, self.method,
            grid_step=opts.grid.step if opts.grid is not None else 0.02,
            tol=tol, gee_alpha=self.gee_alpha,
        )


def optimize_block_design(
    model: RandomInterceptModel,
    theta,
    method: str,
    options: ContinuousOptOptions | None = None,
    gee_alpha: float = 0.5,
) -> OptimizeResult:
    """D-optimal measure over blocks, certified on the block lattice.

    Blocks are the atoms of the continuous optimizer in optdes.optimize: the
    support schedule starts at ceil(p/m) blocks, a vertex-direction pass on a
    coarse block lattice warm-starts the L-BFGS-B polish of block
    coordinates and weights (finite-difference gradient), blocks that
    coincide up to run order are merged,
    and each candidate is certified by block_equivalence_check (lattice step
    options.grid.step, default 0.02).  The result's design is a BlockDesign.
    """
    _check_method(model, method)
    theta = np.asarray(theta, dtype=float).reshape(-1)
    atoms = _BlockAtoms(model, theta, method, gee_alpha)
    return _optimize_atoms(atoms, options or ContinuousOptOptions())


# ------------------------------------------------- exact binary block information

def direct_binary_block_info(
    zeta, model: RandomInterceptModel, theta, quadrature_order: int = 32
) -> np.ndarray:
    """Exact marginal information for a logistic block by direct enumeration.

    Marginalizes the random intercept with Gauss-Hermite quadrature, walks all
    2^m outcome vectors, and differentiates the marginal score by central
    differences (step 1e-5).  Limited to small blocks; the outcome enumeration
    grows as 2^m.
    """
    base = model.base
    if base.family.kind != "binomial" or base.link.kind != "logistic":
        raise UnsupportedModelError(
            "direct marginal information is implemented for the "
            "binomial family with logistic link"
        )
    if model.m > 3:
        raise ValidationError("direct enumeration is limited to blocks of at most 3 runs")
    if quadrature_order < 2:
        raise ValidationError("quadrature order must be at least 2")
    zeta = np.asarray(zeta, dtype=float)
    if zeta.ndim == 1:
        zeta = zeta[:, None]
    m = zeta.shape[0]
    if m != model.m or zeta.shape[1] != model.k:
        raise DimensionError(
            f"block has shape {zeta.shape}, model expects {(model.m, model.k)}"
        )
    theta = np.asarray(theta, dtype=float).reshape(-1)
    F = eval_basis_many(base.basis, zeta)
    Y = np.array(list(product((0.0, 1.0), repeat=m)))
    nodes, wts = np.polynomial.hermite.hermgauss(quadrature_order)
    gamma = math.sqrt(2.0 * model.sigma2) * nodes
    wq = wts / math.sqrt(math.pi)

    def probs_scores(th):
        eta = F @ th
        mu = 1.0 / (1.0 + np.exp(-(eta[None, :] + gamma[:, None])))  # (Q, m)
        W = np.where(Y[None, :, :] == 1.0, mu[:, None, :], 1.0 - mu[:, None, :])
        L = W.prod(axis=2)  # (Q, 2^m)
        py = wq @ L
        T = Y[None, :, :] - mu[:, None, :]  # (Q, 2^m, m)
        S = T @ F  # (Q, 2^m, p)
        num = np.einsum("q,qy,qyp->yp", wq, L, S)
        return py, num / py[:, None]

    py0, s0 = probs_scores(theta)
    h = 1e-5
    p = base.basis.p
    H = np.zeros((2 ** m, p, p))
    for r in range(p):
        e = np.zeros(p)
        e[r] = h
        _, s_plus = probs_scores(theta + e)
        _, s_minus = probs_scores(theta - e)
        H[:, :, r] = (s_plus - s_minus) / (2.0 * h)
    M = -np.einsum("y,yij->ij", py0, H)
    return 0.5 * (M + M.T)
