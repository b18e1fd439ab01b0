"""Design containers, information matrices, D-criterion and equivalence checks."""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionError,
    NumericalError,
    SingularDesignError,
    ValidationError,
)
from .families import (
    DesignRegion,
    ModelSpec,
    eta_admissible_mask,
    eval_basis_many,
    linear_predictor,
    weight_from_eta,
    weights_at,
)

# weights on input designs may carry honest round-trip noise; outputs of the
# optimizers are normalized exactly before construction
_WEIGHT_SUM_TOL = 1e-8

# largest tensor lattice (grid step with k <= 2) an equivalence scan or grid
# exchange may build: 1e7 points of two coordinates take 160 MB
_MAX_GRID_POINTS = 10_000_000

_thread_count = 1


def set_thread_count(n: int | None) -> int:
    """Set the worker count used to scan equivalence grids.

    Chunk boundaries are fixed, so results are bit-identical for any count.
    """
    global _thread_count
    if n is None:
        env = os.environ.get("OPTDES_THREADS", "")
        n = int(env) if env.strip() else 1
    n = int(n)
    if n < 1:
        raise ValidationError("thread count must be at least 1")
    _thread_count = n
    return _thread_count


def support_bound(p: int) -> int:
    """Upper bound on the number of support points an optimum ever needs."""
    return p * (p + 1) // 2 + 1


def _as_points(points, k=None) -> np.ndarray:
    try:
        pts = np.asarray(points, dtype=float)
    except ValueError:
        raise ValidationError("design points must be a rectangular array of numbers") from None
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2:
        raise DimensionError(f"points must be 2-d, got shape {pts.shape}")
    if k is not None and pts.shape[1] != k:
        raise DimensionError(f"points have {pts.shape[1]} coordinates, expected {k}")
    return pts


def _lock(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class ContinuousDesign:
    """Probability measure on finitely many design points.

    weights must be strictly positive and sum to one (small input noise is
    tolerated; values are stored exactly as given so serialization round-trips
    to the byte).
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = _as_points(self.points)
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        if w.shape[0] != pts.shape[0]:
            raise DimensionError(
                f"{pts.shape[0]} points but {w.shape[0]} weights"
            )
        if pts.shape[0] == 0:
            raise ValidationError("design needs at least one point")
        if not np.all(np.isfinite(pts)):
            raise ValidationError("design points must be finite")
        if not np.all(w > 0.0):
            raise ValidationError("design weights must be strictly positive")
        if abs(float(w.sum()) - 1.0) > _WEIGHT_SUM_TOL:
            raise ValidationError(
                f"design weights sum to {float(w.sum()):.12g}, expected 1"
            )
        object.__setattr__(self, "points", _lock(pts))
        object.__setattr__(self, "weights", _lock(w))

    @property
    def t(self) -> int:
        return self.points.shape[0]

    @property
    def k(self) -> int:
        return self.points.shape[1]

    def canonical(self) -> "ContinuousDesign":
        """Copy with points sorted lexicographically."""
        order = np.lexsort(self.points.T[::-1])
        return ContinuousDesign(self.points[order], self.weights[order])


@dataclass(frozen=True, eq=False)
class ExactDesign:
    """Design with integer replications; n is the total number of runs."""

    points: np.ndarray
    reps: np.ndarray

    def __post_init__(self):
        pts = _as_points(self.points)
        reps = np.asarray(self.reps)
        if not np.issubdtype(reps.dtype, np.integer):
            r = np.asarray(self.reps, dtype=float)
            if not np.all(r == np.round(r)):
                raise ValidationError("replications must be integers")
            reps = np.round(r).astype(int)
        reps = reps.reshape(-1)
        if reps.shape[0] != pts.shape[0]:
            raise DimensionError(f"{pts.shape[0]} points but {reps.shape[0]} replications")
        if pts.shape[0] == 0 or not np.all(reps >= 1):
            raise ValidationError("each design point needs at least one replication")
        if not np.all(np.isfinite(pts)):
            raise ValidationError("design points must be finite")
        object.__setattr__(self, "points", _lock(pts))
        reps = np.array(reps, dtype=int)
        reps.setflags(write=False)
        object.__setattr__(self, "reps", reps)

    @property
    def n(self) -> int:
        return int(self.reps.sum())

    @property
    def t(self) -> int:
        return self.points.shape[0]

    @property
    def k(self) -> int:
        return self.points.shape[1]

    def as_continuous(self) -> ContinuousDesign:
        w = self.reps / float(self.n)
        return ContinuousDesign(self.points, w / w.sum())

    def canonical(self) -> "ExactDesign":
        order = np.lexsort(self.points.T[::-1])
        return ExactDesign(self.points[order], self.reps[order])


def from_runs(runs) -> ExactDesign:
    """Collapse an (n, k) array of runs into an ExactDesign with replications."""
    runs = _as_points(runs)
    uniq, counts = np.unique(runs, axis=0, return_counts=True)
    return ExactDesign(uniq, counts).canonical()


def _design_weights(design) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(design, ExactDesign):
        w = design.reps / float(design.n)
        return design.points, w
    if isinstance(design, ContinuousDesign):
        return design.points, design.weights
    raise ValidationError(f"not a design: {type(design).__name__}")


def _information_stack(model: ModelSpec, points, weights, thetas) -> tuple[np.ndarray, np.ndarray]:
    """(S, p, p) information of S designs ((S, t, k) points and (S, t) weights,
    or one design broadcast), one row of the (S, p) thetas each, and the (S,)
    mask of designs with every point inside the link's domain."""
    S, (t, k) = thetas.shape[0], points.shape[-2:]
    if k != model.k:
        raise DimensionError(f"design has k={k}, model has k={model.k}")
    if thetas.shape[1:] != (model.p,):
        raise DimensionError(f"theta has shape {thetas.shape[1:]}, model expects ({model.p},)")
    pts = np.broadcast_to(points, (S, t, k)).reshape(S * t, k)
    F = eval_basis_many(model.basis, pts).reshape(S, t, model.p)
    eta = np.matmul(F, thetas[:, :, None])[:, :, 0]
    u = weight_from_eta(model.family, model.link, eta)
    M = np.matmul(np.swapaxes(F * (weights * u)[:, :, None], 1, 2), F)
    return 0.5 * (M + np.swapaxes(M, 1, 2)), eta_admissible_mask(model.link, eta).all(axis=1)


def _logdet_stack(M, rel_tol: float = 1e-12) -> np.ndarray:
    """psd_logdet of each matrix of an (S, n, n) stack, NaN where singular.

    Step i leaves pivot i on the diagonal for good, so pivots are checked after
    the loop.  Their logs are taken with math.log and summed in order, since
    numpy's vectorized log and pairwise sum can differ in the last bit."""
    a = np.array(M, dtype=float)
    S, n = a.shape[0], a.shape[1]
    scale = np.abs(np.diagonal(a, axis1=1, axis2=2)).max(axis=1, initial=0.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(n - 1):
            c = a[:, i + 1 :, i, None]
            a[:, i + 1 :, i + 1 :] -= c / a[:, i, i, None, None] * c.transpose(0, 2, 1)
        piv = np.diagonal(a, axis1=1, axis2=2)
        ok = np.isfinite(scale) & (scale > 0.0) & (piv > rel_tol * scale[:, None]).all(axis=1)
    ld = np.full(S, np.nan)
    if ok.any():
        logs = np.array(list(map(math.log, piv[ok].ravel().tolist()))).reshape(-1, n)
        ld[ok] = np.cumsum(logs, axis=1)[:, -1]
    return ld


def information_matrix(design, model: ModelSpec, theta) -> np.ndarray:
    """M(xi; theta) = sum_i w_i u(x_i) f(x_i) f(x_i)'  (symmetric p x p)."""
    pts, w = _design_weights(design)
    M, ok = _information_stack(model, pts, w, np.asarray(theta, dtype=float)[None])
    if not ok[0]:
        weights_at(model, theta, pts)  # raises, naming the first inadmissible point
    return M[0]


def psd_logdet(M, rel_tol: float = 1e-12) -> float | None:
    """log det of a symmetric PSD matrix by symmetric elimination.

    Returns None when a pivot falls at or below rel_tol times the largest
    diagonal entry of the input, which is the package-wide notion of
    "numerically singular".
    """
    a = np.asarray(M, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"matrix expected, got shape {a.shape}")
    ld = float(_logdet_stack(a[None], rel_tol)[0])
    return None if math.isnan(ld) else ld


def d_objective(M) -> float:
    """-log det M, with +inf for numerically singular matrices."""
    ld = psd_logdet(M)
    return math.inf if ld is None else -ld


def design_objective(design, model: ModelSpec, theta) -> float:
    return d_objective(information_matrix(design, model, theta))


def d_efficiency(design, reference, model: ModelSpec, theta) -> float:
    """(det M(design) / det M(reference))^(1/p).

    A singular candidate has efficiency 0; a singular reference is an error.
    """
    ld_ref = psd_logdet(information_matrix(reference, model, theta))
    if ld_ref is None:
        raise SingularDesignError("reference design is singular at this theta")
    ld = psd_logdet(information_matrix(design, model, theta))
    if ld is None:
        return 0.0
    return math.exp((ld - ld_ref) / model.p)


def _efficiencies(design, refs, model: ModelSpec, draws) -> list[float]:
    """d_efficiency(design, refs[i], model, draws[i]) for every i, bit for bit,
    from one information stack for design and one per reference shape."""
    thetas = np.array(draws)
    M, ok = _information_stack(model, *_design_weights(design), thetas)
    ld, ld_ref = _logdet_stack(M), np.empty(len(refs))
    weighted = [_design_weights(ref) for ref in refs]
    for shape in {pts.shape for pts, _ in weighted}:
        idx = [i for i, (pts, _) in enumerate(weighted) if pts.shape == shape]
        pts, w = (np.stack(a) for a in zip(*(weighted[i] for i in idx)))
        M_ref, ok_ref = _information_stack(model, pts, w, thetas[idx])
        ld_ref[idx] = np.where(ok_ref, _logdet_stack(M_ref), np.nan)
    bad = np.flatnonzero(np.isnan(ld_ref) | ~ok)
    if bad.size:  # the first failing draw, run alone, raises its own error
        d_efficiency(design, refs[bad[0]], model, thetas[bad[0]])
        raise NumericalError(f"stacked and single-draw efficiency disagree at draw {bad[0]}")
    return [0.0 if math.isnan(v) else math.exp(v) for v in ((ld - ld_ref) / model.p).tolist()]


def _inverse_information(design, model, theta) -> np.ndarray:
    M = information_matrix(design, model, theta)
    if psd_logdet(M) is None:
        raise SingularDesignError("design information matrix is singular")
    return np.linalg.inv(M)


def sensitivity(x, design, model: ModelSpec, theta) -> float:
    """psi(x) = p - u(x) f(x)' M^{-1} f(x); nonnegative everywhere iff optimal."""
    x = np.asarray(x, dtype=float).reshape(-1)
    return float(sensitivity_profile(x[None, :], design, model, theta)[0])


def sensitivity_profile(points, design, model: ModelSpec, theta) -> np.ndarray:
    """psi at each row of points (vectorized)."""
    pts = _as_points(points, model.k)
    Minv = _inverse_information(design, model, theta)
    u = weights_at(model, theta, pts)
    F = eval_basis_many(model.basis, pts)
    quad = np.einsum("ni,ij,nj->n", F, Minv, F)
    return model.p - u * quad


@dataclass(frozen=True)
class GridSpec:
    """How to discretize the region for equivalence scans and grid searches.

    step drives the tensor grid used for one and two variables (at most
    10 million points; a finer step is rejected); n_qmc points plus
    coordinate refinement from the refine_top best are used for three or
    more.  window overrides the automatic interval for an unbounded axis.
    """

    step: float = 0.01
    n_qmc: int = 4096
    refine_top: int = 16
    window: tuple[float, float] | None = None

    def __post_init__(self):
        if not (0.0 < self.step < math.inf):
            raise ValidationError("grid step must be positive and finite")
        if self.n_qmc < 2 or self.refine_top < 1:
            raise ValidationError("bad grid spec")
        if self.window is not None:
            lo, hi = (float(v) for v in self.window)
            if not (-math.inf < lo < hi < math.inf):
                raise ValidationError(f"window ({lo}, {hi}) must be finite with lo < hi")


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of a sensitivity scan over the design region."""

    min_psi: float
    argmin: np.ndarray
    tol: float
    is_optimal: bool
    support_size: int
    objective: float
    n_grid: int

    def to_jsonable(self) -> dict:
        return {
            "min_psi": float(self.min_psi),
            "argmin": [float(v) for v in np.asarray(self.argmin).reshape(-1)],
            "tol": float(self.tol),
            "is_optimal": bool(self.is_optimal),
            "support_size": int(self.support_size),
            "objective": float(self.objective),
            "n_grid": int(self.n_grid),
        }


def default_tol(p: int) -> float:
    """Equivalence slack: scales with the trace identity's natural size."""
    return 1e-3 * p


def _lattice_sizes(bounds, step: float) -> list[int]:
    """Point count of each axis of the tensor lattice over bounds at step.

    Raises ValidationError, before anything is allocated, when the lattice
    would hold more than _MAX_GRID_POINTS points.
    """
    cap = _MAX_GRID_POINTS
    sizes = [max(round(min((hi - lo) / step, cap)), 1) + 1 for lo, hi in bounds]
    if math.prod(sizes) > cap:
        raise ValidationError(f"grid step {step!r} gives more than {cap} lattice points")
    return sizes


def informative_window(
    model: ModelSpec, thetas, axis: int, rel_threshold: float = 1e-6
) -> tuple[float, float]:
    """Interval of the unbounded axis outside which u is negligible.

    For each parameter vector the set {eta : u(eta) >= rel_threshold * max u}
    is found by scanning and bisecting the weight profile, then mapped to the
    axis through the extreme values of the bounded coordinates.  The union is
    expanded by 20 percent as a safety margin.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    basis = model.basis
    if not basis.is_first_order():
        raise ValidationError("automatic windows need a first-order basis")
    lo_out, hi_out = math.inf, -math.inf
    etas = np.linspace(-60.0, 60.0, 4801)
    u_prof = weight_from_eta(model.family, model.link, etas)
    u_prof = np.where(np.isfinite(u_prof), u_prof, 0.0)
    umax = float(u_prof.max())
    if umax <= 0.0:
        raise NumericalError("weight profile vanished on the scan interval")
    thr = rel_threshold * umax

    def crossing(a: float, b: float) -> float:
        # u(a) and u(b) straddle thr; bisect
        fa = float(weight_from_eta(model.family, model.link, np.array([a]))[0]) - thr
        for _ in range(80):
            m = 0.5 * (a + b)
            fm = float(weight_from_eta(model.family, model.link, np.array([m]))[0]) - thr
            if (fa > 0) == (fm > 0):
                a, fa = m, fm
            else:
                b = m
        return 0.5 * (a + b)

    above = u_prof >= thr
    idx = np.flatnonzero(above)
    if idx.size == 0:
        raise NumericalError("weight profile below threshold everywhere")
    eta_lo = etas[idx[0]] if idx[0] == 0 else crossing(etas[idx[0] - 1], etas[idx[0]])
    eta_hi = etas[idx[-1]] if idx[-1] == len(etas) - 1 else crossing(etas[idx[-1] + 1], etas[idx[-1]])

    for th in thetas:
        th_ax = th[1 + axis]
        if th_ax == 0.0:
            raise ValidationError(f"theta has zero coefficient on axis {axis}")
        rest_lo = th[0]
        rest_hi = th[0]
        for j, (blo, bhi) in enumerate(model.region.bounds):
            if j == axis:
                continue
            c = th[1 + j]
            a, b = c * blo, c * bhi
            rest_lo += min(a, b)
            rest_hi += max(a, b)
        cands = [
            (eta_lo - rest_hi) / th_ax,
            (eta_lo - rest_lo) / th_ax,
            (eta_hi - rest_hi) / th_ax,
            (eta_hi - rest_lo) / th_ax,
        ]
        lo_out = min(lo_out, min(cands))
        hi_out = max(hi_out, max(cands))
    pad = 0.2 * (hi_out - lo_out)
    return (lo_out - pad, hi_out + pad)


def resolve_window(model: ModelSpec, thetas, grid: GridSpec) -> tuple[float, float] | None:
    axis = model.region.unbounded_axis
    if axis is None:
        return None
    if grid.window is not None:
        return (float(grid.window[0]), float(grid.window[1]))
    return informative_window(model, thetas, axis)


def build_eval_grid(model: ModelSpec, thetas, grid: GridSpec | None = None) -> np.ndarray:
    """Candidate points covering the region, (n, k).

    Tensor grid at the requested step for k <= 2; scrambled low-discrepancy
    points for higher dimension.  Points where any parameter vector makes the
    weight inadmissible are dropped.
    """
    grid = grid or GridSpec()
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    k = model.k
    window = resolve_window(model, thetas, grid)
    axes_bounds = []
    for j, (lo, hi) in enumerate(model.region.bounds):
        if math.isinf(lo):
            axes_bounds.append(window)
        else:
            axes_bounds.append((lo, hi))
    if k <= 2:
        sizes = _lattice_sizes(axes_bounds, grid.step)
        axes = [np.linspace(lo, hi, n) for (lo, hi), n in zip(axes_bounds, sizes)]
        if k == 1:
            pts = axes[0][:, None]
        else:
            A, B = np.meshgrid(axes[0], axes[1], indexing="ij")
            pts = np.column_stack([A.ravel(), B.ravel()])
    else:
        from scipy.stats import qmc

        m = max(int(math.ceil(math.log2(grid.n_qmc))), 1)
        sob = qmc.Sobol(d=k, scramble=True, seed=np.random.default_rng([0, 41]))
        unit = sob.random_base2(m)
        lo = np.array([b[0] for b in axes_bounds])
        hi = np.array([b[1] for b in axes_bounds])
        pts = lo + (hi - lo) * unit
        corners = np.array(
            np.meshgrid(*[[b[0], b[1]] for b in axes_bounds], indexing="ij")
        ).reshape(k, -1).T
        pts = np.vstack([pts, corners])
    ok = np.ones(pts.shape[0], dtype=bool)
    for th in thetas:
        eta = linear_predictor(model, th, pts)
        ok &= eta_admissible_mask(model.link, eta)
    return pts[ok]


def _chunked_min(fun, pts: np.ndarray) -> tuple[float, int, np.ndarray]:
    """Minimize fun(chunk)->values over rows of pts, optionally threaded."""
    n = pts.shape[0]
    workers = _thread_count
    if workers <= 1 or n < 4096:
        vals = fun(pts)
        j = int(np.argmin(vals))
        return float(vals[j]), n, pts[j]
    chunks = np.array_split(np.arange(n), workers * 4)
    with ThreadPoolExecutor(max_workers=workers) as ex:
        results = list(ex.map(lambda idx: fun(pts[idx]), chunks))
    best_v, best_x = math.inf, pts[0]
    for idx, vals in zip(chunks, results):
        j = int(np.argmin(vals))
        if float(vals[j]) < best_v:
            best_v, best_x = float(vals[j]), pts[idx[j]]
    return best_v, n, best_x


def _avg_sensitivity_fn(design, model, thetas, theta_weights):
    """Closure evaluating the prior-averaged sensitivity on point batches."""
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    if theta_weights is None:
        theta_weights = np.full(thetas.shape[0], 1.0 / thetas.shape[0])
    tw = np.asarray(theta_weights, dtype=float)
    tw = tw / tw.sum()
    pts, w = _design_weights(design)
    F = eval_basis_many(model.basis, pts)
    Minvs = []
    objs = []
    for idx, th in enumerate(thetas):
        u = weights_at(model, th, pts)
        M = (F * (w * u)[:, None]).T @ F
        ld = psd_logdet(M)
        if ld is None:
            raise SingularDesignError(f"design is singular at parameter draw {idx}")
        objs.append(-ld)
        Minvs.append(np.linalg.inv(0.5 * (M + M.T)))
    Minvs = np.array(Minvs)
    avg_obj = float(np.dot(tw, objs))

    def psi(batch: np.ndarray) -> np.ndarray:
        Fb = eval_basis_many(model.basis, batch)
        acc = np.zeros(batch.shape[0])
        for th, wt, Minv in zip(thetas, tw, Minvs):
            eta = Fb @ th
            u = weight_from_eta(model.family, model.link, eta)
            u = np.where(np.isfinite(u), u, 0.0)
            acc += wt * u * np.einsum("ni,ij,nj->n", Fb, Minv, Fb)
        return model.p - acc

    return psi, avg_obj


def _coordinate_refine(psi_fn, x0, bounds, sweeps: int = 2) -> tuple[float, np.ndarray]:
    """Golden-section descent along one coordinate at a time."""
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    x = np.array(x0, dtype=float)

    def line_min(j, lo, hi):
        a, b = lo, hi
        c = b - gr * (b - a)
        d = a + gr * (b - a)
        xv = x.copy()

        def val(v):
            xv[j] = v
            return float(psi_fn(xv[None, :])[0])

        fc, fd = val(c), val(d)
        for _ in range(60):
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - gr * (b - a)
                fc = val(c)
            else:
                a, c, fc = c, d, fd
                d = a + gr * (b - a)
                fd = val(d)
        return 0.5 * (a + b)

    for _ in range(sweeps):
        for j, (lo, hi) in enumerate(bounds):
            span = hi - lo
            cur = x[j]
            llo = max(lo, cur - 0.1 * span)
            lhi = min(hi, cur + 0.1 * span)
            x[j] = line_min(j, llo, lhi)
    return float(psi_fn(x[None, :])[0]), x


def equivalence_scan(
    design,
    model: ModelSpec,
    thetas,
    theta_weights=None,
    grid: GridSpec | None = None,
    tol: float | None = None,
) -> EquivalenceReport:
    """General equivalence theorem check against a grid over the region.

    thetas may be one parameter vector or a stack of prior draws; the scanned
    function is then the prior-averaged sensitivity.  The design's own support
    is always included among the evaluation points.
    """
    grid = grid or GridSpec()
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    if tol is None:
        tol = default_tol(model.p)
    psi_fn, avg_obj = _avg_sensitivity_fn(design, model, thetas, theta_weights)
    pts, _ = _design_weights(design)
    cand = build_eval_grid(model, thetas, grid)
    cand = np.vstack([cand, pts])
    best_v, n_grid, best_x = _chunked_min(psi_fn, cand)
    if model.k >= 3:
        # polish the most negative grid values with coordinate descent
        vals = psi_fn(cand)
        order = np.argsort(vals)[: grid.refine_top]
        window = resolve_window(model, thetas, grid)
        bounds = [
            window if math.isinf(lo) else (lo, hi)
            for (lo, hi) in model.region.bounds
        ]
        for i in order:
            v, x = _coordinate_refine(psi_fn, cand[i], bounds)
            if v < best_v:
                best_v, best_x = v, x
    return EquivalenceReport(
        min_psi=float(best_v),
        argmin=np.asarray(best_x, dtype=float),
        tol=float(tol),
        is_optimal=bool(best_v >= -tol),
        support_size=int(pts.shape[0]),
        objective=avg_obj,
        n_grid=int(n_grid),
    )


def merge_close_points(
    points, weights, region: DesignRegion | None = None, radius: float = 1e-3
) -> tuple[np.ndarray, np.ndarray]:
    """Cluster points within a region-scaled radius; weights add, positions
    are the weight-averaged centroids.  Output is sorted lexicographically."""
    pts = _as_points(points)
    w = np.asarray(weights, dtype=float).reshape(-1).copy()
    n, k = pts.shape
    scale = np.ones(k)
    for j in range(k):
        if region is not None and not math.isinf(region.bounds[j][0]):
            scale[j] = region.bounds[j][1] - region.bounds[j][0]
        else:
            spread = pts[:, j].max() - pts[:, j].min()
            scale[j] = max(spread, 1.0)
    z = pts / scale
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if np.linalg.norm(z[i] - z[j]) <= radius:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    out_p, out_w = [], []
    for idxs in groups.values():
        ww = w[idxs]
        tot = ww.sum()
        out_p.append((pts[idxs] * ww[:, None]).sum(axis=0) / tot)
        out_w.append(tot)
    out_p = np.array(out_p)
    out_w = np.array(out_w)
    order = np.lexsort(out_p.T[::-1])
    return out_p[order], out_w[order]


def prune_design(
    design: ContinuousDesign,
    region: DesignRegion | None = None,
    weight_floor: float = 1e-4,
    merge_radius: float = 1e-3,
    max_support: int | None = None,
) -> ContinuousDesign:
    """Merge near-duplicates, drop negligible weights, renormalize.

    When max_support is given, the closest remaining pair keeps being merged
    until the design fits; legitimate optima are never near that bound, so
    this only ever collapses stragglers.
    """
    pts, w = merge_close_points(design.points, design.weights, region, merge_radius)
    keep = w >= weight_floor
    if not np.any(keep):
        keep = w == w.max()
    pts, w = pts[keep], w[keep]
    while max_support is not None and pts.shape[0] > max_support:
        d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2)
        np.fill_diagonal(d2, np.inf)
        i, j = np.unravel_index(int(np.argmin(d2)), d2.shape)
        tot = w[i] + w[j]
        pts[i] = (w[i] * pts[i] + w[j] * pts[j]) / tot
        w[i] = tot
        pts = np.delete(pts, j, axis=0)
        w = np.delete(w, j)
    w = w / w.sum()
    order = np.lexsort(pts.T[::-1])
    return ContinuousDesign(pts[order], w[order])
