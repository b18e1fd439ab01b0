"""Design optimizers.

One continuous optimizer runs over design atoms.  An atom is a design point,
contributing u(x) f(x) f(x)', or a block of m runs (optdes.glmm), contributing
the block information M(zeta); a design is a weighted measure over atoms and
the same equivalence theorem certifies it.  Each atom kind supplies its
per-atom information and certificate (see _Atoms), and the shared engine has
three layers:

* a multiplicative reweighting step that is exact on a fixed support,
* a vertex-direction pass (add the candidate atom of largest averaged
  variance with a decaying step) used as a warm start,
* a gradient polish: bounded L-BFGS-B on the atom coordinates (inside the
  search box) and softmax logits of the weights, with the closed-form
  gradient of the averaged -log det for points and finite differences for
  blocks, alternating with the reweighting step.

Support size is scheduled upward from the smallest plausible value and each
candidate must pass the equivalence check before it is accepted as optimal.
Exact (integer replication) designs come from either a candidate-set exchange
pass or simulated annealing with incremental determinant updates.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .designs import (
    ContinuousDesign,
    EquivalenceReport,
    ExactDesign,
    GridSpec,
    build_eval_grid,
    d_objective,
    equivalence_scan,
    default_tol,
    from_runs,
    information_matrix,
    prune_design,
    resolve_window,
    support_bound,
)
from .errors import NumericalError, ValidationError
from .families import (
    ModelSpec,
    eval_basis_jacobian,
    eval_basis_many,
    weight_derivative,
    weight_from_eta,
)
from .priors import (
    STREAM_ANNEAL,
    STREAM_EXCHANGE,
    STREAM_LOWDISC,
    STREAM_STARTS,
    resolve_sample,
    rng_for,
)


def _log(enabled: bool, msg: str) -> None:
    if enabled:
        print(msg, file=sys.stderr)


# ------------------------------------------------------------------ atom pool

def _neg_logdet(tw: np.ndarray, Ms: np.ndarray) -> float:
    """Draw-averaged -log det of an (S, p, p) stack; +inf unless every
    determinant is positive and finite."""
    sign, ld = np.linalg.slogdet(Ms)
    if not (np.all(sign > 0) and np.all(np.isfinite(ld))):
        return math.inf
    return float(-(tw @ ld))


class _Atoms:
    """One kind of design atom under S parameter draws.

    An atom is a row of k coordinates.  A kind sets p, k, tw (draw weights),
    min_atoms (the smallest support that can be nonsingular) and region (the
    box pruning scales distances by), and implements:

    * eval(X): per-atom data for the rows of X; take(data, idx) selects atoms
      from it and admissible(data) flags atoms with finite information;
    * info_stack(data, w): the (S, p, p) information of the weighted atoms;
    * variances(data, Minv): (S, n) values tr(I_s(x) M_s^{-1});
    * search_box(opts), candidates(opts): the polish box as (lo, span) and
      the candidate atoms of the warm start; unit_draws(rng): a sampler
      n -> (n, k) points in the unit cube for the spread-out starts;
    * canonical(X), design(X, w): a canonical coordinate order per atom and
      the design object for pruned atoms;
    * objective(design), certify(design, opts, tol): the reported
      -log det and the equivalence check;
    * optionally value_grad(X, w): mean_objective with its gradients in X
      and w, for the polish (None: finite differences).
    """

    value_grad = None

    def canonical(self, X: np.ndarray) -> np.ndarray:
        return X

    def unit_draws(self, rng: np.random.Generator):
        from scipy.stats import qmc

        return qmc.Sobol(d=self.k, scramble=True, seed=rng).random

    def mean_objective(self, X: np.ndarray, w: np.ndarray) -> float:
        data = self.eval(X)
        if not self.admissible(data).all():
            return math.inf
        return _neg_logdet(self.tw, self.info_stack(data, w))


class _PointAtoms(_Atoms):
    """Design points: x contributes u(x) f(x) f(x)' under each draw."""

    def __init__(self, model: ModelSpec, thetas: np.ndarray, tw: np.ndarray):
        self.model = model
        self.thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        tw = np.asarray(tw, dtype=float).reshape(-1)
        self.tw = tw / tw.sum()
        self.p, self.k = model.p, model.k
        self.min_atoms = model.p
        self.region = model.region

    def eval(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        F = eval_basis_many(self.model.basis, X)
        eta = F @ self.thetas.T
        U = weight_from_eta(self.model.family, self.model.link, eta).T
        return F, np.atleast_2d(U)

    def take(self, data, idx):
        F, U = data
        return F[idx], U[:, idx]

    def admissible(self, data) -> np.ndarray:
        return np.isfinite(data[1]).all(axis=0)

    def info_stack(self, data, w: np.ndarray) -> np.ndarray:
        F, U = data
        return np.einsum("sn,ni,nj->sij", U * w, F, F)

    def variances(self, data, Minv: np.ndarray) -> np.ndarray:
        F, U = data
        return U * np.einsum("sni,ni->sn", F @ Minv, F)

    def value_grad(self, X: np.ndarray, w: np.ndarray):
        """mean_objective and its gradients in X and w (inf, None, None when
        inadmissible or singular).

        With A_s = M_s^{-1} and d_s = u_s f'A_s f, the weights get -dbar and
        atom i gets -w_i sum_s tau_s [u_s' (f'A_s f) theta_s'J + 2 u_s f'A_s J]
        with J = df/dx.
        """
        model = self.model
        F, U = self.eval(X)
        if not self.admissible((F, U)).all():
            return math.inf, None, None
        Ms = self.info_stack((F, U), w)
        obj = _neg_logdet(self.tw, Ms)
        if math.isinf(obj):
            return obj, None, None
        J = eval_basis_jacobian(model.basis, X)
        dU = weight_derivative(model.family, model.link, F @ self.thetas.T).T
        FA = F @ np.linalg.inv(Ms)
        q = np.einsum("sni,ni->sn", FA, F)
        grad_eta = np.einsum("sn,si,nik->snk", dU * q, self.thetas, J)
        grad_f = 2.0 * U[:, :, None] * np.einsum("sni,nik->snk", FA, J)
        gX = -w[:, None] * np.einsum("s,snk->nk", self.tw, grad_eta + grad_f)
        return obj, gX, -(self.tw @ (U * q))

    def search_box(self, opts) -> tuple[np.ndarray, np.ndarray]:
        return _search_box(self.model, self.thetas, opts.grid or GridSpec())

    def candidates(self, opts) -> np.ndarray:
        return build_eval_grid(self.model, self.thetas, opts.grid or GridSpec())

    def design(self, X: np.ndarray, w: np.ndarray) -> ContinuousDesign:
        return ContinuousDesign(X, w)

    def objective(self, design) -> float:
        """Average -log det through the strict elimination path."""
        acc = 0.0
        for th, wt in zip(self.thetas, self.tw):
            val = d_objective(information_matrix(design, self.model, th))
            if math.isinf(val):
                return math.inf
            acc += wt * val
        return acc

    def certify(self, design, opts, tol: float) -> EquivalenceReport:
        return equivalence_scan(
            design, self.model, self.thetas, self.tw, grid=opts.grid or GridSpec(), tol=tol
        )


def _search_box(model: ModelSpec, thetas, grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    window = resolve_window(model, np.atleast_2d(thetas), grid)
    lo, hi = [], []
    for b_lo, b_hi in model.region.bounds:
        if math.isinf(b_lo):
            lo.append(window[0])
            hi.append(window[1])
        else:
            lo.append(b_lo)
            hi.append(b_hi)
    lo = np.array(lo)
    return lo, np.array(hi) - lo


# --------------------------------------------------- multiplicative reweighting

def refine_weights(
    atoms: _Atoms, X: np.ndarray, w0: np.ndarray, iters: int = 600, tol: float = 1e-12
) -> tuple[np.ndarray, float]:
    """Fixed-support weight optimization by the w <- w * (dbar/p) rule.

    Monotone for the averaged log determinant; a halving guard keeps it safe
    near machine precision.
    """
    data = atoms.eval(X)
    if not atoms.admissible(data).all():
        return w0, math.inf
    w = np.asarray(w0, dtype=float).copy()
    w = np.maximum(w, 1e-300)
    w /= w.sum()
    p = atoms.p

    def objective(wv):
        Ms = atoms.info_stack(data, wv)
        return _neg_logdet(atoms.tw, Ms), Ms

    obj, Ms = objective(w)
    if math.isinf(obj):
        return w0, math.inf
    for _ in range(iters):
        dbar = atoms.tw @ atoms.variances(data, np.linalg.inv(Ms))
        if float(np.max(dbar)) / p - 1.0 < tol:
            break
        step = dbar / p
        new_w = w * step
        new_w /= new_w.sum()
        new_obj, new_Ms = objective(new_w)
        if not new_obj < obj:
            # try a damped step before giving up
            new_w = w * np.sqrt(step)
            new_w /= new_w.sum()
            new_obj, new_Ms = objective(new_w)
            if not new_obj < obj:
                break
        w, obj, Ms = new_w, new_obj, new_Ms
    return w, obj


# ------------------------------------------------------------- vertex direction

# steps of the vertex-direction warm start
WF_ITERS = 600


def _wf_core(atoms: _Atoms, cand: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vertex-direction search with step 1/(s+1+p) over candidate atoms.

    Starts from p+1 spread-out atoms in the candidates' bounding box and
    returns the incumbent best support and weights, not the last iterate.
    """
    p = atoms.p
    data = atoms.eval(cand)
    ok = atoms.admissible(data)
    cand, data = cand[ok], atoms.take(data, ok)
    if cand.shape[0] < p:
        raise NumericalError("candidate grid too small after dropping inadmissible points")

    draw = atoms.unit_draws(rng_for(0, STREAM_LOWDISC))
    lo = cand.min(axis=0)
    hi = cand.max(axis=0)
    n_draw = 1 << max(int(math.ceil(math.log2(p + 1))), 0)
    w0 = np.full(p + 1, 1.0 / (p + 1))
    pts = None
    for _ in range(32):
        raw = lo + (hi - lo) * draw(n_draw)[: p + 1]
        data0 = atoms.eval(raw)
        if not atoms.admissible(data0).all():
            continue
        Ms = atoms.info_stack(data0, w0)
        best_obj = _neg_logdet(atoms.tw, Ms)
        if math.isfinite(best_obj):
            pts = raw
            break
    if pts is None:
        raise NumericalError("could not find a nonsingular starting design after 32 re-draws")

    sup_pts = [row.copy() for row in pts]
    sup_w = list(w0)
    by_cand: dict[int, int] = {}
    best_pts = np.array(sup_pts)
    best_w = np.array(sup_w)
    one = np.ones(1)
    for it in range(WF_ITERS):
        d = atoms.tw @ atoms.variances(data, np.linalg.inv(Ms))
        j = int(np.argmax(d))
        if p - float(d[j]) >= -0.02 * p:
            break
        alpha = 1.0 / (it + 1 + p)
        for i in range(len(sup_w)):
            sup_w[i] *= 1.0 - alpha
        if j in by_cand:
            sup_w[by_cand[j]] += alpha
        else:
            by_cand[j] = len(sup_pts)
            sup_pts.append(cand[j].copy())
            sup_w.append(alpha)
        Ms = (1.0 - alpha) * Ms + alpha * atoms.info_stack(atoms.take(data, [j]), one)
        obj = _neg_logdet(atoms.tw, Ms)
        if math.isinf(obj):
            break
        if obj < best_obj - 1e-15:
            best_obj = obj
            best_pts = np.array(sup_pts)
            best_w = np.array(sup_w)
    return best_pts, best_w / best_w.sum()


# --------------------------------------------------------- continuous optimizer

@dataclass(frozen=True)
class ContinuousOptOptions:
    """Knobs for the support-size schedule and the polishing stack.

    Each of the multistarts at a support size runs up to 1 + restarts
    L-BFGS-B rounds; max_evals caps the objective evaluations of one round
    (L-BFGS-B's maxfun, finite-difference evaluations included).
    """

    t_min: int | None = None
    t_max: int | None = None
    multistarts: int = 16
    max_evals: int = 2000
    restarts: int = 2
    seed: int = 0
    sample: object = None  # SampleSpec or ParamSample for stochastic priors
    grid: GridSpec | None = None
    tol: float | None = None
    weight_floor: float = 1e-4
    merge_radius: float = 1e-3
    log_progress: bool = False

    def __post_init__(self):
        if self.multistarts < 1 or self.max_evals < 10 or self.restarts < 0:
            raise ValidationError("bad optimizer options")


@dataclass(frozen=True, eq=False)
class OptimizeResult:
    """design is a ContinuousDesign for points and a glmm.BlockDesign for blocks."""

    design: ContinuousDesign
    objective: float
    report: EquivalenceReport
    is_optimal: bool
    t_final: int


# the polish's objective at an inadmissible or singular point: finite, so
# L-BFGS-B's line search backs off from such points instead of failing
_INADMISSIBLE = 1e30


def _polish(atoms, lo, span, t, X0, w0, opts) -> tuple[float, np.ndarray, np.ndarray]:
    """Bounded L-BFGS-B on t atoms and their softmax weight logits.

    The gradient is the atom kind's value_grad when it has one, else scipy's
    finite differences.  Each round is followed by refine_weights on the
    polished support; rounds repeat (up to 1 + opts.restarts) while the
    reweighting still gains.
    """
    k = atoms.k
    hi = lo + span
    bounds = list(zip(np.tile(lo, t), np.tile(hi, t))) + [(None, None)] * t
    value_grad = atoms.value_grad
    options = {"maxfun": opts.max_evals, "ftol": 1e-15, "gtol": 1e-9}
    if value_grad is None:
        options["eps"] = 1e-7

    def unpack(z):
        v = np.exp(z[t * k :] - z[t * k :].max())
        return z[: t * k].reshape(t, k), v / v.sum()

    def fun(z):
        X, w = unpack(z)
        if value_grad is None:
            obj = atoms.mean_objective(X, w)
            return obj if obj < _INADMISSIBLE else _INADMISSIBLE
        obj, gX, gw = value_grad(X, w)
        if not obj < _INADMISSIBLE:
            return _INADMISSIBLE, np.zeros_like(z)
        # through the softmax: dw_i/dv_j = w_i (delta_ij - w_j)
        return obj, np.concatenate([gX.ravel(), w * (gw - w @ gw)])

    X, w = np.clip(X0, lo, hi), np.asarray(w0, dtype=float)
    obj = atoms.mean_objective(X, w)
    for _ in range(1 + opts.restarts):
        z = np.concatenate([X.ravel(), np.log(np.maximum(w, 1e-300))])
        res = minimize(
            fun, z, method="L-BFGS-B", jac=value_grad is not None, bounds=bounds,
            options=options,
        )
        if res.fun < min(obj, _INADMISSIBLE):
            obj = float(res.fun)
            X, w = unpack(res.x)
        w_ref, obj_ref = refine_weights(atoms, X, w)
        improvement = obj - obj_ref if obj_ref < obj else 0.0
        if improvement > 0.0:
            w, obj = w_ref, obj_ref
        if improvement < 1e-11:
            break
    return obj, X, w


def _initial_state(
    atoms, lo, span, t, s_idx, opts, warm: tuple[np.ndarray, np.ndarray] | None
) -> tuple[np.ndarray, np.ndarray] | None:
    k = atoms.k
    if s_idx == 0 and warm is not None:
        wp, ww = warm
        order = np.argsort(ww)[::-1]
        X0 = wp[order][:t]
        w0 = ww[order][:t]
        if X0.shape[0] < t:
            rng = rng_for(opts.seed, STREAM_STARTS, t, s_idx)
            extra = t - X0.shape[0]
            X0 = np.vstack([X0, lo + span * rng.random((extra, k))])
            w0 = np.concatenate([w0, np.full(extra, w0.min() if w0.size else 1.0)])
        return X0, w0 / w0.sum()
    if s_idx == 1:
        draw = atoms.unit_draws(rng_for(opts.seed, STREAM_LOWDISC, t))
        n_draw = 1 << max(int(math.ceil(math.log2(t))), 0)
        X0 = lo + span * draw(n_draw)[:t]
        return X0, np.full(t, 1.0 / t)
    rng = rng_for(opts.seed, STREAM_STARTS, t, s_idx)
    for _ in range(32):
        X0 = lo + span * rng.random((t, k))
        w0 = 0.1 + rng.random(t)
        w0 /= w0.sum()
        if math.isfinite(atoms.mean_objective(X0, w0)):
            return X0, w0
    return None


def _optimize_atoms(atoms: _Atoms, opts: ContinuousOptOptions) -> OptimizeResult:
    """The support-size schedule over one atom kind (see optimize_continuous).

    At each size the best polished candidate is pruned, reweighted and
    certified by the atom kind's own check.
    """
    cap = support_bound(atoms.p)
    t_min = atoms.min_atoms if opts.t_min is None else int(opts.t_min)
    t_max = cap if opts.t_max is None else int(opts.t_max)
    if not (atoms.min_atoms <= t_min <= t_max <= cap):
        raise ValidationError(
            f"support schedule must satisfy {atoms.min_atoms} <= t_min <= t_max <= {cap}"
        )
    tol = opts.tol if opts.tol is not None else default_tol(atoms.p)
    lo, span = atoms.search_box(opts)
    try:
        warm = _wf_core(atoms, atoms.candidates(opts))
    except NumericalError:
        warm = None

    best_obj = math.inf
    best_design = None
    best_report = None
    best_t = t_min
    for t in range(t_min, t_max + 1):
        t_best = (math.inf, None, None)
        for s_idx in range(opts.multistarts):
            init = _initial_state(atoms, lo, span, t, s_idx, opts, warm)
            if init is None:
                continue
            obj, X, w = _polish(atoms, lo, span, t, *init, opts)
            if obj < t_best[0]:
                t_best = (obj, X, w)
        if t_best[1] is None:
            continue
        _, X, w = t_best
        # refine_weights can drive a weight to exactly zero; drop such atoms
        # before handing the design to the pruner
        alive = w > 0.0
        if np.count_nonzero(alive) < atoms.min_atoms:
            continue
        X, w = atoms.canonical(X[alive]), w[alive]
        pruned = prune_design(
            ContinuousDesign(X, w / w.sum()),
            region=atoms.region,
            weight_floor=opts.weight_floor,
            merge_radius=opts.merge_radius,
            max_support=cap,
        )
        w_ref, _ = refine_weights(atoms, pruned.points, pruned.weights)
        alive = w_ref > 0.0
        if np.count_nonzero(alive) < atoms.min_atoms:
            continue
        design = atoms.design(pruned.points[alive], w_ref[alive] / w_ref[alive].sum())
        obj = atoms.objective(design)
        if math.isinf(obj):
            continue
        report = atoms.certify(design, opts, tol)
        _log(
            opts.log_progress,
            f"[optimize] t={t} objective={obj:.9f} min_psi={report.min_psi:.2e}",
        )
        if obj < best_obj:
            best_obj, best_design, best_report, best_t = obj, design, report, t
        if report.is_optimal:
            return OptimizeResult(design, obj, report, True, t)
    if best_design is None:
        raise NumericalError("no nonsingular design found at any support size")
    return OptimizeResult(best_design, best_obj, best_report, False, best_t)


def optimize_continuous(
    model: ModelSpec, prior, options: ContinuousOptOptions | None = None
) -> OptimizeResult:
    """Find a D-optimal continuous design, certified by the equivalence check.

    The support-size schedule runs from t_min (default p) upward; at each size
    the multistart polish stack runs and the best candidate is scanned.  The
    first candidate passing the scan is returned with is_optimal True.  If no
    size up to t_max passes, the best design found is returned with
    is_optimal False (not an error).
    """
    opts = options or ContinuousOptOptions()
    ps = resolve_sample(prior, opts.sample)
    if ps.draws.shape[1] != model.p:
        raise ValidationError(
            f"prior dimension {ps.draws.shape[1]} does not match model p={model.p}"
        )
    return _optimize_atoms(_PointAtoms(model, ps.draws, ps.weights), opts)


# -------------------------------------------------------------- exact designs

@dataclass(frozen=True)
class ExactOptOptions:
    """Settings for integer-replication optimizers.

    grid_step controls the exchange candidate lattice.  The annealing schedule
    is geometric: temperature multiplies by `cooling` every `cooling_interval`
    proposals (default 100 n); the proposal neighborhood shrinks geometrically
    from the first to the second fraction of each axis span.
    """

    n: int
    method: str = "grid_exchange"
    grid_step: float = 0.05
    t0: float | None = None
    cooling: float = 0.95
    cooling_interval: int | None = None
    steps: int = 100_000
    neighborhood: tuple[float, float] = (0.5, 0.02)
    seed: int = 0
    restarts: int | None = None
    sample: object = None
    log_progress: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("exact design size n must be at least 1")
        if self.method not in ("grid_exchange", "anneal"):
            raise ValidationError(f"unknown exact method {self.method!r}")
        if not (0.0 < self.cooling < 1.0):
            raise ValidationError("cooling factor must be in (0, 1)")


@dataclass(frozen=True, eq=False)
class ExactOptResult:
    design: ExactDesign
    objective: float
    method: str
    details: dict


def optimize_exact(model: ModelSpec, prior, options: ExactOptOptions) -> ExactOptResult:
    ps = resolve_sample(prior, options.sample)
    atoms = _PointAtoms(model, ps.draws, ps.weights)
    if options.n < model.p:
        # n runs give at most n distinct information atoms
        raise ValidationError(f"n={options.n} runs cannot estimate p={model.p} parameters")
    if options.method == "grid_exchange":
        runs, details = _grid_exchange(atoms, options)
    else:
        runs, details = _anneal(atoms, options)
    design = from_runs(runs)
    return ExactOptResult(
        design=design,
        objective=atoms.objective(design),
        method=options.method,
        details=details,
    )


def _exact_objective(atoms, X) -> float:
    n = X.shape[0]
    return atoms.mean_objective(X, np.full(n, 1.0 / n))


def _grid_exchange(atoms: _PointAtoms, opts: ExactOptOptions):
    model = atoms.model
    n, p = opts.n, atoms.p
    cand = build_eval_grid(model, atoms.thetas, GridSpec(step=opts.grid_step))
    Fc, Uc = atoms.eval(cand)
    finite = np.all(np.isfinite(Uc), axis=0)
    cand, Fc, Uc = cand[finite], Fc[finite], Uc[:, finite]
    ncand = cand.shape[0]
    if ncand < 1:
        raise NumericalError("no admissible candidate points on the lattice")
    restarts = 8 if opts.restarts is None else opts.restarts

    best_obj, best_idx = math.inf, None
    for r in range(restarts):
        rng = rng_for(opts.seed, STREAM_EXCHANGE, r)
        idx = None
        for _ in range(32):
            trial = rng.integers(0, ncand, size=n)
            if math.isfinite(_exact_objective(atoms, cand[trial])):
                idx = np.array(trial)
                break
        if idx is None:
            continue

        def rebuild(idx):
            Ms = np.einsum("sn,ni,nj->sij", Uc[:, idx] / n, Fc[idx], Fc[idx])
            sign, ld = np.linalg.slogdet(Ms)
            return Ms, np.linalg.inv(Ms), float(-(atoms.tw @ ld))

        Ms, Minv, obj = rebuild(idx)
        for _pass in range(60):
            improved = False
            for pos in range(n):
                i = idx[pos]
                fi = Fc[i]
                # per draw: current point's variance, all candidates' variances,
                # and the cross terms with the current point
                A = np.einsum("sij,j->si", Minv, fi)
                b = Uc[:, i] * np.einsum("si,i->s", A, fi)
                g = Fc @ A.T  # (ncand, s)
                q = Uc.T * np.einsum("ni,sij,nj->ns", Fc, Minv, Fc)
                ratio = (1.0 + q / n) * (1.0 - b / n)[None, :] + (
                    Uc[:, i][None, :] * Uc.T * g * g
                ) / (n * n)
                with np.errstate(divide="ignore", invalid="ignore"):
                    delta = -np.log(np.where(ratio > 0.0, ratio, np.nan)) @ atoms.tw
                delta = np.where(np.isfinite(delta), delta, math.inf)
                c = int(np.argmin(delta))
                if delta[c] < -1e-12 and c != i:
                    fc = Fc[c]
                    Ms += (
                        Uc[:, c][:, None, None] * np.outer(fc, fc)[None, :, :]
                        - Uc[:, i][:, None, None] * np.outer(fi, fi)[None, :, :]
                    ) / n
                    idx[pos] = c
                    Minv = np.linalg.inv(Ms)
                    sign, ld = np.linalg.slogdet(Ms)
                    obj = float(-(atoms.tw @ ld))
                    improved = True
            if not improved:
                break
        if obj < best_obj:
            best_obj, best_idx = obj, idx.copy()
            _log(opts.log_progress, f"[exchange] restart={r} objective={obj:.9f}")
    if best_idx is None:
        raise NumericalError("could not find a nonsingular starting design after 32 re-draws")
    return cand[best_idx], {"restarts": restarts, "n_candidates": int(ncand)}


def _anneal(atoms: _PointAtoms, opts: ExactOptOptions):
    model = atoms.model
    n, p, k = opts.n, atoms.p, model.k
    lo, span = _search_box(model, atoms.thetas, GridSpec())
    restarts = 2 if opts.restarts is None else opts.restarts
    interval = opts.cooling_interval or 100 * n
    r0, r1 = opts.neighborhood

    best_obj, best_X = math.inf, None
    for chain in range(max(restarts, 1)):
        rng = rng_for(opts.seed, STREAM_ANNEAL, chain)
        # temperature scale from the objective spread over random probes
        probe_objs = []
        for _ in range(64):
            Xp = lo + span * rng.random((n, k))
            v = _exact_objective(atoms, Xp)
            if math.isfinite(v):
                probe_objs.append(v)
        if opts.t0 is not None:
            T = float(opts.t0)
        elif len(probe_objs) >= 2:
            T = float(np.std(probe_objs))
            if T <= 0:
                T = 1.0
        else:
            T = 1.0
        X = None
        for _ in range(32):
            Xt = lo + span * rng.random((n, k))
            if math.isfinite(_exact_objective(atoms, Xt)):
                X = Xt
                break
        if X is None:
            raise NumericalError("could not find a nonsingular starting design after 32 re-draws")

        F, U = atoms.eval(X)
        Ms = np.einsum("sn,ni,nj->sij", U / n, F, F)
        Minv = np.linalg.inv(Ms)
        sign, ld = np.linalg.slogdet(Ms)
        obj = float(-(atoms.tw @ ld))
        chain_best_obj, chain_best_X = obj, X.copy()
        accepts = 0
        for step in range(opts.steps):
            i = int(rng.integers(n))
            j = int(rng.integers(k))
            frac = step / max(opts.steps - 1, 1)
            rad = span[j] * r0 * (r1 / r0) ** frac
            a = max(lo[j], X[i, j] - rad)
            b = min(lo[j] + span[j], X[i, j] + rad)
            x_new = a + (b - a) * rng.random()
            row = X[i].copy()
            row[j] = x_new
            f_new = eval_basis_many(model.basis, row[None, :])[0]
            eta_new = atoms.thetas @ f_new
            u_new = np.atleast_1d(
                weight_from_eta(model.family, model.link, eta_new)
            )
            if not np.all(np.isfinite(u_new)):
                continue
            f_old = F[i]
            u_old = U[:, i]
            Av = np.einsum("sij,j->si", Minv, f_new)
            Aw = np.einsum("sij,j->si", Minv, f_old)
            a_q = u_new * np.einsum("si,i->s", Av, f_new)
            b_q = u_old * np.einsum("si,i->s", Aw, f_old)
            cross = np.einsum("si,i->s", Av, f_old)
            ratio = (1.0 + a_q / n) * (1.0 - b_q / n) + u_new * u_old * cross * cross / (n * n)
            if np.any(ratio <= 0.0) or not np.all(np.isfinite(ratio)):
                continue
            delta = float(-(atoms.tw @ np.log(ratio)))
            if delta >= 0.0 and rng.random() >= math.exp(-delta / T):
                continue
            # accept
            X[i, j] = x_new
            Ms += (
                u_new[:, None, None] * np.outer(f_new, f_new)[None, :, :]
                - u_old[:, None, None] * np.outer(f_old, f_old)[None, :, :]
            ) / n
            F[i] = f_new
            U[:, i] = u_new
            obj += delta
            accepts += 1
            if accepts % 512 == 0:
                # periodic exact refresh kills rank-one drift
                Ms = np.einsum("sn,ni,nj->sij", U / n, F, F)
                sign, ld = np.linalg.slogdet(Ms)
                obj = float(-(atoms.tw @ ld))
            Minv = np.linalg.inv(Ms)
            if obj < chain_best_obj - 1e-15:
                chain_best_obj = obj
                chain_best_X = X.copy()
                _log(opts.log_progress, f"[anneal] step={step} objective={obj:.9f}")
            if (step + 1) % interval == 0:
                T *= opts.cooling
        exact = _exact_objective(atoms, chain_best_X)
        if exact < best_obj:
            best_obj, best_X = exact, chain_best_X.copy()
    if best_X is None:
        raise NumericalError("annealing found no usable design")
    return best_X, {"restarts": max(restarts, 1), "steps": int(opts.steps)}
