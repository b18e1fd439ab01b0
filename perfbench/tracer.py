"""Layer tracing for the benchmark, installed from outside the library.

The tracer wraps every public function of every optdes module in each module
namespace that binds it (so ``weight_from_eta`` is wrapped in ``families``,
``designs``, ``optimize``, ``priors`` and ``closed_form``), plus scipy's
``minimize`` as bound in ``optdes.optimize`` and ``numpy.linalg.inv`` /
``slogdet``.  Nothing under ``src/`` is edited: the wrappers are module
attributes that :meth:`Tracer.uninstall` puts back.

A wrapper records nothing outside an op.  Inside an op every call adds to a
per-op aggregate (calls, self time, total time, and one work count for a few
functions); calls to functions that are not hot leaves are also kept as span
records with their parent span, up to a cap per op.  Self time is a span's
duration minus the time covered by its child spans; the op's own root span
takes the time no wrapped call covers, which is reported as ``other.self_s``.
Spans and self times belong to the thread that runs the op.  A wrapped call
made from another thread (optdes's grid scan with ``OPTDES_THREADS`` > 1)
adds to its function's calls and work count only; its time is charged to the
op thread's span that waits for it, so self times never overlap and still
add up to the op's wall time.
Everything stays in memory until :meth:`Tracer.dump` writes it once.
"""

from __future__ import annotations

import importlib
import json
import threading
import types
from time import perf_counter

OPTDES_MODULES = (
    "optdes",
    "optdes.families",
    "optdes.designs",
    "optdes.optimize",
    "optdes.priors",
    "optdes.closed_form",
    "optdes.glmm",
    "optdes.serialize",
    "optdes.tables",
    "optdes.cli",
)

# aggregated only: called once per objective evaluation, proposal or draw
HOT_MODULES = ("families", "linalg")
HOT_NAMES = frozenset(
    {
        "designs.psd_logdet",
        "designs.d_objective",
        "designs.information_matrix",
        "designs.design_objective",
        "designs.d_efficiency",
        "designs.sensitivity_profile",
        "optimize.box_decode",
        "optimize.box_encode",
        "optimize.stick_decode",
        "optimize.stick_encode",
        "closed_form.russell_poisson_design",
        "glmm.block_info_batch",
        "priors.rng_for",
        "serialize.fmt_float",
    }
)
SPANS_PER_OP = 4000

MARK = "__perfbench_original__"


def _support_sizes(args, kwargs, result):
    from optdes.designs import support_bound
    from optdes.optimize import ContinuousOptOptions

    model = args[0] if args else kwargs["model"]
    opts = args[2] if len(args) > 2 else kwargs.get("options")
    opts = opts or ContinuousOptOptions()
    t_min = model.p if opts.t_min is None else int(opts.t_min)
    t_max = support_bound(model.p) if opts.t_max is None else int(opts.t_max)
    last = result.t_final if result.is_optimal else t_max
    return last - t_min + 1


# one work count per function, read from (args, kwargs, result); layers.py
# names them (points, nfev, draws, blocks, support_sizes_tried)
WORK_COUNTS = {
    "designs.equivalence_scan": lambda a, k, r: r.n_grid,
    "glmm.block_equivalence_check": lambda a, k, r: r.n_grid,
    "optimize.minimize": lambda a, k, r: int(r.nfev),
    "priors.efficiency_distribution": lambda a, k, r: r.n + r.n_rejected,
    "glmm.block_info_batch": lambda a, k, r: r.shape[0],
    "optimize.optimize_continuous": _support_sizes,
}


class Tracer:
    """Installs wrappers, aggregates per op, restores every patched name."""

    def __init__(self):
        self.patches: list[tuple[object, str, object]] = []
        self.op_id = None
        self.owner = None
        self.lock = threading.Lock()
        self.stack: list[list] = []
        self.agg: dict[str, list] = {}
        self.spans: list[tuple] = []
        self.dropped = 0
        self.next_span = 0
        self.t_begin = 0.0
        self.ops: list[dict] = []

    # ------------------------------------------------------------ install

    def install(self) -> None:
        import numpy as np

        originals: dict[int, object] = {}
        for modname in OPTDES_MODULES:
            mod = importlib.import_module(modname)
            for attr, val in list(vars(mod).items()):
                if attr.startswith("_") or not isinstance(val, types.FunctionType):
                    continue
                if not getattr(val, "__module__", "").startswith("optdes."):
                    continue
                name = val.__module__.rsplit(".", 1)[-1] + "." + val.__name__
                self._patch(mod, attr, val, name, originals)
        opt = importlib.import_module("optdes.optimize")
        self._patch(opt, "minimize", opt.minimize, "optimize.minimize", originals)
        for fn in ("inv", "slogdet"):
            self._patch(np.linalg, fn, getattr(np.linalg, fn), "linalg." + fn, originals)

    def _patch(self, mod, attr, fn, name, originals) -> None:
        wrapper = originals.get(id(fn))
        if wrapper is None:
            wrapper = self._wrap(name, fn)
            originals[id(fn)] = wrapper
        self.patches.append((mod, attr, fn))
        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self.patches):
            setattr(mod, attr, fn)
        self.patches.clear()

    def _wrap(self, name: str, fn):
        tracer = self
        keep = name.split(".", 1)[0] not in HOT_MODULES and name not in HOT_NAMES
        count = WORK_COUNTS.get(name)

        def wrapper(*args, **kwargs):
            if tracer.op_id is None:
                return fn(*args, **kwargs)
            if threading.get_ident() != tracer.owner:
                out = fn(*args, **kwargs)
                work = 0 if count is None else count(args, kwargs, out)
                with tracer.lock:
                    rec = tracer.record(name)
                    rec[0] += 1
                    rec[3] += work
                    rec[4] += 1
                return out
            stack = tracer.stack
            parent = stack[-1]
            span_id = -1
            if keep:
                tracer.next_span += 1
                span_id = tracer.next_span
            frame = [0.0, span_id]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                parent[0] += dur
                with tracer.lock:
                    rec = tracer.record(name)
                    rec[0] += 1
                    rec[1] += dur - frame[0]
                    rec[2] += dur
                if keep:
                    if len(tracer.spans) < SPANS_PER_OP:
                        tracer.spans.append((span_id, parent[1], name, t0, t1))
                    else:
                        tracer.dropped += 1
            if count is not None:
                # outside the lock: a count may call a wrapped function
                work = count(args, kwargs, out)
                with tracer.lock:
                    rec[3] += work
            return out

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        setattr(wrapper, MARK, fn)
        return wrapper

    # ------------------------------------------------------------- ops

    def record(self, name: str) -> list:
        """[calls, self_s, total_s, work, calls from other threads] of `name`
        in the current op; the caller holds the lock."""
        rec = self.agg.get(name)
        if rec is None:
            rec = self.agg[name] = [0, 0.0, 0.0, 0, 0]
        return rec

    def begin(self, op_id: int) -> None:
        self.owner = threading.get_ident()
        self.op_id = op_id
        self.stack = [[0.0, 0]]
        self.agg = {}
        self.spans = []
        self.dropped = 0
        self.next_span = 0
        self.t_begin = perf_counter()

    def end(self, kind: str, wall: float) -> dict:
        """Close the op; its root span covers `wall` seconds."""
        covered = self.stack[0][0]
        rec = {
            "op_id": self.op_id,
            "kind": kind,
            "wall_s": wall,
            "other_self_s": wall - covered,
            "layers": {k: {"calls": v[0], "self_s": v[1], "total_s": v[2], "work": v[3],
                           "worker_calls": v[4]}
                       for k, v in self.agg.items()},
            "spans": [
                {"id": s, "parent": p, "name": n, "start": a - self.t_begin, "end": b - self.t_begin}
                for s, p, n, a, b in self.spans
            ],
            "spans_dropped": self.dropped,
        }
        self.op_id = None
        self.ops.append(rec)
        return rec

    # ---------------------------------------------------------- output

    def totals(self) -> dict[str, list]:
        """Summed [calls, self_s, total_s, work] per layer name over all ops."""
        out: dict[str, list] = {}
        for op in self.ops:
            for k, v in op["layers"].items():
                acc = out.setdefault(k, [0, 0.0, 0.0, 0])
                acc[0] += v["calls"]
                acc[1] += v["self_s"]
                acc[2] += v["total_s"]
                acc[3] += v["work"]
        return out

    def dump(self, path: str, header: dict) -> None:
        with open(path, "w") as f:
            json.dump({**header, "ops": self.ops}, f)


def installed_wrappers() -> list[str]:
    """Names of module attributes that currently hold a tracer wrapper."""
    import numpy as np

    found = []
    mods = [importlib.import_module(m) for m in OPTDES_MODULES] + [np.linalg]
    for mod in mods:
        for attr, val in vars(mod).items():
            if callable(val) and hasattr(val, MARK):
                found.append(f"{mod.__name__}.{attr}")
    return found
