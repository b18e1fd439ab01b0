"""Config-driven command line front end.

One JSON config describes a run: the model, the prior, a task, task options,
a seed, and output paths.  The config is validated against a published schema
before anything executes, and every flag override addresses a config leaf by
dotted path.  All artifacts are written with 17 significant digit floats and
sorted JSON keys, so identical config plus seed gives byte-identical files.

Exit codes: 0 success, 2 validation error, 3 numerical failure, 4 closed-form
precondition failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import jsonschema
import numpy as np

from . import __version__
from .closed_form import (
    bayes_minimal_poisson_design,
    canonical_logistic_constant,
    gamma_ofaat_design,
    GammaConditionReport,
    logistic_1d_design,
    russell_poisson_design,
    yang_zhang_design,
)
from .designs import GridSpec, d_efficiency, design_objective, sensitivity_profile, set_thread_count
from .errors import (
    LinkDomainError,
    NumericalError,
    OptdesError,
    PreconditionError,
    SingularDesignError,
    ValidationError,
)
from .families import DesignRegion, Family, LinkFunction, ModelBasis, ModelSpec
from .glmm import BlockDesign, RandomInterceptModel, block_equivalence_check, optimize_block_design
from .optimize import ContinuousOptOptions, ExactOptOptions, optimize_continuous, optimize_exact
from .priors import Prior, SampleSpec, efficiency_distribution, equivalence_check, resolve_sample
from .serialize import (
    block_design_to_csv,
    canonical_json,
    design_from_jsonable,
    design_to_csv,
    design_to_jsonable,
    ecdf_to_csv,
    model_to_jsonable,
    sensitivity_to_csv,
)
from .tables import reproduce_table, table_ids

_TASKS = (
    "optimize",
    "optimize-exact",
    "check",
    "closed-form",
    "efficiency",
    "effdist",
    "block-optimize",
    "block-check",
)

_RULES = (
    "canonical-logistic",
    "logistic-1d",
    "factorial-bracket",
    "gamma-ofaat",
    "poisson-step",
    "poisson-bayes-minimal",
)

# ------------------------------------------------------------- config schema

_NUM = {"type": "number"}
_POSINT = {"type": "integer", "minimum": 1}

_REGION_SCHEMA = {
    "type": "object",
    "properties": {
        "bounds": {
            "type": "array",
            "minItems": 1,
            "items": {
                "oneOf": [
                    {"type": "null"},
                    {"type": "array", "items": _NUM, "minItems": 2, "maxItems": 2},
                ]
            },
        }
    },
    "required": ["bounds"],
    "additionalProperties": False,
}

_MODEL_SCHEMA = {
    "type": "object",
    "properties": {
        "family": {
            "type": "object",
            "properties": {
                "kind": {"enum": ["binomial", "poisson", "gamma", "normal"]},
                "dispersion": {"type": "number", "exclusiveMinimum": 0},
            },
            "required": ["kind"],
            "additionalProperties": False,
        },
        "link": {
            "type": "object",
            "properties": {
                "kind": {"type": "string"},
                "shape": {"type": ["number", "null"]},
            },
            "required": ["kind"],
            "additionalProperties": False,
        },
        "basis": {
            "type": "object",
            "properties": {
                "k": _POSINT,
                "order": {"enum": [1, 2]},
                "terms": {
                    "type": "array",
                    "minItems": 1,
                    "items": {"type": "array", "items": {"type": "integer", "minimum": 0}},
                },
            },
            "required": ["k"],
            "additionalProperties": False,
        },
        "region": _REGION_SCHEMA,
    },
    "required": ["family", "link", "basis", "region"],
    "additionalProperties": False,
}

_PRIOR_SCHEMA = {
    "oneOf": [
        {
            "type": "object",
            "properties": {
                "kind": {"const": "point"},
                "theta": {"type": "array", "minItems": 1, "items": _NUM},
            },
            "required": ["kind", "theta"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "kind": {"const": "uniform_box"},
                "bounds": {
                    "type": "array",
                    "minItems": 1,
                    "items": {"type": "array", "items": _NUM, "minItems": 2, "maxItems": 2},
                },
                "n_draws": _POSINT,
                "method": {"enum": ["iid", "lhs"]},
            },
            "required": ["kind", "bounds"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "kind": {"const": "sample"},
                "draws": {
                    "type": "array",
                    "minItems": 1,
                    "items": {"type": "array", "minItems": 1, "items": _NUM},
                },
                "weights": {"type": "array", "minItems": 1, "items": _NUM},
            },
            "required": ["kind", "draws"],
            "additionalProperties": False,
        },
    ]
}

_DESIGN_SCHEMA = {
    "oneOf": [
        {
            "type": "object",
            "properties": {
                "kind": {"const": "continuous"},
                "points": {"type": "array", "minItems": 1, "items": {"type": "array", "items": _NUM}},
                "weights": {"type": "array", "minItems": 1, "items": _NUM},
            },
            "required": ["kind", "points", "weights"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "kind": {"const": "exact"},
                "points": {"type": "array", "minItems": 1, "items": {"type": "array", "items": _NUM}},
                "reps": {"type": "array", "minItems": 1, "items": _POSINT},
            },
            "required": ["kind", "points", "reps"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "kind": {"const": "block"},
                "blocks": {
                    "type": "array",
                    "minItems": 1,
                    "items": {"type": "array", "minItems": 1, "items": {"type": "array", "items": _NUM}},
                },
                "weights": {"type": "array", "minItems": 1, "items": _NUM},
            },
            "required": ["kind", "blocks", "weights"],
            "additionalProperties": False,
        },
    ]
}

_GRID_OPTS = {
    "grid_step": {"type": "number", "exclusiveMinimum": 0},
    "window": {"type": "array", "items": _NUM, "minItems": 2, "maxItems": 2},
    "tol": {"type": "number", "exclusiveMinimum": 0},
}

# block lattices need a bounded region, so block tasks take no window
_BLOCK_GRID_OPTS = {"grid_step": _GRID_OPTS["grid_step"], "tol": _GRID_OPTS["tol"]}

_TASK_OPTIONS = {
    "optimize": {
        "type": "object",
        "properties": {
            "multistarts": _POSINT,
            "max_evals": {"type": "integer", "minimum": 10},
            "restarts": {"type": "integer", "minimum": 0},
            "t_min": _POSINT,
            "t_max": _POSINT,
            "sensitivity_grid": {"type": "boolean"},
            **_GRID_OPTS,
        },
        "additionalProperties": False,
    },
    "optimize-exact": {
        "type": "object",
        "properties": {
            "n": _POSINT,
            "method": {"enum": ["grid_exchange", "anneal"]},
            "steps": _POSINT,
            "cooling": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
            "neighborhood": {"type": "array", "items": _NUM, "minItems": 2, "maxItems": 2},
            "restarts": {"type": "integer", "minimum": 0},
            **_GRID_OPTS,
        },
        "required": ["n"],
        "additionalProperties": False,
    },
    "check": {
        "type": "object",
        "properties": {"sensitivity_grid": {"type": "boolean"}, **_GRID_OPTS},
        "additionalProperties": False,
    },
    "closed-form": {
        "type": "object",
        "properties": {
            "rule": {"enum": list(_RULES)},
            "sensitivity_grid": {"type": "boolean"},
            **_GRID_OPTS,
        },
        "required": ["rule"],
        "additionalProperties": False,
    },
    "efficiency": {"type": "object", "properties": {}, "additionalProperties": False},
    "effdist": {
        "type": "object",
        "properties": {
            "n_draws": _POSINT,
            "method": {"enum": ["iid", "lhs"]},
            "competitor": {
                "oneOf": [
                    {
                        "type": "object",
                        "properties": {"rule": {"const": "poisson-step"}},
                        "required": ["rule"],
                        "additionalProperties": False,
                    },
                    {
                        "type": "object",
                        "properties": {"design": _DESIGN_SCHEMA},
                        "required": ["design"],
                        "additionalProperties": False,
                    },
                ]
            },
        },
        "required": ["n_draws", "competitor"],
        "additionalProperties": False,
    },
    "block-optimize": {
        "type": "object",
        "properties": {
            "m": _POSINT,
            "sigma2": {"type": "number", "minimum": 0},
            "method": {"enum": ["ql", "mql", "gee"]},
            "gee_alpha": _NUM,
            **_BLOCK_GRID_OPTS,
        },
        "required": ["m", "sigma2", "method"],
        "additionalProperties": False,
    },
    "block-check": {
        "type": "object",
        "properties": {
            "m": _POSINT,
            "sigma2": {"type": "number", "minimum": 0},
            "method": {"enum": ["ql", "mql", "gee"]},
            "gee_alpha": _NUM,
            **_BLOCK_GRID_OPTS,
        },
        "required": ["m", "sigma2", "method"],
        "additionalProperties": False,
    },
}

_TASK_REQUIRES = {
    "optimize": ["model", "prior"],
    "optimize-exact": ["model", "prior"],
    "check": ["model", "prior", "design"],
    "closed-form": [],
    "efficiency": ["model", "prior", "design", "reference"],
    "effdist": ["model", "prior", "design"],
    "block-optimize": ["model", "prior"],
    "block-check": ["model", "prior", "design"],
}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "optdes run configuration",
    "type": "object",
    "properties": {
        "task": {"enum": list(_TASKS)},
        "seed": {"type": "integer", "minimum": 0},
        "model": _MODEL_SCHEMA,
        "prior": _PRIOR_SCHEMA,
        "design": _DESIGN_SCHEMA,
        "reference": _DESIGN_SCHEMA,
        "options": {"type": "object"},
        "output": {
            "type": "object",
            "properties": {"dir": {"type": "string"}, "prefix": {"type": "string"}},
            "additionalProperties": False,
        },
    },
    "required": ["task"],
    "additionalProperties": False,
    "allOf": [
        {
            "if": {"properties": {"task": {"const": task}}, "required": ["task"]},
            "then": {
                "properties": {"options": _TASK_OPTIONS[task]},
                "required": _TASK_REQUIRES[task]
                + (["options"] if _TASK_OPTIONS[task].get("required") else []),
            },
        }
        for task in _TASKS
    ],
}


# ------------------------------------------------------------- config -> objects

def _build_region(d: dict) -> DesignRegion:
    bounds = []
    for b in d["bounds"]:
        if b is None:
            bounds.append((-math.inf, math.inf))
        else:
            bounds.append((float(b[0]), float(b[1])))
    return DesignRegion(tuple(bounds))


def _build_model(d: dict) -> ModelSpec:
    fam = Family(d["family"]["kind"], float(d["family"].get("dispersion", 1.0)))
    shape = d["link"].get("shape")
    link = LinkFunction(d["link"]["kind"], None if shape is None else float(shape))
    b = d["basis"]
    if "terms" in b:
        if "order" in b:
            raise ValidationError("basis takes either 'order' or 'terms', not both")
        basis = ModelBasis(int(b["k"]), tuple(tuple(int(e) for e in t) for t in b["terms"]))
    elif b.get("order", 1) == 1:
        basis = ModelBasis.first_order(int(b["k"]))
    else:
        basis = ModelBasis.second_order(int(b["k"]))
    return ModelSpec(fam, link, basis, _build_region(d["region"]))


def _build_prior(d: dict, seed: int):
    """Returns (Prior, SampleSpec or None)."""
    if d["kind"] == "point":
        return Prior.point(np.array(d["theta"], dtype=float)), None
    if d["kind"] == "uniform_box":
        prior = Prior.uniform_box(np.array(d["bounds"], dtype=float))
        spec = None
        if "n_draws" in d:
            spec = SampleSpec(int(d["n_draws"]), seed=seed, method=d.get("method", "iid"))
        return prior, spec
    return Prior.from_sample(d["draws"], d.get("weights")), None


def _point_theta(prior: Prior) -> np.ndarray:
    if prior.kind != "point":
        raise ValidationError("this task needs a point prior (prior.kind = 'point')")
    return prior.theta


def _floats(v):
    """A scalar as a float, an array (or nested list) as lists of floats."""
    a = np.asarray(v, dtype=float)
    return float(a) if a.ndim == 0 else a.tolist()


def _build_design(d: dict):
    if d["kind"] == "block":
        return BlockDesign(d["blocks"], np.array(d["weights"], dtype=float))
    return design_from_jsonable(d)


def _grid_from(opts: dict) -> GridSpec | None:
    if "grid_step" not in opts and "window" not in opts:
        return None
    window = tuple(opts["window"]) if "window" in opts else None
    return GridSpec(step=opts.get("grid_step", 0.01), window=window)


def _block_to_jsonable(design: BlockDesign) -> dict:
    return {
        "kind": "block",
        "blocks": [[list(pt) for pt in blk] for blk in design.blocks],
        "weights": [float(w) for w in design.weights],
    }


def _sensitivity_csv(design, model, thetas, weights, grid: GridSpec | None) -> str:
    from .designs import build_eval_grid

    g = grid or GridSpec()
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    pts = build_eval_grid(model, thetas, g)
    if weights is None:
        weights = np.full(thetas.shape[0], 1.0 / thetas.shape[0])
    psi = np.zeros(pts.shape[0])
    for th, w in zip(thetas, weights):
        psi += w * sensitivity_profile(pts, design, model, th)
    return sensitivity_to_csv(pts, psi)


# ------------------------------------------------------------- task handlers
# each returns (report dict, {artifact kind: text}, summary sentence, exit code)

def _task_optimize(config, opts, seed):
    model = _build_model(config["model"])
    prior, sspec = _build_prior(config["prior"], seed)
    copts = ContinuousOptOptions(
        t_min=opts.get("t_min"),
        t_max=opts.get("t_max"),
        multistarts=opts.get("multistarts", 16),
        max_evals=opts.get("max_evals", 2000),
        restarts=opts.get("restarts", 2),
        seed=seed,
        sample=sspec,
        grid=_grid_from(opts),
        tol=opts.get("tol"),
    )
    res = optimize_continuous(model, prior, copts)
    design = res.design.canonical()
    rep = res.report
    report = {
        "model": model_to_jsonable(model),
        "objective": float(res.objective),
        "equivalence": rep.to_jsonable(),
        "design": design_to_jsonable(design, model),
    }
    files = {
        "design_csv": design_to_csv(design),
        "design_json": canonical_json(design_to_jsonable(design, model)),
    }
    if opts.get("sensitivity_grid"):
        ps = resolve_sample(prior, sspec)
        files["sensitivity_csv"] = _sensitivity_csv(
            design, model, ps.draws, ps.weights, _grid_from(opts)
        )
    summary = (
        f"optimized a continuous design: objective {res.objective:.6f} with "
        f"{design.points.shape[0]} support points; equivalence min psi "
        f"{rep.min_psi:.3e} (tol {rep.tol:g}, {'pass' if rep.is_optimal else 'FAIL'})."
    )
    return report, files, summary, 0


def _task_optimize_exact(config, opts, seed):
    model = _build_model(config["model"])
    prior, sspec = _build_prior(config["prior"], seed)
    eopts = ExactOptOptions(
        n=int(opts["n"]),
        method=opts.get("method", "grid_exchange"),
        grid_step=opts.get("grid_step", 0.05),
        cooling=opts.get("cooling", 0.95),
        steps=opts.get("steps", 100_000),
        neighborhood=tuple(opts.get("neighborhood", (0.5, 0.02))),
        restarts=opts.get("restarts"),
        seed=seed,
        sample=sspec,
    )
    res = optimize_exact(model, prior, eopts)
    design = res.design.canonical()
    # the relaxation check is informative: exact designs rarely certify
    rep = equivalence_check(design.as_continuous(), model, prior, sample=sspec, tol=opts.get("tol"))
    report = {
        "model": model_to_jsonable(model),
        "objective": float(res.objective),
        "method": res.method,
        "equivalence": rep.to_jsonable(),
        "design": design_to_jsonable(design, model),
    }
    files = {
        "design_csv": design_to_csv(design),
        "design_json": canonical_json(design_to_jsonable(design, model)),
    }
    summary = (
        f"optimized an exact {design.n}-run design by {res.method}: objective "
        f"{res.objective:.6f}, {design.points.shape[0]} distinct points; continuous "
        f"relaxation min psi {rep.min_psi:.3e} ({'pass' if rep.is_optimal else 'FAIL'})."
    )
    return report, files, summary, 0


def _task_check(config, opts, seed):
    model = _build_model(config["model"])
    prior, sspec = _build_prior(config["prior"], seed)
    design = _build_design(config["design"])
    if isinstance(design, BlockDesign):
        raise ValidationError("the check task takes a pointwise design; use block-check")
    rep = equivalence_check(
        design, model, prior, grid=_grid_from(opts), sample=sspec, tol=opts.get("tol")
    )
    report = {
        "model": model_to_jsonable(model),
        "objective": float(rep.objective),
        "equivalence": rep.to_jsonable(),
    }
    files = {}
    if opts.get("sensitivity_grid"):
        ps = resolve_sample(prior, sspec)
        files["sensitivity_csv"] = _sensitivity_csv(
            design, model, ps.draws, ps.weights, _grid_from(opts)
        )
    summary = (
        f"checked the supplied design: objective {rep.objective:.6f}; min psi "
        f"{rep.min_psi:.3e} at {np.round(rep.argmin, 6).tolist()} "
        f"(tol {rep.tol:g}, {'pass' if rep.is_optimal else 'FAIL'})."
    )
    return report, files, summary, 0


def _task_closed_form(config, opts, seed):
    rule = opts["rule"]
    model = _build_model(config["model"]) if "model" in config else None
    prior = sspec = None
    if "prior" in config:
        prior, sspec = _build_prior(config["prior"], seed)

    if rule == "canonical-logistic":
        cc = canonical_logistic_constant()
        td = logistic_1d_design(0.0, 1.0)
        extra = {
            "rule": rule,
            "c_star": float(cc.c_star),
            "mu_star": float(cc.mu_star),
            "residual": float(cc.residual),
        }
        eq_theta = np.array([0.0, 1.0])
    else:
        if model is None:
            raise ValidationError(f"rule '{rule}' needs a model in the config")
        if prior is None:
            raise ValidationError(f"rule '{rule}' needs a prior in the config")
        if rule == "logistic-1d":
            theta = _point_theta(prior)
            if theta.size != 2:
                raise ValidationError("logistic-1d takes theta = (intercept, slope)")
            td = logistic_1d_design(float(theta[0]), float(theta[1]), model.region)
            eq_theta = theta
        elif rule == "factorial-bracket":
            theta = _point_theta(prior)
            td = yang_zhang_design(theta, model.region)
            eq_theta = theta
        elif rule == "gamma-ofaat":
            theta = _point_theta(prior)
            out = gamma_ofaat_design(theta, model.link)
            if isinstance(out, GammaConditionReport):
                report = {
                    "closed_form": {
                        "rule": rule,
                        "condition_satisfied": False,
                        "lhs": float(out.lhs),
                        "rhs": float(out.rhs),
                        "worst_pair": list(out.worst_pair),
                        "link": out.link,
                        "shape": float(out.shape),
                        "note": out.note,
                    }
                }
                summary = (
                    f"closed form '{rule}' does not apply: intercept condition fails "
                    f"({out.lhs:.6g} > {out.rhs:.6g}); {out.note}."
                )
                return report, {}, summary, 4
            td = out
            eq_theta = theta
        elif rule == "poisson-step":
            theta = _point_theta(prior)
            td = russell_poisson_design(theta, model.region)
            eq_theta = theta
        elif rule == "poisson-bayes-minimal":
            td = bayes_minimal_poisson_design(prior, model.region)
            eq_theta = prior.mean()
        else:
            raise ValidationError(f"unknown closed-form rule {rule!r}")
        extra = {
            "rule": rule,
            "conditions": {k: bool(v) for k, v in td.conditions.items()},
            "intermediates": {k: _floats(v) for k, v in td.intermediates.items()},
        }

    eq_model = model if model is not None else td.model
    design = td.design.canonical()
    rep = equivalence_check(design, eq_model, eq_theta, grid=_grid_from(opts), tol=opts.get("tol"))
    report = {
        "model": model_to_jsonable(eq_model),
        "objective": float(rep.objective),
        "equivalence": rep.to_jsonable(),
        "closed_form": extra,
        "design": design_to_jsonable(design, eq_model),
    }
    files = {
        "design_csv": design_to_csv(design),
        "design_json": canonical_json(design_to_jsonable(design, eq_model)),
    }
    if opts.get("sensitivity_grid"):
        files["sensitivity_csv"] = _sensitivity_csv(design, eq_model, eq_theta, None, _grid_from(opts))
    summary = (
        f"constructed a design by rule '{rule}': objective {rep.objective:.6f} with "
        f"{design.points.shape[0]} support points; equivalence min psi {rep.min_psi:.3e} "
        f"({'pass' if rep.is_optimal else 'FAIL'})."
    )
    return report, files, summary, 0


def _task_efficiency(config, opts, seed):
    model = _build_model(config["model"])
    prior, _ = _build_prior(config["prior"], seed)
    theta = _point_theta(prior)
    design = _build_design(config["design"])
    reference = _build_design(config["reference"])
    eff = d_efficiency(design, reference, model, theta)
    report = {
        "model": model_to_jsonable(model),
        "efficiency": float(eff),
        "objective_design": float(design_objective(design, model, theta)),
        "objective_reference": float(design_objective(reference, model, theta)),
    }
    summary = f"relative efficiency of the design against the reference: {eff:.6f}."
    return report, {}, summary, 0


def _task_effdist(config, opts, seed):
    model = _build_model(config["model"])
    prior, _ = _build_prior(config["prior"], seed)
    design = _build_design(config["design"])
    comp = opts["competitor"]
    if "rule" in comp:
        competitor = lambda th: russell_poisson_design(th, model.region).design
    else:
        competitor = _build_design(comp["design"])
    dist = efficiency_distribution(
        design,
        competitor,
        model,
        prior,
        n_draws=int(opts["n_draws"]),
        seed=seed,
        method=opts.get("method", "iid"),
    )
    stats = dist.summary()
    stats["fraction_above_1"] = dist.fraction_above(1.0)
    report = {"model": model_to_jsonable(model), "ecdf": stats}
    files = {"ecdf_csv": ecdf_to_csv(dist.efficiencies)}
    summary = (
        f"efficiency distribution over {dist.n} draws ({dist.n_rejected} rejected): "
        f"min {stats['min']:.4f}, median {stats['median']:.4f}, "
        f"fraction above 1 {stats['fraction_above_1']:.3f}."
    )
    return report, files, summary, 0


def _block_common(config, opts, seed):
    base = _build_model(config["model"])
    gm = RandomInterceptModel(base, sigma2=float(opts["sigma2"]), m=int(opts["m"]))
    prior, _ = _build_prior(config["prior"], seed)
    theta = _point_theta(prior)
    return gm, theta, opts["method"], float(opts.get("gee_alpha", 0.5))


def _task_block_optimize(config, opts, seed):
    gm, theta, method, alpha = _block_common(config, opts, seed)
    copts = ContinuousOptOptions(seed=seed, grid=_grid_from(opts), tol=opts.get("tol"))
    res = optimize_block_design(gm, theta, method=method, options=copts, gee_alpha=alpha)
    design = res.design.canonical()
    rep = res.report
    report = {
        "model": model_to_jsonable(gm.base),
        "m": gm.m,
        "sigma2": float(gm.sigma2),
        "method": method,
        "objective": float(res.objective),
        "equivalence": rep.to_jsonable(),
        "design": _block_to_jsonable(design),
    }
    files = {
        "design_csv": block_design_to_csv(design.blocks, design.weights),
        "design_json": canonical_json(_block_to_jsonable(design)),
    }
    summary = (
        f"optimized a size-{gm.m} block design under the {method} approximation: "
        f"objective {res.objective:.6f} with {design.t} blocks; block-lattice min psi "
        f"{rep.min_psi:.3e} ({'pass' if rep.is_optimal else 'FAIL'})."
    )
    return report, files, summary, 0


def _task_block_check(config, opts, seed):
    gm, theta, method, alpha = _block_common(config, opts, seed)
    design = _build_design(config["design"])
    if not isinstance(design, BlockDesign):
        raise ValidationError("block-check takes a design with kind 'block'")
    rep = block_equivalence_check(
        design,
        gm,
        theta,
        method=method,
        grid_step=opts.get("grid_step", 0.02),
        tol=opts.get("tol"),
        gee_alpha=alpha,
    )
    report = {
        "model": model_to_jsonable(gm.base),
        "m": gm.m,
        "sigma2": float(gm.sigma2),
        "method": method,
        "objective": float(rep.objective),
        "equivalence": rep.to_jsonable(),
    }
    summary = (
        f"checked the supplied block design under the {method} approximation: "
        f"objective {rep.objective:.6f}; block-lattice min psi {rep.min_psi:.3e} "
        f"(tol {rep.tol:g}, {'pass' if rep.is_optimal else 'FAIL'})."
    )
    return report, {}, summary, 0


_TASK_HANDLERS = {
    "optimize": _task_optimize,
    "optimize-exact": _task_optimize_exact,
    "check": _task_check,
    "closed-form": _task_closed_form,
    "efficiency": _task_efficiency,
    "effdist": _task_effdist,
    "block-optimize": _task_block_optimize,
    "block-check": _task_block_check,
}

_ARTIFACT_NAMES = {
    "design_csv": "{prefix}.design.csv",
    "design_json": "{prefix}.design.json",
    "sensitivity_csv": "{prefix}.sensitivity.csv",
    "ecdf_csv": "{prefix}.ecdf.csv",
}


# ------------------------------------------------------------- plumbing

def _apply_override(config: dict, ov: str) -> None:
    key, eq, raw = ov.partition("=")
    if not eq or not key:
        raise ValidationError(f"override {ov!r} must look like dotted.path=value")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = config
    parts = key.split(".")
    for i, part in enumerate(parts[:-1]):
        try:
            if isinstance(node, list):
                node = node[int(part)]
            else:
                nxt = node.get(part)
                if nxt is None:
                    nxt = {}
                    node[part] = nxt
                node = nxt
        except (KeyError, IndexError, TypeError) as e:
            raise ValidationError(
                f"override path {key!r} fails at segment {part!r}: {e}"
            ) from None
        except ValueError:
            raise ValidationError(
                f"override path {key!r}: segment {part!r} is not a list index"
            ) from None
        if not isinstance(node, (dict, list)):
            raise ValidationError(
                f"override path {key!r}: {'.'.join(parts[: i + 1])} is not a container"
            )
    last = parts[-1]
    try:
        if isinstance(node, list):
            node[int(last)] = value
        else:
            node[last] = value
    except (IndexError, ValueError) as e:
        raise ValidationError(f"override path {key!r} fails at segment {last!r}: {e}") from None


def _validate_config(config) -> None:
    try:
        jsonschema.validate(config, CONFIG_SCHEMA)
    except jsonschema.ValidationError as e:
        where = "/".join(str(p) for p in e.absolute_path) or "(top level)"
        raise ValidationError(f"config invalid at {where}: {e.message}") from None


def _write_text(path: str, text: str) -> None:
    with open(path, "w", newline="\n") as f:
        f.write(text)


def _cmd_run(args) -> int:
    try:
        with open(args.config) as f:
            config = json.load(f)
    except FileNotFoundError:
        raise ValidationError(f"config file {args.config!r} not found") from None
    except json.JSONDecodeError as e:
        raise ValidationError(f"config file {args.config!r} is not valid JSON: {e}") from None
    if not isinstance(config, dict):
        raise ValidationError("config must be a JSON object")
    for ov in args.set or []:
        _apply_override(config, ov)
    _validate_config(config)

    task = config["task"]
    seed = int(config.get("seed", 0))
    opts = config.get("options", {})
    out = config.get("output", {})
    out_dir = out.get("dir", ".")
    prefix = out.get("prefix", task)

    report, files, summary, code = _TASK_HANDLERS[task](config, opts, seed)
    report["task"] = task
    report["seed"] = seed
    names = {kind: _ARTIFACT_NAMES[kind].format(prefix=prefix) for kind in files}
    report_name = f"{prefix}.report.json"
    report["artifacts"] = sorted(names.values()) + [report_name]

    os.makedirs(out_dir, exist_ok=True)
    for kind, text in files.items():
        _write_text(os.path.join(out_dir, names[kind]), text)
    _write_text(os.path.join(out_dir, report_name), canonical_json(report))
    written = ", ".join(sorted(names.values()) + [report_name])
    print(f"{summary} Wrote {written} in {out_dir}.")
    return code


def _cmd_reproduce(args) -> int:
    if args.list:
        for tid in table_ids():
            print(tid)
        return 0
    if not args.table_id:
        raise ValidationError("reproduce needs a table id (or --list)")
    res = reproduce_table(args.table_id)
    os.makedirs(args.out, exist_ok=True)
    base = os.path.join(args.out, args.table_id)
    _write_text(base + ".computed.csv", res.computed_csv)
    _write_text(base + ".golden.csv", res.golden_csv)
    _write_text(base + ".diff.json", canonical_json(res.diff))
    n, nf = res.diff["n_cells"], res.diff["n_failed"]
    verdict = "all cells match" if res.passed else f"{nf} of {n} cells off"
    print(
        f"reproduced table '{args.table_id}': {verdict} ({n} cells checked against "
        f"stored golden values, each with its own tolerance). Wrote "
        f"{args.table_id}.computed.csv, {args.table_id}.golden.csv, "
        f"{args.table_id}.diff.json in {args.out}."
    )
    return 0 if res.passed else 3


def _cmd_schema(args) -> int:
    print(canonical_json(CONFIG_SCHEMA), end="")
    return 0


def _cmd_version(args) -> int:
    print(__version__)
    return 0


def _resolve_threads(args) -> None:
    threads = getattr(args, "threads", None)
    if threads is None:
        env = os.environ.get("OPTDES_THREADS")
        if env is not None:
            try:
                threads = int(env)
            except ValueError:
                raise ValidationError(f"OPTDES_THREADS must be an integer, got {env!r}") from None
    set_thread_count(threads)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="optdes",
        description="optimal design construction and verification for generalized linear models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one config-driven task")
    p_run.add_argument("config", help="path to a JSON run configuration")
    p_run.add_argument(
        "--set",
        action="append",
        metavar="PATH=VALUE",
        help="override a config leaf by dotted path (value parsed as JSON when possible)",
    )
    p_run.add_argument("--threads", type=int, default=None, help="worker thread cap")
    p_run.set_defaults(func=_cmd_run)

    p_rep = sub.add_parser("reproduce", help="recompute a reference table and diff it")
    p_rep.add_argument("table_id", nargs="?", help="registry id; see --list")
    p_rep.add_argument("--list", action="store_true", help="print known table ids")
    p_rep.add_argument("--out", default=".", help="output directory")
    p_rep.add_argument("--threads", type=int, default=None, help="worker thread cap")
    p_rep.set_defaults(func=_cmd_reproduce)

    p_schema = sub.add_parser("schema", help="print the run configuration JSON schema")
    p_schema.set_defaults(func=_cmd_schema)

    p_version = sub.add_parser("version", help="print the package version")
    p_version.set_defaults(func=_cmd_version)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _resolve_threads(args)
        return args.func(args)
    except PreconditionError as e:
        print(f"precondition failure: {e}", file=sys.stderr)
        return 4
    except ValidationError as e:
        print(f"validation error: {e}", file=sys.stderr)
        return 2
    except (SingularDesignError, NumericalError, LinkDomainError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    except OptdesError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
