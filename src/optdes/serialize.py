"""CSV and JSON serialization with byte-stable float formatting.

All floats are written with 17 significant digits, which round-trips every
IEEE double exactly: parse(write(x)) == x bit for bit, and therefore
write(parse(s)) == s for any s this module produced.  JSON objects are
emitted with sorted keys so equal values give equal bytes.
"""

from __future__ import annotations

import hashlib
import io
import json
import math

import numpy as np

from .errors import ValidationError
from .families import DesignRegion, Family, LinkFunction, ModelBasis, ModelSpec
from .designs import ContinuousDesign, ExactDesign


def fmt_float(v: float) -> str:
    v = float(v)
    if not math.isfinite(v):
        raise ValidationError("cannot serialize a non-finite number")
    return format(v, ".17g")


def canonical_json(obj, indent: int = 2) -> str:
    """Deterministic JSON text: sorted keys, 17 significant digit floats."""
    out = io.StringIO()
    _emit(obj, out, indent, 0)
    out.write("\n")
    return out.getvalue()


def _emit(obj, out, indent, level):
    pad = " " * (indent * (level + 1))
    close_pad = " " * (indent * level)
    if isinstance(obj, dict):
        if not obj:
            out.write("{}")
            return
        out.write("{\n")
        keys = sorted(obj.keys())
        for i, key in enumerate(keys):
            if not isinstance(key, str):
                raise ValidationError("JSON object keys must be strings")
            out.write(pad)
            out.write(json.dumps(key))
            out.write(": ")
            _emit(obj[key], out, indent, level + 1)
            out.write(",\n" if i + 1 < len(keys) else "\n")
        out.write(close_pad + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(np.asarray(obj).tolist()) if isinstance(obj, np.ndarray) else list(obj)
        if not seq:
            out.write("[]")
            return
        out.write("[\n")
        for i, v in enumerate(seq):
            out.write(pad)
            _emit(v, out, indent, level + 1)
            out.write(",\n" if i + 1 < len(seq) else "\n")
        out.write(close_pad + "]")
    elif isinstance(obj, bool) or obj is None:
        out.write(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        out.write(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.write(fmt_float(float(obj)))
    elif isinstance(obj, str):
        out.write(json.dumps(obj))
    else:
        raise ValidationError(f"cannot serialize {type(obj).__name__}")


def fingerprint(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()[:16]


# ---------------------------------------------------------------- CSV tables

def _csv_lines(header: list[str], rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt_float(v) for v in row))
    return "\n".join(lines) + "\n"


def design_to_csv(design) -> str:
    """Columns x_1..x_k,weight; exact designs write weight = reps/n."""
    if isinstance(design, ExactDesign):
        pts = design.points
        w = design.reps / float(design.n)
    elif isinstance(design, ContinuousDesign):
        pts, w = design.points, design.weights
    else:
        raise ValidationError(f"not a design: {type(design).__name__}")
    k = pts.shape[1]
    header = [f"x_{j + 1}" for j in range(k)] + ["weight"]
    rows = [list(pts[i]) + [w[i]] for i in range(pts.shape[0])]
    return _csv_lines(header, rows)


def design_from_csv(text: str) -> ContinuousDesign:
    lines = [ln for ln in text.strip().split("\n") if ln.strip()]
    if len(lines) < 2:
        raise ValidationError("design CSV needs a header and at least one row")
    header = lines[0].split(",")
    if header[-1] != "weight" or any(
        h != f"x_{j + 1}" for j, h in enumerate(header[:-1])
    ):
        raise ValidationError(f"unexpected design CSV header {lines[0]!r}")
    k = len(header) - 1
    pts, w = [], []
    for ln in lines[1:]:
        vals = [float(v) for v in ln.split(",")]
        if len(vals) != k + 1:
            raise ValidationError(f"row has {len(vals)} fields, expected {k + 1}")
        pts.append(vals[:k])
        w.append(vals[k])
    return ContinuousDesign(np.array(pts), np.array(w))


def sensitivity_to_csv(points, psi) -> str:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    psi = np.asarray(psi, dtype=float).reshape(-1)
    k = pts.shape[1]
    header = [f"x_{j + 1}" for j in range(k)] + ["psi"]
    rows = [list(pts[i]) + [psi[i]] for i in range(pts.shape[0])]
    return _csv_lines(header, rows)


def ecdf_to_csv(efficiencies) -> str:
    effs = np.asarray(efficiencies, dtype=float).reshape(-1)
    lines = ["draw,efficiency"]
    for i, e in enumerate(effs):
        lines.append(f"{i},{fmt_float(e)}")
    return "\n".join(lines) + "\n"


def block_design_to_csv(blocks, weights) -> str:
    """Rows (block_id, point_index, x_1..x_k, block_weight)."""
    B = np.asarray(blocks, dtype=float)
    w = np.asarray(weights, dtype=float).reshape(-1)
    t, m, k = B.shape
    header = ["block_id", "point_index"] + [f"x_{j + 1}" for j in range(k)] + ["block_weight"]
    lines = [",".join(header)]
    for b in range(t):
        for i in range(m):
            vals = [str(b), str(i)] + [fmt_float(v) for v in B[b, i]] + [fmt_float(w[b])]
            lines.append(",".join(vals))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- JSON forms

def region_to_jsonable(region: DesignRegion) -> dict:
    bounds = []
    for lo, hi in region.bounds:
        if math.isinf(lo):
            bounds.append(None)
        else:
            bounds.append([lo, hi])
    return {"bounds": bounds}


def region_from_jsonable(d: dict) -> DesignRegion:
    bounds = []
    for b in d["bounds"]:
        if b is None:
            bounds.append((-math.inf, math.inf))
        else:
            bounds.append((float(b[0]), float(b[1])))
    return DesignRegion(tuple(bounds))


def model_to_jsonable(model: ModelSpec) -> dict:
    return {
        "family": {"kind": model.family.kind, "dispersion": model.family.dispersion},
        "link": {"kind": model.link.kind, "shape": model.link.shape},
        "basis": {"k": model.basis.k, "terms": [list(t) for t in model.basis.terms]},
        "region": region_to_jsonable(model.region),
    }


def model_from_jsonable(d: dict) -> ModelSpec:
    fam = Family(d["family"]["kind"], float(d["family"].get("dispersion", 1.0)))
    shape = d["link"].get("shape")
    link = LinkFunction(d["link"]["kind"], None if shape is None else float(shape))
    basis = ModelBasis(int(d["basis"]["k"]), tuple(tuple(t) for t in d["basis"]["terms"]))
    region = region_from_jsonable(d["region"])
    return ModelSpec(fam, link, basis, region)


def model_fingerprint(model: ModelSpec) -> str:
    return fingerprint(model_to_jsonable(model))


def design_to_jsonable(design, model: ModelSpec | None = None) -> dict:
    if isinstance(design, ExactDesign):
        d = {
            "kind": "exact",
            "points": [list(row) for row in design.points],
            "reps": [int(r) for r in design.reps],
            "n": design.n,
        }
    elif isinstance(design, ContinuousDesign):
        d = {
            "kind": "continuous",
            "points": [list(row) for row in design.points],
            "weights": [float(w) for w in design.weights],
        }
    else:
        raise ValidationError(f"not a design: {type(design).__name__}")
    if model is not None:
        d["model_fingerprint"] = model_fingerprint(model)
    return d


def design_from_jsonable(d: dict):
    if d["kind"] == "exact":
        return ExactDesign(d["points"], np.array(d["reps"]))
    if d["kind"] == "continuous":
        return ContinuousDesign(d["points"], np.array(d["weights"], dtype=float))
    raise ValidationError(f"unknown design kind {d.get('kind')!r}")
