"""Deterministic report serialization: sorted keys, 12 significant digits."""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

__all__ = ["emit_report", "to_jsonable", "profile_csv"]


def _round_float(x: float):
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return float(f"{x:.12g}")
    return x


def to_jsonable(obj):
    """Recursively convert results (dataclasses, arrays, numpy scalars) to
    plain JSON values with floats rounded to 12 significant digits.  A
    dataclass is its fields, unless it writes its own document (`to_dict`)."""
    if obj is None or isinstance(obj, (bool, str, int)):
        return obj
    if isinstance(obj, (float, np.floating)):
        return _round_float(float(obj))
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if hasattr(obj, "to_dict"):
        return to_jsonable(obj.to_dict())
    if dataclasses.is_dataclass(obj):
        return {f.name: to_jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    return str(obj)


def profile_csv(profile) -> str:
    """DiniProfile CSV: scale,beta,beta_alpha,cumulative."""
    lines = ["scale,beta,beta_alpha,cumulative"]
    for r, b, ba, cum in profile.rows():
        lines.append(",".join(f"{v:.12g}" for v in (r, b, ba, cum)))
    return "\n".join(lines) + "\n"


def emit_report(result, format: str = "json") -> bytes:
    """Serialize a result deterministically; same input gives identical
    bytes.  format: json or csv (csv only for profile-like results)."""
    if format == "json":
        doc = to_jsonable(result)
        return (json.dumps(doc, sort_keys=True, indent=1) + "\n").encode()
    if format == "csv":
        if hasattr(result, "rows"):
            return profile_csv(result).encode()
        raise ValueError("csv format needs a row-structured result")
    raise ValueError(f"unknown format {format!r}")
