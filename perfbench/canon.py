"""Canonical rendering of lab results, and the digests frozen from them.

Every op result is rendered to JSON with exact "p/q" strings for rationals,
enum values for enums, sorted keys and sorted sets, then hashed.  The same
result always gives the same digest, so a digest that differs from the frozen
one means the lab computed something else.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from fractions import Fraction


def canonical(obj):
    """A JSON-ready form of a lab result with no float and no unordered container."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, enum.Enum):
        return obj.value
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: canonical(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
            if not f.name.startswith("_") and not callable(getattr(obj, f.name))
        }
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in obj.items()}
    if isinstance(obj, (set, frozenset)):
        return sorted((canonical(v) for v in obj), key=_sort_key)
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    raise TypeError(f"no canonical form for {type(obj).__name__}")


def _sort_key(v) -> str:
    return json.dumps(v, sort_keys=True)


def digest(result) -> str:
    text = json.dumps(canonical(result), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def spec_key(spec: tuple) -> str:
    return "|".join(str(part) for part in spec)


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}
