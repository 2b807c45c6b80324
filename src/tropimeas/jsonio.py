"""JSON readers/writers for the file formats the CLI speaks.

One object per file.  Formats:

    space    {"points": ["a", "b"], "dist": [[0, 1], [1, 0]]}
    function {"values": {"a": 2.0, "b": 5.0}, "n": 1}
    map      {"assignment": {"a": "u", "b": "v"}, "target_space": ...?}
    measure  {"space": <inline object or path>, "atoms":
              [{"point": "a", "weight": 0.0}, ...]}   weight "-inf" dropped
    meta     {"space": ..., "atoms": [{"measure": {"atoms": [...]},
              "weight": w}, ...]}
    vector   {"z": [...]} or {"p": [...]}
    combine  {"space": ..., "pairs": [{"alpha": w, "measure":
              {"atoms": [...]}}, ...]}

A measure file's "space" may be a path (resolved relative to the file
that references it) or an inline space object.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .errors import TropimeasError
from .measure import IdempotentMeasure, MetaMeasure, canonicalize, meta_measure
from .metric import FiniteMetricSpace, PointMap, build_space
from .rmax import rmax_from_json


class BadInput(TropimeasError):
    """Malformed or unreadable input file."""


def _load(path) -> dict:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise BadInput(f"{path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise BadInput(f"{path}: expected a JSON object")
    return obj


def space_from_obj(obj, context: str = "space") -> FiniteMetricSpace:
    for key in ("points", "dist"):
        if key not in obj:
            raise BadInput(f"{context}: missing field {key!r}")
    return build_space(obj["points"], obj["dist"])


def load_space(path) -> FiniteMetricSpace:
    return space_from_obj(_load(path), str(path))


def _resolve_space(spec, base: Path, context: str) -> FiniteMetricSpace:
    if isinstance(spec, str):
        return load_space((base / spec) if not Path(spec).is_absolute() else spec)
    if isinstance(spec, dict):
        return space_from_obj(spec, context)
    raise BadInput(f"{context}: 'space' must be a path or an inline object")


def _weight(obj, context):
    if "weight" not in obj:
        raise BadInput(f"{context}: atom missing 'weight'")
    try:
        return rmax_from_json(obj["weight"])
    except (ValueError, TypeError) as exc:
        raise BadInput(f"{context}: {exc}") from exc


def _atoms(obj, context) -> list:
    atoms = obj.get("atoms") if isinstance(obj, dict) else None
    if not isinstance(atoms, list):
        raise BadInput(f"{context}: missing or malformed 'atoms'")
    for i, atom in enumerate(atoms):
        if not isinstance(atom, dict):
            raise BadInput(f"{context}: atom {i} must be an object, got {atom!r}")
    return atoms


def measure_from_obj(obj, space: FiniteMetricSpace, context: str,
                     normalize: bool) -> IdempotentMeasure:
    raw = []
    for i, atom in enumerate(_atoms(obj, context)):
        if not isinstance(atom.get("point"), str):
            raise BadInput(f"{context}: atom {i} needs a string 'point', "
                           f"got {atom.get('point')!r}")
        raw.append((atom["point"], _weight(atom, context)))
    return canonicalize(space, raw, normalize=normalize)


def load_measure(path, space: FiniteMetricSpace | None = None,
                 normalize: bool = True) -> IdempotentMeasure:
    obj = _load(path)
    base = Path(path).parent
    if space is None:
        if "space" not in obj:
            raise BadInput(f"{path}: missing 'space'")
        space = _resolve_space(obj["space"], base, str(path))
    return measure_from_obj(obj, space, str(path), normalize)


def load_meta_measure(path, space: FiniteMetricSpace | None = None,
                      normalize: bool = True) -> MetaMeasure:
    obj = _load(path)
    base = Path(path).parent
    if space is None:
        if "space" not in obj:
            raise BadInput(f"{path}: missing 'space'")
        space = _resolve_space(obj["space"], base, str(path))
    raw = [
        (measure_from_obj(a.get("measure", {}), space, str(path), normalize),
         _weight(a, str(path)))
        for a in _atoms(obj, str(path))
    ]
    return meta_measure(space, raw, normalize=normalize)


def load_function(path, space: FiniteMetricSpace):
    obj = _load(path)
    values = obj.get("values")
    if not isinstance(values, dict):
        raise BadInput(f"{path}: missing or malformed 'values'")
    n = obj.get("n", 1)
    return {str(k): float(v) for k, v in values.items()}, int(n)


def load_map(path, source: FiniteMetricSpace,
             target: FiniteMetricSpace | None = None) -> PointMap:
    obj = _load(path)
    assignment = obj.get("assignment")
    if not isinstance(assignment, dict):
        raise BadInput(f"{path}: missing or malformed 'assignment'")
    if target is None:
        if "target_space" in obj:
            target = _resolve_space(obj["target_space"], Path(path).parent, str(path))
        else:
            target = source
    try:
        images = tuple(assignment[p] for p in source.points)
    except KeyError as exc:
        raise BadInput(f"{path}: no image for point {exc.args[0]!r}") from exc
    return PointMap(source, target, images)


def load_vector(path, key: str):
    obj = _load(path)
    if key not in obj or not isinstance(obj[key], list):
        raise BadInput(f"{path}: missing or malformed {key!r}")
    return [float(x) for x in obj[key]]


# --- writers ---

def space_to_obj(space: FiniteMetricSpace) -> dict:
    return {"points": list(space.points), "dist": space.dist.tolist()}


def measure_to_obj(mu: IdempotentMeasure, inline_space: bool = True) -> dict:
    obj = {"atoms": [{"point": p, "weight": w} for p, w in mu.atoms]}
    if inline_space:
        obj["space"] = space_to_obj(mu.space)
    return obj


def meta_measure_to_obj(M: MetaMeasure) -> dict:
    return {
        "space": space_to_obj(M.space),
        "atoms": [
            {"measure": measure_to_obj(mu, inline_space=False), "weight": w}
            for mu, w in M.atoms
        ],
    }


def dump(obj, fh=None) -> str:
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    if fh is not None:
        fh.write(text + "\n")
    return text


def sanitize(value):
    """Recursively turn numpy scalars/containers into JSON-safe values."""
    if isinstance(value, dict):
        return {k: sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [sanitize(v) for v in value]
    if isinstance(value, (bool,)):
        return value
    if hasattr(value, "item"):
        value = value.item()
    if isinstance(value, float) and (math.isnan(value) or math.isinf(value)):
        return "-inf" if value == -math.inf else str(value)
    return value
