"""JSON readers/writers for the file formats the CLI speaks.

One object per file.  Formats:

    space    {"points": ["a", "b"], "dist": [[0, 1], [1, 0]]}
    function {"values": {"a": 2.0, "b": 5.0}}
    map      {"assignment": {"a": "u", "b": "v"}, "target_space": ...?}
    measure  {"space": <inline object or path>, "atoms":
              [{"point": "a", "weight": 0.0}, ...]}   weight "-inf" dropped
    meta     {"space": ..., "atoms": [{"measure": {"atoms": [...]},
              "weight": w}, ...]}
    vector   {"z": [...]} or {"p": [...]}
    combine  {"space": ..., "pairs": [{"alpha": w, "measure":
              {"atoms": [...]}}, ...]}   read by load_combine

A file's "space" (and a map's "target_space") may be a path, resolved
relative to the file that references it, or an inline space object.
Labels must be strings and numbers JSON numbers (weights and alphas may
also be "-inf"); anything else raises BadInput.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .errors import TropimeasError
from .measure import IdempotentMeasure, MetaMeasure, canonicalize, meta_measure
from .metric import FiniteMetricSpace, PointMap, build_space
from .rmax import BOTTOM, as_float


class BadInput(TropimeasError):
    """Malformed or unreadable input file."""


def _load(path) -> dict:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad UTF-8, JSON or int literal
        raise BadInput(f"{path}: {exc}") from exc
    except RecursionError:
        raise BadInput(f"{path}: JSON nested too deeply") from None
    if not isinstance(obj, dict):
        raise BadInput(f"{path}: expected a JSON object")
    return obj


def _number(x, context: str) -> float:
    """A JSON number as a float (bools and out-of-range integers refused)."""
    if type(x) not in (int, float):
        raise BadInput(f"{context}: expected a number, got {x!r}")
    try:
        return float(x)
    except OverflowError:
        raise BadInput(f"{context}: number out of range") from None


def _scalar(x, context: str) -> float:
    """A max-plus scalar: a JSON number or "-inf", the form `sanitize` gives bottom."""
    if isinstance(x, str):
        if x == "-inf":
            return BOTTOM
        raise BadInput(f"{context}: unrecognized scalar string {x!r}")
    try:
        return as_float(_number(x, context))
    except ValueError as exc:
        raise BadInput(f"{context}: {exc}") from exc


def _label(x, context: str) -> str:
    if not isinstance(x, str):
        raise BadInput(f"{context}: expected a string label, got {x!r}")
    return x


def _list(obj, key: str, context: str) -> list:
    value = obj.get(key) if isinstance(obj, dict) else None
    if not isinstance(value, list):
        raise BadInput(f"{context}: missing or malformed {key!r}")
    return value


def space_from_obj(obj, context: str = "space") -> FiniteMetricSpace:
    points = [_label(p, f"{context}: points") for p in _list(obj, "points", context)]
    rows = _list(obj, "dist", context)
    if not all(isinstance(row, list) for row in rows):
        raise BadInput(f"{context}: 'dist' must be a list of rows")
    if len({len(row) for row in rows}) > 1:  # ragged: name a row of the wrong length
        i = next(i for i, row in enumerate(rows) if len(row) != len(points))
        raise BadInput(f"{context}: dist row {i} has {len(rows[i])} entries, "
                       f"expected {len(points)}")
    where = f"{context}: dist"
    return build_space(points, [[_number(x, where) for x in row] for row in rows])


def load_space(path) -> FiniteMetricSpace:
    return space_from_obj(_load(path), str(path))


def _file_space(obj, path, key: str = "space") -> FiniteMetricSpace:
    """The space a file names under `key`: a path relative to the file, or
    an inline object."""
    spec = obj.get(key)
    if isinstance(spec, str):
        return load_space(Path(path).parent / spec)
    if isinstance(spec, dict):
        return space_from_obj(spec, str(path))
    raise BadInput(f"{path}: {key!r} must be a path or an inline object")


def _weight(obj, context):
    if "weight" not in obj:
        raise BadInput(f"{context}: atom missing 'weight'")
    return _scalar(obj["weight"], f"{context}: weight")


def _atoms(obj, context) -> list:
    atoms = _list(obj, "atoms", context)
    for i, atom in enumerate(atoms):
        if not isinstance(atom, dict):
            raise BadInput(f"{context}: atom {i} must be an object, got {atom!r}")
    return atoms


def measure_from_obj(obj, space: FiniteMetricSpace, context: str) -> IdempotentMeasure:
    raw = [(_label(atom.get("point"), f"{context}: atom {i} point"),
            _weight(atom, context))
           for i, atom in enumerate(_atoms(obj, context))]
    return canonicalize(space, raw, normalize=True)


def load_measure(path) -> IdempotentMeasure:
    """A measure file on its own space, normalized."""
    obj = _load(path)
    return measure_from_obj(obj, _file_space(obj, path), str(path))


def load_meta_measure(path) -> MetaMeasure:
    obj = _load(path)
    space = _file_space(obj, path)
    raw = [
        (measure_from_obj(a.get("measure", {}), space, str(path)),
         _weight(a, str(path)))
        for a in _atoms(obj, str(path))
    ]
    return meta_measure(space, raw, normalize=True)


def load_combine(path) -> list:
    """A combine file as the (alpha, measure) pairs `combine` takes."""
    obj = _load(path)
    space = _file_space(obj, path)
    pairs = _list(obj, "pairs", str(path))
    if not all(isinstance(p, dict) for p in pairs):
        raise BadInput(f"{path}: each of 'pairs' must be an object")
    return [(_scalar(p.get("alpha", 0.0), f"{path}: alpha"),
             measure_from_obj(p.get("measure", {}), space, str(path)))
            for p in pairs]


def load_function(path) -> dict:
    """A function file as {point: value}."""
    obj = _load(path)
    values = obj.get("values")
    if not isinstance(values, dict):
        raise BadInput(f"{path}: missing or malformed 'values'")
    return {k: _number(v, f"{path}: value at {k!r}") for k, v in values.items()}


def load_map(path, source: FiniteMetricSpace) -> PointMap:
    """A point map from `source` to the file's "target_space" (default:
    `source` itself)."""
    obj = _load(path)
    assignment = obj.get("assignment")
    if not isinstance(assignment, dict):
        raise BadInput(f"{path}: missing or malformed 'assignment'")
    target = _file_space(obj, path, "target_space") if "target_space" in obj else source
    try:
        images = tuple(_label(assignment[p], f"{path}: image of {p!r}")
                       for p in source.points)
    except KeyError as exc:
        raise BadInput(f"{path}: no image for point {exc.args[0]!r}") from exc
    return PointMap(source, target, images)


def load_vector(path, key: str) -> list:
    obj = _load(path)
    return [_number(x, f"{path}: {key}") for x in _list(obj, key, str(path))]


# --- writers ---

def space_to_obj(space: FiniteMetricSpace) -> dict:
    return {"points": list(space.points), "dist": space.dist.tolist()}


def measure_to_obj(mu: IdempotentMeasure, inline_space: bool = True) -> dict:
    obj = {"atoms": [{"point": p, "weight": w} for p, w in mu.atoms]}
    if inline_space:
        obj["space"] = space_to_obj(mu.space)
    return obj


def dump(obj, fh=None) -> str:
    """The one JSON writer: sanitize(obj) as text, also written to `fh` if given."""
    text = json.dumps(sanitize(obj), indent=2, sort_keys=True, allow_nan=False)
    if fh is not None:
        fh.write(text + "\n")
    return text


def sanitize(value):
    """A writer's Python value (numpy results converted first) in JSON form:
    tuples become lists, a float that is not finite its str ("-inf", "nan");
    idempotent, so a value sanitized twice writes the same bytes."""
    if isinstance(value, dict):
        return {k: sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [sanitize(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    return value
