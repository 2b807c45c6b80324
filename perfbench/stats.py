"""Percentiles, output digests and the environment record."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
from importlib.util import find_spec
from pathlib import Path

MIN_BEYOND = 10  # samples required beyond a reported tail percentile


def samples_needed(pct: float) -> int:
    """Fewest samples that leave MIN_BEYOND samples above percentile pct."""
    return math.ceil(round(MIN_BEYOND * 100 / (100 - pct), 9))


def percentile(samples, pct: float) -> float:
    """Nearest-rank percentile; refuses a tail with < MIN_BEYOND samples beyond it."""
    n = len(samples)
    if pct > 50 and n < samples_needed(pct):
        raise ValueError(f"p{pct:g} needs {samples_needed(pct)} samples, got {n}")
    if n == 0:
        raise ValueError("no samples")
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(pct * n / 100) - 1)]


class Digest:
    """sha256 over a stream of answers, floats fed as float.hex."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, value):
        if isinstance(value, float):
            text = value.hex()
        elif isinstance(value, (bytes, bytearray)):
            self._h.update(value)
            return
        else:
            text = repr(value)
        self._h.update(text.encode() + b"\n")

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def git_commit(root: Path):
    """The commit of a git checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = root / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(root: Path, workload: str, seed: int) -> dict:
    import numpy

    scipy_version = None
    if find_spec("scipy") is not None:
        import scipy

        scipy_version = scipy.__version__
    return {
        "workload": workload,
        "seed": seed,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "has_scipy": scipy_version is not None,
        "has_numba": find_spec("numba") is not None,
        "git_commit": git_commit(root),
    }
