"""Instance file I/O and seeded synthetic generation.

Instance files are JSON documents with keys ``n``, ``r``, ``a``, ``b``,
exactly one of ``M`` (row-major) or ``M_factor`` (lower-triangular F with
M = F F'), and ``integer_indices`` (1-based). ``name``, ``seed`` and ``rng``
are optional metadata. Numbers are written with Python's shortest
round-tripping repr, so emit/parse/emit is byte-identical.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .model import MeanRiskInstance

__all__ = [
    "RNG_ALGORITHM",
    "generate_instance",
    "instance_to_dict",
    "instance_from_dict",
    "dumps_instance",
    "loads_instance",
    "save_instance",
    "load_instance",
]

RNG_ALGORITHM = "numpy-pcg64"

_KNOWN_KEYS = {"n", "r", "a", "b", "M", "M_factor", "integer_indices", "name", "seed", "rng"}


def generate_instance(
    n: int,
    integer_fraction: float = 0.5,
    budget_multiplier: float = 1.0,
    seed: int = 0,
    name: str | None = None,
) -> MeanRiskInstance:
    """Random instance with factor-plus-diagonal covariance, PD by construction.

    Deterministic in ``seed`` through the PCG64 generator. Returns are
    U(0.001, 0.01), prices U(1, 100), the budget is ``budget_multiplier``
    times the total price, and the first floor(integer_fraction * n)
    variables are integer-constrained.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0.0 <= integer_fraction <= 1.0:
        raise ValueError("integer fraction must lie in [0, 1]")
    if budget_multiplier <= 0.0:
        raise ValueError("budget multiplier must be positive")
    rng = np.random.Generator(np.random.PCG64(seed))
    k = max(1, n // 10)
    factor = rng.standard_normal((n, k))
    M = factor @ factor.T + np.diag(rng.uniform(0.01, 0.1, size=n))
    r = rng.uniform(0.001, 0.01, size=n)
    a = rng.uniform(1.0, 100.0, size=n)
    if name is None:
        name = f"synth-n{n}-seed{seed}"
    return MeanRiskInstance(
        r=r,
        a=a,
        b=budget_multiplier * float(a.sum()),
        M=M,
        integer_set=tuple(range(int(math.floor(integer_fraction * n)))),
        name=name,
    )


def instance_to_dict(inst: MeanRiskInstance, seed: int | None = None) -> dict:
    doc = {
        "n": inst.n,
        "r": [float(v) for v in inst.r],
        "a": [float(v) for v in inst.a],
        "b": inst.b,
        "M": [[float(v) for v in row] for row in inst.M],
        "integer_indices": [i + 1 for i in inst.integer_set],
        "name": inst.name,
    }
    if seed is not None:
        doc["seed"] = int(seed)
        doc["rng"] = RNG_ALGORITHM
    return doc


def _read(doc: dict, key: str, convert, what: str):
    """``convert(doc[key])``, or a ValueError naming the key."""
    try:
        return convert(doc[key])
    except (TypeError, ValueError):
        raise ValueError(f"instance key {key!r} must be {what}") from None


def _floats(value) -> np.ndarray:
    return np.asarray(value, dtype=float)


def _integer(value) -> int:
    """A JSON integer as is; a float (even 3.0) or a bool is an error."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError
    return value


def instance_from_dict(doc: dict) -> MeanRiskInstance:
    if not isinstance(doc, dict):
        raise ValueError("instance document must be a JSON object")
    unknown = set(doc) - _KNOWN_KEYS
    if unknown:
        raise ValueError(f"unknown instance keys: {sorted(unknown)}")
    for key in ("n", "r", "a", "b", "integer_indices"):
        if key not in doc:
            raise ValueError(f"instance document is missing {key!r}")
    n = _read(doc, "n", _integer, "an integer")
    r = _read(doc, "r", _floats, "a list of numbers")
    a = _read(doc, "a", _floats, "a list of numbers")
    if r.shape != (n,) or a.shape != (n,):
        raise ValueError("lengths of r and a must equal n")
    if ("M" in doc) == ("M_factor" in doc):
        raise ValueError("exactly one of 'M' and 'M_factor' must be present")
    if "M" in doc:
        M = _read(doc, "M", _floats, "a matrix of numbers")
        if M.shape != (n, n):
            raise ValueError("M must be an n-by-n matrix")
    else:
        factor = _read(doc, "M_factor", _floats, "a matrix of numbers")
        if factor.shape != (n, n):
            raise ValueError("M_factor must be an n-by-n matrix")
        if np.any(np.triu(factor, 1) != 0.0):
            raise ValueError("M_factor must be lower-triangular")
        M = factor @ factor.T
    idx = _read(doc, "integer_indices", lambda v: [_integer(i) for i in v], "a list of integers")
    if any(not 1 <= i <= n for i in idx):
        raise ValueError("integer_indices must be 1-based indices in [1, n]")
    return MeanRiskInstance(
        r=r,
        a=a,
        b=_read(doc, "b", float, "a number"),
        M=M,
        integer_set=tuple(i - 1 for i in idx),
        name=str(doc.get("name", "")),
    )


def dumps_instance(inst: MeanRiskInstance, seed: int | None = None) -> str:
    return json.dumps(instance_to_dict(inst, seed=seed), indent=2, sort_keys=True) + "\n"


def loads_instance(text: str) -> MeanRiskInstance:
    return instance_from_dict(json.loads(text))


def save_instance(inst: MeanRiskInstance, path, seed: int | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_instance(inst, seed=seed))


def load_instance(path) -> MeanRiskInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_dict(json.load(fh))
