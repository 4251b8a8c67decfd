"""Numerical kernel shared by the whole pipeline.

Provides the counter-based seeded random generator that makes dataset
synthesis bit-reproducible, and houses the central-difference gradient
checker used to validate every analytic gradient in the model.
"""

from __future__ import annotations

import hashlib
from typing import Callable

import numpy as np

from .errors import NonFinite


def finite_diff_grad(
    f: Callable[[np.ndarray], float], x: np.ndarray, h: float = 1e-5
) -> np.ndarray:
    """Central-difference gradient of a scalar function of a matrix.

    The independent oracle for every analytic gradient in the model: each
    entry is (f(x + h*e_ij) - f(x - h*e_ij)) / (2h).

    Raises:
        NonFinite: If any function evaluation returns NaN or infinity.
    """
    if h <= 0:
        raise ValueError(f"step size must be > 0, got {h}")
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + h
        f_plus = float(f(x))
        x[idx] = orig - h
        f_minus = float(f(x))
        x[idx] = orig
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise NonFinite(f"function evaluated to a non-finite value at {idx}")
        grad[idx] = (f_plus - f_minus) / (2.0 * h)
        it.iternext()
    return grad


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator (Philox) fully specified by its seed.

    Identical seeds produce identical streams on every platform, which is
    the reproducibility contract for dataset synthesis, split shuffling,
    parameter initialization, and dropout.
    """
    return np.random.Generator(np.random.Philox(key=np.uint64(seed & 0xFFFFFFFFFFFFFFFF)))


def derive_seed(master: int, *labels: object) -> int:
    """Fan a master seed out to an independent child seed.

    Children are the first 8 bytes of SHA-256 over "master:label[:label...]",
    so any number of named streams can be derived without collisions and the
    derivation is stable across runs and platforms.
    """
    text = ":".join([str(int(master))] + [str(lbl) for lbl in labels])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & 0x7FFFFFFFFFFFFFFF
