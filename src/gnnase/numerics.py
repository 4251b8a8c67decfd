"""Numerical kernel shared by the whole pipeline.

Wraps the discrete Fourier transform (64-bit throughout), provides the
counter-based seeded random generator that makes dataset synthesis
bit-reproducible, and houses the central-difference gradient checker used
to validate every analytic gradient in the model.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import AsymmetricSpectrum, EmptySignal, NonFinite, ShapeMismatch


@dataclass(frozen=True)
class ComplexSpectrum:
    """Discrete Fourier transform of a real signal.

    Attributes:
        bins: Complex DFT coefficients. Length n for a two-sided spectrum,
            n // 2 + 1 when ``one_sided`` is set.
        sample_rate: Sampling frequency of the original signal in Hz.
        n: Original sample count.
        one_sided: Whether ``bins`` holds only the nonnegative frequencies.
    """

    bins: np.ndarray
    sample_rate: float
    n: int
    one_sided: bool = False

    def __post_init__(self):
        expected = self.n // 2 + 1 if self.one_sided else self.n
        if len(self.bins) != expected:
            raise ShapeMismatch(
                f"spectrum has {len(self.bins)} bins, expected {expected}"
            )
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be > 0, got {self.sample_rate}")

    def frequencies(self) -> np.ndarray:
        """Frequency in Hz of each bin (negative half unwrapped for two-sided)."""
        if self.one_sided:
            return np.arange(self.n // 2 + 1) * self.sample_rate / self.n
        return np.fft.fftfreq(self.n, d=1.0 / self.sample_rate)

    def to_one_sided(self) -> "ComplexSpectrum":
        if self.one_sided:
            return self
        return ComplexSpectrum(
            bins=self.bins[: self.n // 2 + 1].copy(),
            sample_rate=self.sample_rate,
            n=self.n,
            one_sided=True,
        )


def dft(signal: np.ndarray, sample_rate: float) -> ComplexSpectrum:
    """Two-sided DFT: bin k equals sum_n x_n * exp(-2*pi*i*k*n/N).

    Args:
        signal: Real sequence, length >= 2, all entries finite.
        sample_rate: Sampling frequency in Hz.

    Raises:
        EmptySignal: If the signal has fewer than 2 samples.
        NonFinite: If any sample is NaN or infinite.
    """
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1 or len(x) < 2:
        raise EmptySignal(f"signal must be a 1-D sequence of length >= 2, got length {x.size}")
    if not np.all(np.isfinite(x)):
        raise NonFinite("signal contains NaN or infinite samples")
    return ComplexSpectrum(bins=np.fft.fft(x), sample_rate=float(sample_rate), n=len(x))


def inverse_dft(spectrum: ComplexSpectrum, tol: float = 1e-9) -> np.ndarray:
    """Inverse DFT of a conjugate-symmetric two-sided spectrum.

    Args:
        spectrum: Two-sided transform of a real signal.
        tol: Allowed conjugate-symmetry violation, relative to the largest
            bin magnitude (floor 1.0).

    Returns:
        The length-n real sequence whose DFT is ``spectrum``.

    Raises:
        AsymmetricSpectrum: If conjugate symmetry is violated beyond ``tol``.
    """
    if spectrum.one_sided:
        raise AsymmetricSpectrum("inverse_dft requires a two-sided spectrum")
    bins = spectrum.bins
    mirrored = np.conj(bins[(-np.arange(spectrum.n)) % spectrum.n])
    scale = max(1.0, float(np.max(np.abs(bins))))
    worst = float(np.max(np.abs(bins - mirrored)))
    if worst > tol * scale:
        raise AsymmetricSpectrum(
            f"spectrum violates conjugate symmetry by {worst:.3e} (tol {tol * scale:.3e})"
        )
    return np.fft.ifft(bins).real


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
    the reproducibility contract for dataset synthesis, augmentation,
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
