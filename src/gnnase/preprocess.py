"""Signal cleansing and dataset augmentation.

Filtering is done entirely in the frequency domain: numpy's real FFT
(``rfft``) of each channel is scaled bin-wise by the Butterworth magnitude
response and inverted with ``irfft`` at the input length, which gives a
zero-phase low-pass without a time-domain pole/zero realization. The
response is real and even in frequency, so the one-sided spectrum carries
the whole filter.

Augmentation produces label-preserving variants of a recording through
circular time shifts, amplitude scaling, and additive Gaussian noise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    CutoffAboveNyquist,
    InvalidConfigValue,
    NegativeSigma,
    NonPositiveScale,
    ShiftTooLarge,
)
from .numerics import derive_seed, make_rng
from .simulate import CHANNEL_NAMES, Recording


@dataclass(frozen=True)
class FilterSpec:
    """Low-pass Butterworth magnitude response.

    Args:
        cutoff: -3 dB frequency f_c in Hz.
        order: Filter order n; controls roll-off steepness.
    """

    cutoff: float = 1000.0
    order: int = 4

    def __post_init__(self):
        if self.cutoff <= 0:
            raise InvalidConfigValue(f"cutoff must be positive, got {self.cutoff}")
        if self.order < 1:
            raise InvalidConfigValue(f"order must be >= 1, got {self.order}")

    def magnitude(self, frequencies: np.ndarray) -> np.ndarray:
        """|H(f)| = 1 / sqrt(1 + (f / f_c)^(2n)) at absolute frequencies."""
        ratio = np.abs(frequencies) / self.cutoff
        return 1.0 / np.sqrt(1.0 + ratio ** (2 * self.order))


@dataclass(frozen=True)
class AugmentationSpec:
    """One concrete augmentation: shift, scale, and noise level."""

    shift: int = 0
    scale: float = 1.0
    sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.scale <= 0:
            raise NonPositiveScale(f"scale must be positive, got {self.scale}")
        if self.sigma < 0:
            raise NegativeSigma(f"sigma must be >= 0, got {self.sigma}")


def butterworth_filter(signal, sample_rate: float, spec: FilterSpec) -> np.ndarray:
    """Zero-phase low-pass along the last axis: scale each rfft bin by |H(f)| and invert.

    Args:
        signal: Real array of shape (..., n); each row is filtered on its own.
        sample_rate: Sampling frequency in Hz.
        spec: Cutoff and order; cutoff must stay below Nyquist.

    Returns:
        Filtered signal, same shape as the input.

    Raises:
        CutoffAboveNyquist: If spec.cutoff >= sample_rate / 2.
    """
    if spec.cutoff >= sample_rate / 2:
        raise CutoffAboveNyquist(
            f"cutoff {spec.cutoff} Hz must stay below Nyquist {sample_rate / 2} Hz"
        )
    x = np.asarray(signal, dtype=float)
    n = x.shape[-1]
    gain = spec.magnitude(np.fft.rfftfreq(n, d=1.0 / sample_rate))
    # irfft needs n: an odd length cannot be told from the bin count alone.
    return np.fft.irfft(np.fft.rfft(x, axis=-1) * gain, n=n, axis=-1)


def time_shift(signal, shift: int) -> np.ndarray:
    """Circular shift: sample i of the output is input sample (i + shift) mod N.

    Raises:
        ShiftTooLarge: If |shift| >= len(signal).
    """
    signal = np.asarray(signal, dtype=float)
    if abs(shift) >= len(signal):
        raise ShiftTooLarge(f"|shift| {abs(shift)} must be below signal length {len(signal)}")
    return np.roll(signal, -shift)


def amplitude_scale(signal, scale: float) -> np.ndarray:
    """Multiply every sample by a positive factor.

    Raises:
        NonPositiveScale: If scale <= 0.
    """
    if scale <= 0:
        raise NonPositiveScale(f"scale must be positive, got {scale}")
    return np.asarray(signal, dtype=float) * scale


def add_noise(signal, sigma: float, seed: int) -> np.ndarray:
    """Add independent N(0, sigma^2) draws to every sample.

    Raises:
        NegativeSigma: If sigma < 0.
    """
    if sigma < 0:
        raise NegativeSigma(f"sigma must be >= 0, got {sigma}")
    signal = np.asarray(signal, dtype=float)
    if sigma == 0:
        return signal.copy()
    return signal + make_rng(seed).normal(0.0, sigma, size=len(signal))


def apply_augmentation(recording: Recording, spec: AugmentationSpec) -> Recording:
    """Shift, scale, and perturb every channel; the label is untouched.

    Noise sigma is interpreted per channel as ``spec.sigma * channel RMS``
    so current and vibration channels are corrupted proportionally.
    """
    channels = {}
    for i, key in enumerate(CHANNEL_NAMES):
        out = time_shift(recording.channels[key], spec.shift)
        out = amplitude_scale(out, spec.scale)
        rms = float(np.sqrt(np.mean(out**2)))
        out = add_noise(out, spec.sigma * rms, derive_seed(spec.seed, "noise", key))
        channels[key] = out
    return replace(recording, channels=channels, seed=spec.seed)


def augment_dataset(
    recordings: list[Recording],
    copies: int,
    seed: int,
    max_shift_fraction: float = 0.1,
    scale_range: tuple[float, float] = (0.8, 1.2),
    noise_fraction: float = 0.01,
) -> list[Recording]:
    """Append ``copies`` randomized variants of every recording.

    For each variant the shift is uniform over +/- max_shift_fraction of
    the length, the scale uniform over scale_range, and the noise sigma is
    noise_fraction of each channel's RMS. Originals are kept first, then
    the variants in recording order.

    Args:
        recordings: Source recordings; labels carry over to variants.
        copies: Number of variants per recording, >= 0.
        seed: Master seed; each variant draws from its own derived stream.

    Returns:
        Original list plus copies * len(recordings) new recordings.
    """
    if copies < 0:
        raise InvalidConfigValue(f"copies must be >= 0, got {copies}")
    out = list(recordings)
    for rec in recordings:
        n = rec.n_samples
        max_shift = int(max_shift_fraction * n)
        for c in range(copies):
            variant_seed = derive_seed(seed, "augment", rec.name, str(c))
            rng = make_rng(variant_seed)
            spec = AugmentationSpec(
                shift=int(rng.integers(-max_shift, max_shift + 1)),
                scale=float(rng.uniform(*scale_range)),
                sigma=noise_fraction,
                seed=variant_seed,
            )
            variant = apply_augmentation(rec, spec)
            variant.name = f"{rec.name}-aug{c}"
            out.append(variant)
    return out


def filter_recording(recording: Recording, spec: FilterSpec) -> Recording:
    """Apply the low-pass to all channels of a recording in one call.

    Raises:
        NonFinite: If any sample is NaN or infinite.
    """
    filtered = butterworth_filter(recording.stacked(), recording.sample_rate, spec)
    return replace(recording, channels=dict(zip(CHANNEL_NAMES, filtered)))
