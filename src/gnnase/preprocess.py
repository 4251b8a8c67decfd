"""Signal cleansing.

Filtering is done entirely in the frequency domain: numpy's real FFT
(``rfft``) of each channel is scaled bin-wise by the Butterworth magnitude
response and inverted with ``irfft`` at the input length, which gives a
zero-phase low-pass without a time-domain pole/zero realization. The
response is real and even in frequency, so the one-sided spectrum carries
the whole filter.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import CutoffAboveNyquist, InvalidConfigValue
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


def filter_recording(recording: Recording, spec: FilterSpec) -> Recording:
    """Apply the low-pass to all channels of a recording in one call.

    Raises:
        NonFinite: If any sample is NaN or infinite.
    """
    filtered = butterworth_filter(recording.stacked(), recording.sample_rate, spec)
    return replace(recording, channels=dict(zip(CHANNEL_NAMES, filtered)))
