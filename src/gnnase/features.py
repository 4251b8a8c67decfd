"""Windowing and per-window feature extraction.

Each recording is sliced into fixed-length windows; every window yields
five features per channel, concatenated over channels in a fixed order:

* peak amplitude: the literal (signed) maximum sample,
* RMS,
* population variance,
* dominant frequency: argmax of the one-sided magnitude spectrum,
* spectral entropy of the normalized one-sided power spectrum, in nats.

The DC bin is excluded from both frequency features: the mean level says
nothing about a fault and would otherwise dominate the argmax. All windows
of a recording are featurized together, from one real FFT (``rfft``, which
computes only the one-sided bins) over the stacked
``(channels, windows, window_len)`` array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import EmptyWindow, InvalidConfigValue, NoSpectralContent, RecordingTooShort
from .simulate import CHANNEL_NAMES, Recording

TIME_FEATURES = ("peak", "rms", "variance")
FREQ_FEATURES = ("f_dom", "h_spec")
ALL_FEATURES = TIME_FEATURES + FREQ_FEATURES

SPECTRAL_FLOOR = 1e-12


@dataclass(frozen=True)
class WindowSpec:
    """Window length and hop, both in samples."""

    window_len: int = 2048
    hop: int = 1024

    def __post_init__(self):
        if self.window_len < 16:
            raise InvalidConfigValue(f"window_len must be >= 16, got {self.window_len}")
        if not 1 <= self.hop <= self.window_len:
            raise InvalidConfigValue(
                f"hop must lie in [1, window_len], got {self.hop} with window_len {self.window_len}"
            )

    def count(self, n_samples: int) -> int:
        """Number of windows a recording of this length yields."""
        if n_samples < self.window_len:
            raise RecordingTooShort(
                f"recording length {n_samples} is below window_len {self.window_len}"
            )
        return (n_samples - self.window_len) // self.hop + 1


def feature_names(include_frequency: bool = True) -> list[str]:
    """Column names in extraction order: channel-major, feature-minor."""
    kinds = ALL_FEATURES if include_frequency else TIME_FEATURES
    return [f"{ch}_{kind}" for ch in CHANNEL_NAMES for kind in kinds]


def window_features(windows, sample_rate: float, include_frequency: bool = True) -> np.ndarray:
    """Feature matrix of a stack of aligned windows, one real FFT for all of them.

    Every feature is a reduction along the last axis, so a window's row does
    not depend on which other windows share the call. Zero-power bins add
    nothing to the entropy (0 * log 0 = 0); ties in the dominant frequency go
    to the lowest bin.

    Args:
        windows: Array of shape (channels, windows, window_len).
        sample_rate: Sampling frequency in Hz.
        include_frequency: When False only the three time-domain features
            are computed.

    Returns:
        Array of shape (windows, 5 * channels), or (windows, 3 * channels)
        without frequency features, in ``feature_names`` order.

    Raises:
        NoSpectralContent: If every non-DC bin of some channel's window is
            below 1e-12 in magnitude.
    """
    windows = np.asarray(windows, dtype=float)
    columns = [
        np.max(windows, axis=-1),
        np.sqrt(np.mean(windows**2, axis=-1)),
        np.var(windows, axis=-1),
    ]
    if include_frequency:
        n = windows.shape[-1]
        # One-sided magnitudes without DC; bin 0 carries the window mean, not fault content.
        mags = np.abs(np.fft.rfft(windows, axis=-1))[..., 1:]
        if np.any(np.all(mags <= SPECTRAL_FLOOR, axis=-1)):
            raise NoSpectralContent("all non-DC bins are below the magnitude floor")
        freqs = np.arange(n // 2 + 1) * sample_rate / n
        columns.append(freqs[1:][np.argmax(mags, axis=-1)])
        power = mags**2
        p = power / np.sum(power, axis=-1, keepdims=True)
        columns.append(-np.sum(p * np.log(p, out=np.zeros_like(p), where=p > 0.0), axis=-1))
    # (channels, windows, features) -> (windows, channels * features).
    return np.stack(columns, axis=-1).transpose(1, 0, 2).reshape(windows.shape[1], -1)


def extract_windows(
    recording: Recording,
    spec: WindowSpec,
    include_frequency: bool = True,
) -> np.recarray:
    """Slice a recording into windows and featurize each one.

    Windows start at multiples of the hop; trailing samples that do not
    fill a whole window are dropped, so the count is
    ``(L - window_len) // hop + 1``.

    Args:
        recording: Multi-channel source signal.
        spec: Window length and hop.
        include_frequency: When False only the three time-domain features
            are kept, giving d = 3 * channel_count.

    Returns:
        One record per window in temporal order: ``[w].x`` is window w's
        features, ``.x`` the (windows, features) matrix itself, not a copy.

    Raises:
        RecordingTooShort: If the recording is shorter than one window.
    """
    spec.count(recording.n_samples)  # raises RecordingTooShort
    windows = sliding_window_view(recording.signals, spec.window_len, axis=-1)[:, :: spec.hop]
    matrix = window_features(windows, recording.sample_rate, include_frequency)
    return matrix.view([("x", matrix.dtype, matrix.shape[1:])])[:, 0].view(np.recarray)


@dataclass
class Standardizer:
    """Per-dimension zero-mean unit-variance scaling.

    Statistics must come from the training split only; apply the fitted
    transform unchanged to validation and test features.
    """

    mean: np.ndarray
    std: np.ndarray

    STD_FLOOR = 1e-12

    @classmethod
    def fit(cls, rows) -> "Standardizer":
        """Per-column mean and floored deviation of the training rows.

        Args:
            rows: The training split's (windows, features) matrix, or a
                list of feature vectors.

        Raises:
            EmptyWindow: If there are no rows.
        """
        if len(rows) == 0:
            raise EmptyWindow("cannot fit a standardizer on zero vectors")
        rows = np.asarray(rows, dtype=float)
        std = np.std(rows, axis=0)
        return cls(mean=np.mean(rows, axis=0), std=np.maximum(std, cls.STD_FLOOR))

    def transform(self, x: np.ndarray) -> np.ndarray:
        return (x - self.mean) / self.std

    def to_json(self) -> dict:
        return {"mean": [float(v) for v in self.mean], "std": [float(v) for v in self.std]}

    @classmethod
    def from_json(cls, blob: dict) -> "Standardizer":
        return cls(mean=np.array(blob["mean"], dtype=float), std=np.array(blob["std"], dtype=float))
