"""Windowing and per-window feature extraction.

Each recording is sliced into fixed-length windows; every window yields
five features per channel, concatenated over channels in a fixed order:

* peak amplitude: the literal (signed) maximum sample,
* RMS,
* population variance,
* dominant frequency: argmax of the one-sided magnitude spectrum,
* spectral entropy of the normalized one-sided power spectrum, in nats.

The DC bin is excluded from both frequency features: the mean level says
nothing about a fault and would otherwise dominate the argmax.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyWindow,
    InvalidConfigValue,
    NoSpectralContent,
    RecordingTooShort,
    ZeroPower,
)
from .numerics import dft
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


@dataclass(frozen=True)
class WindowFeatures:
    """Feature vector of one window plus its provenance."""

    x: np.ndarray
    window_index: int
    source: str


def peak_amplitude(window) -> float:
    """Maximum sample value of the window.

    This is the literal signed maximum, so an all-negative window has a
    negative peak.

    Raises:
        EmptyWindow: If the window has no samples.
    """
    window = np.asarray(window, dtype=float)
    if window.size == 0:
        raise EmptyWindow("peak_amplitude needs at least one sample")
    return float(np.max(window))


def rms(window) -> float:
    """Root of the mean squared sample value.

    Raises:
        EmptyWindow: If the window has no samples.
    """
    window = np.asarray(window, dtype=float)
    if window.size == 0:
        raise EmptyWindow("rms needs at least one sample")
    return float(np.sqrt(np.mean(window**2)))


def variance(window) -> float:
    """Population variance (sum of squared deviations over T, not T-1).

    Raises:
        EmptyWindow: If the window has no samples.
    """
    window = np.asarray(window, dtype=float)
    if window.size == 0:
        raise EmptyWindow("variance needs at least one sample")
    return float(np.var(window))


def _one_sided_magnitudes(window, sample_rate: float):
    spectrum = dft(window, sample_rate).to_one_sided()
    freqs = spectrum.frequencies()
    mags = np.abs(spectrum.bins)
    # Drop DC; bin 0 carries the window mean, not fault content.
    return freqs[1:], mags[1:]


def dominant_frequency(window, sample_rate: float) -> float:
    """Frequency of the strongest non-DC bin; ties go to the lowest bin.

    Raises:
        NoSpectralContent: If every non-DC bin is below 1e-12 in magnitude.
    """
    window = np.asarray(window, dtype=float)
    if window.size < 4:
        raise EmptyWindow(f"dominant_frequency needs at least 4 samples, got {window.size}")
    freqs, mags = _one_sided_magnitudes(window, sample_rate)
    if np.all(mags <= SPECTRAL_FLOOR):
        raise NoSpectralContent("all non-DC bins are below the magnitude floor")
    return float(freqs[int(np.argmax(mags))])


def spectral_entropy(window, sample_rate: float = 1.0) -> float:
    """Shannon entropy of the normalized one-sided power spectrum, in nats.

    P(f_i) = |S(f_i)|^2 / sum_j |S(f_j)|^2 over non-DC bins; zero-power
    bins contribute nothing (0 * log 0 = 0).

    Raises:
        ZeroPower: If the total non-DC power is zero.
    """
    window = np.asarray(window, dtype=float)
    if window.size < 4:
        raise EmptyWindow(f"spectral_entropy needs at least 4 samples, got {window.size}")
    _, mags = _one_sided_magnitudes(window, sample_rate)
    power = mags**2
    total = float(np.sum(power))
    if total <= 0.0:
        raise ZeroPower("one-sided spectrum carries no power outside DC")
    p = power / total
    nonzero = p[p > 0.0]
    return float(-np.sum(nonzero * np.log(nonzero)))


def feature_names(channels=CHANNEL_NAMES, include_frequency: bool = True) -> list[str]:
    """Column names in extraction order: channel-major, feature-minor."""
    kinds = ALL_FEATURES if include_frequency else TIME_FEATURES
    return [f"{ch}_{kind}" for ch in channels for kind in kinds]


def window_vector(
    windows: dict[str, np.ndarray],
    sample_rate: float,
    include_frequency: bool = True,
) -> np.ndarray:
    """Concatenated features over channels for one aligned window set."""
    parts = []
    for key in CHANNEL_NAMES:
        w = windows[key]
        parts.extend([peak_amplitude(w), rms(w), variance(w)])
        if include_frequency:
            parts.extend([dominant_frequency(w, sample_rate), spectral_entropy(w, sample_rate)])
    return np.array(parts, dtype=float)


def extract_windows(
    recording: Recording,
    spec: WindowSpec,
    include_frequency: bool = True,
) -> list[WindowFeatures]:
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
        One WindowFeatures per window, in temporal order.

    Raises:
        RecordingTooShort: If the recording is shorter than one window.
    """
    n_windows = spec.count(recording.n_samples)
    out = []
    for w in range(n_windows):
        start = w * spec.hop
        sliced = {
            key: sig[start : start + spec.window_len] for key, sig in recording.channels.items()
        }
        x = window_vector(sliced, recording.sample_rate, include_frequency)
        out.append(WindowFeatures(x=x, window_index=w, source=recording.name))
    return out


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
    def fit(cls, vectors: list[np.ndarray]) -> "Standardizer":
        if not vectors:
            raise EmptyWindow("cannot fit a standardizer on zero vectors")
        stacked = np.stack(vectors)
        std = np.std(stacked, axis=0)
        return cls(mean=np.mean(stacked, axis=0), std=np.maximum(std, cls.STD_FLOOR))

    def transform(self, x: np.ndarray) -> np.ndarray:
        return (x - self.mean) / self.std

    def to_json(self) -> dict:
        return {"mean": [float(v) for v in self.mean], "std": [float(v) for v in self.std]}

    @classmethod
    def from_json(cls, blob: dict) -> "Standardizer":
        return cls(mean=np.array(blob["mean"], dtype=float), std=np.array(blob["std"], dtype=float))
