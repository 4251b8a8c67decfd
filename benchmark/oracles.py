"""Checks of the program's outputs, computed apart from the program.

Each check raises ``CheckFailed`` with a reason. The features, filter,
spectrum and graph-convolution references here are written from their
definitions with ``np.fft.rfft`` and dense matrices; none is a saved copy
of an earlier output and none calls the code it checks.
"""

from __future__ import annotations

import math

import numpy as np

MIN_BEYOND = 10  # samples that must lie above a reported percentile


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, refused unless MIN_BEYOND samples lie above it.

    The q-th percentile of n sorted samples is the one at rank
    ceil(q / 100 * n); n - rank samples lie beyond it.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {n} samples has {n - rank} beyond it; {MIN_BEYOND} are needed"
        )
    return ordered[rank - 1]


# ---------------------------------------------------------------- features


def window_features(window: np.ndarray, sample_rate: float) -> np.ndarray:
    """Five features per channel of a (channels, samples) window.

    Channel-major: signed peak, rms, population variance, frequency of the
    largest non-DC rfft bin (lowest on ties), and the entropy in nats of
    the non-DC power spectrum normalized to sum to one.
    """
    window = np.asarray(window, dtype=float)
    n = window.shape[1]
    mags = np.abs(np.fft.rfft(window, axis=1))[:, 1:]
    freqs = np.arange(1, n // 2 + 1) * sample_rate / n
    out = []
    for channel, mag in zip(window, mags):
        power = mag**2
        p = power / power.sum()
        p = p[p > 0]
        out += [
            channel.max(),
            math.sqrt(np.mean(channel**2)),
            np.mean((channel - channel.mean()) ** 2),
            freqs[int(np.argmax(mag))],
            -float(np.sum(p * np.log(p))),
        ]
    return np.array(out)


def check_features(expected: np.ndarray, actual: np.ndarray, where: str) -> None:
    require(
        expected.shape == actual.shape and np.allclose(actual, expected, rtol=1e-7, atol=1e-9),
        f"{where}: features {actual} differ from the reference {expected}",
    )


# ------------------------------------------------------------------ filter


def butterworth_gain(freqs: np.ndarray, cutoff: float, order: int) -> np.ndarray:
    return 1.0 / np.sqrt(1.0 + (np.abs(freqs) / cutoff) ** (2 * order))


def check_filter(raw: np.ndarray, filtered: np.ndarray, sample_rate: float, cutoff: float, order: int):
    """The filtered spectrum is the raw spectrum times the Butterworth gain."""
    raw_spec = np.fft.rfft(raw)
    freqs = np.fft.rfftfreq(len(raw), d=1.0 / sample_rate)
    expected = raw_spec * butterworth_gain(freqs, cutoff, order)
    worst = float(np.max(np.abs(np.fft.rfft(filtered) - expected)))
    require(
        worst <= 1e-9 * float(np.max(np.abs(raw_spec))),
        f"filtered spectrum is off the gain curve by {worst:.3e}",
    )


def lowpass(signal: np.ndarray, sample_rate: float, cutoff: float, order: int) -> np.ndarray:
    freqs = np.fft.rfftfreq(len(signal), d=1.0 / sample_rate)
    gain = butterworth_gain(freqs, cutoff, order)
    return np.fft.irfft(np.fft.rfft(signal) * gain, n=len(signal))


# ---------------------------------------------------------------- spectrum


def tone_level(signal: np.ndarray, sample_rate: float, frequency: float) -> float:
    """rfft magnitude at the bin nearest ``frequency``."""
    n = len(signal)
    return float(np.abs(np.fft.rfft(signal))[int(round(frequency * n / sample_rate))])


def fault_tones(kind: str, supply: float, slip: float, pole_pairs: int, fv: float | None):
    """(channel, frequencies) of a fault's signature, from its formula."""
    if kind == "broken_bars":
        return "phase_a", [(1 - 2 * slip) * supply, (1 + 2 * slip) * supply]
    if kind == "eccentricity":
        rotor = supply * (1 - slip) / pole_pairs
        return "phase_a", [supply - rotor, supply + rotor]
    if kind == "bearing":
        return "vibration", sorted({abs(supply + sign * m * fv) for m in (1, 2, 3) for sign in (1, -1)})
    raise ValueError(f"no signature for {kind!r}")


# ------------------------------------------------------------------ graphs


def check_graph(nodes_x: np.ndarray, edges, n_samples: int, window_len: int, hop: int, k: int, where: str):
    """Node count, temporal chain, i < j, (1 + cos) / 2 weights, degree bound."""
    n = len(nodes_x)
    require(
        n == (n_samples - window_len) // hop + 1,
        f"{where}: {n} nodes, expected {(n_samples - window_len) // hop + 1}",
    )
    pairs = {(i, j) for i, j, _ in edges}
    require(len(pairs) == len(edges), f"{where}: repeated edge")
    require(all(i < j for i, j in pairs), f"{where}: an edge is not stored with i < j")
    require(
        all((i, i + 1) in pairs for i in range(n - 1)), f"{where}: the temporal chain is broken"
    )
    norms = np.linalg.norm(nodes_x, axis=1)
    degree = np.zeros(n, dtype=int)
    for i, j, w in edges:
        cos = float(nodes_x[i] @ nodes_x[j]) / (norms[i] * norms[j])
        require(abs(w - (1.0 + cos) / 2.0) <= 1e-12, f"{where}: edge ({i}, {j}) weight {w} != (1+cos)/2")
        degree[i] += 1
        degree[j] += 1
    require(int(degree.max()) <= 2 + 2 * k, f"{where}: degree {degree.max()} above 2 + 2k")


# -------------------------------------------------------------------- model


def dense_gcn(h: np.ndarray, n: int, edges, W: np.ndarray) -> np.ndarray:
    """relu(D^-1/2 (A + I) D^-1/2 h W) with a dense weighted adjacency."""
    A = np.eye(n)
    for i, j, w in edges:
        A[i, j] += w
        A[j, i] += w
    d = A.sum(axis=1)
    return np.maximum((A / np.sqrt(np.outer(d, d))) @ h @ W, 0.0)


def check_gradients(loss, params: dict, grads: dict, rng: np.random.Generator, per_tensor=3, h=1e-6):
    """Central differences of ``loss(params)`` on sampled coordinates of every tensor."""
    for name, tensor in params.items():
        for flat in rng.choice(tensor.size, size=min(per_tensor, tensor.size), replace=False):
            index = np.unravel_index(int(flat), tensor.shape)
            trial = {key: value.copy() for key, value in params.items()}
            trial[name][index] += h
            up = loss(trial)
            trial[name][index] -= 2 * h
            down = loss(trial)
            fd = (up - down) / (2 * h)
            analytic = float(grads[name][index])
            require(
                abs(fd - analytic) <= 1e-6 + 1e-4 * max(abs(fd), abs(analytic)),
                f"d loss / d {name}{[int(i) for i in index]}: analytic {analytic:.9g}, central difference {fd:.9g}",
            )
