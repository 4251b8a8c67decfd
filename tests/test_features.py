"""Tests for window features."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnnase import features, preprocess, simulate
from gnnase.errors import InvalidConfigValue, NoSpectralContent, RecordingTooShort
from gnnase.numerics import make_rng


def sine(freq, sample_rate, duration, amplitude=1.0):
    t = np.arange(round(sample_rate * duration)) / sample_rate
    return amplitude * np.sin(2 * np.pi * freq * t)


def feats(window, sample_rate=1.0, include_frequency=True):
    """Named features of one single-channel window, through window_features."""
    window = np.asarray(window, dtype=float)[None, None, :]
    row = features.window_features(window, sample_rate, include_frequency)[0]
    kinds = features.ALL_FEATURES if include_frequency else features.TIME_FEATURES
    return dict(zip(kinds, row))


def peak(window):
    return feats(window, include_frequency=False)["peak"]


def rms(window):
    return feats(window, include_frequency=False)["rms"]


def variance(window):
    return feats(window, include_frequency=False)["variance"]


def dominant_frequency(window, sample_rate):
    return feats(window, sample_rate)["f_dom"]


def spectral_entropy(window, sample_rate=1.0):
    return feats(window, sample_rate)["h_spec"]


class TestPeakAmplitude:
    def test_constant(self):
        assert peak([2.5, 2.5, 2.5]) == 2.5

    def test_unit_sine_hits_crest(self):
        # 10000 samples over one period: sample 2500 sits exactly on the crest.
        x = sine(1.0, 10_000.0, 1.0)
        assert peak(x) == pytest.approx(1.0, abs=1e-6)

    def test_all_negative_window_keeps_sign(self):
        assert peak([-3.0, -1.0, -2.0]) == -1.0


class TestRms:
    def test_constant_gives_magnitude(self):
        assert rms([-2.0, -2.0]) == 2.0

    def test_unit_sine_whole_periods(self):
        x = sine(5.0, 1000.0, 1.0)
        assert rms(x) == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-9)

    def test_hand_arithmetic(self):
        assert rms([3.0, 4.0]) == pytest.approx(np.sqrt(12.5))


class TestVariance:
    def test_constant_is_zero(self):
        assert variance([7.0, 7.0, 7.0]) == 0.0

    def test_hand_arithmetic(self):
        assert variance([1.0, 2.0, 3.0, 4.0]) == pytest.approx(1.25)

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30, deadline=None)
    def test_identity_with_rms_and_mean(self, seed):
        x = make_rng(seed).normal(size=64)
        lhs = variance(x)
        rhs = rms(x) ** 2 - float(np.mean(x)) ** 2
        assert abs(lhs - rhs) < 1e-12


class TestDominantFrequency:
    def test_bin_aligned_tone(self):
        assert dominant_frequency(sine(50.0, 1000.0, 1.0), 1000.0) == 50.0

    def test_constant_has_no_content(self):
        with pytest.raises(NoSpectralContent):
            dominant_frequency(np.full(64, 3.0), 64.0)

    def test_larger_component_wins(self):
        x = sine(50.0, 1000.0, 1.0, 1.0) + sine(120.0, 1000.0, 1.0, 0.3)
        assert dominant_frequency(x, 1000.0) == 50.0

    def test_tie_breaks_low(self):
        # Impulse spectrum is exactly flat, so every non-DC bin ties.
        assert dominant_frequency([2.0, 0.0, 0.0, 0.0], 4.0) == 1.0

    def test_dc_excluded(self):
        x = sine(50.0, 1000.0, 1.0) + 100.0
        assert dominant_frequency(x, 1000.0) == 50.0


class TestSpectralEntropy:
    def test_pure_tone_is_zero(self):
        assert spectral_entropy(sine(50.0, 1000.0, 1.0)) == pytest.approx(0.0, abs=1e-9)

    def test_two_equal_bins_give_ln2(self):
        # Impulse of length 4: one-sided non-DC bins carry equal power.
        assert spectral_entropy([2.0, 0.0, 0.0, 0.0]) == pytest.approx(np.log(2.0))

    def test_white_noise_near_uniform(self):
        x = make_rng(17).normal(size=1024)
        h = spectral_entropy(x)
        assert abs(h - np.log(512.0)) <= 0.15 * np.log(512.0)

    def test_zero_signal_rejected(self):
        with pytest.raises(NoSpectralContent):
            spectral_entropy(np.zeros(16))


class TestWindowFeatures:
    def test_columns_channel_major(self):
        tone = sine(50.0, 1000.0, 1.0)
        windows = np.stack([tone, 2.0 * tone])[:, None, :]
        row = features.window_features(windows, 1000.0)[0]
        assert row.shape == (10,)
        assert row[5] == pytest.approx(2.0 * row[0]) and row[8] == row[3] == 50.0

    def test_odd_window_len_matches_definitions(self):
        # Reference from the definitions: a direct DFT sum over bins 1..n//2,
        # which for odd n stops below the Nyquist frequency.
        n, sample_rate = 33, 100.0
        windows = make_rng(3).normal(size=(2, 3, n))
        t = np.arange(n)
        bins = np.arange(1, n // 2 + 1)
        basis = np.exp(-2j * np.pi * np.outer(bins, t) / n)
        expected = []
        for w in range(3):
            row = []
            for c in range(2):
                x = windows[c, w]
                mags = np.abs(basis @ x)
                p = mags**2 / np.sum(mags**2)
                row += [
                    x.max(),
                    np.sqrt(np.mean(x**2)),
                    np.mean((x - x.mean()) ** 2),
                    bins[np.argmax(mags)] * sample_rate / n,
                    -np.sum(p * np.log(p)),
                ]
            expected.append(row)
        out = features.window_features(windows, sample_rate)
        assert out.shape == (3, 10)
        assert out == pytest.approx(np.array(expected), rel=1e-12, abs=1e-12)
        assert np.array_equal(out[:, [3, 8]], np.array(expected)[:, [3, 8]])

    def test_one_constant_channel_rejected(self):
        windows = np.stack([sine(50.0, 1000.0, 1.0), np.full(1000, 3.0)])[:, None, :]
        with pytest.raises(NoSpectralContent):
            features.window_features(windows, 1000.0)
        assert features.window_features(windows, 1000.0, include_frequency=False).shape == (1, 6)


class TestExtractWindows:
    @staticmethod
    def recording(duration=0.5, sample_rate=2000.0):
        machine = simulate.MachineSpec(sample_rate=sample_rate, duration=duration)
        op = simulate.OperatingPoint.from_load(0.0)
        return simulate.synthesize(machine, op, simulate.FaultSpec(kind="healthy"), 30.0, 1)

    def test_window_count_formula(self):
        rec = self.recording(duration=0.5)  # L = 1000
        spec = features.WindowSpec(window_len=256, hop=128)
        assert len(features.extract_windows(rec, spec)) == 6

    def test_single_window_when_exact(self):
        rec = self.recording(duration=0.128)  # L = 256
        spec = features.WindowSpec(window_len=256, hop=128)
        out = features.extract_windows(rec, spec)
        assert len(out) == 1
        assert out[0].window_index == 0

    def test_dimension_with_and_without_frequency(self):
        rec = self.recording()
        spec = features.WindowSpec(window_len=256, hop=128)
        full = features.extract_windows(rec, spec)
        time_only = features.extract_windows(rec, spec, include_frequency=False)
        assert full[0].x.shape == (20,)
        assert time_only[0].x.shape == (12,)

    def test_window_below_sixteen_samples_rejected(self):
        with pytest.raises(InvalidConfigValue):
            features.WindowSpec(window_len=15, hop=8)

    def test_too_short_rejected(self):
        rec = self.recording(duration=0.1)  # L = 200
        with pytest.raises(RecordingTooShort):
            features.extract_windows(rec, features.WindowSpec(window_len=256, hop=128))

    def test_deterministic(self):
        rec = self.recording()
        spec = features.WindowSpec(window_len=256, hop=128)
        a = features.extract_windows(rec, spec)
        b = features.extract_windows(rec, spec)
        for wa, wb in zip(a, b):
            assert np.array_equal(wa.x, wb.x)

    def test_feature_names_align_with_vector(self):
        names = features.feature_names()
        assert len(names) == 20
        assert names[0] == "phase_a_peak"
        assert names[4] == "phase_a_h_spec"
        assert names[-1] == "vibration_h_spec"
        short = features.feature_names(include_frequency=False)
        assert len(short) == 12
        assert all("f_dom" not in n and "h_spec" not in n for n in short)


class TestShiftAndScaleInvariance:
    def test_full_window_spectral_features_shift_invariant(self):
        x = sine(50.0, 1000.0, 1.0) + sine(120.0, 1000.0, 1.0, 0.4)
        base, moved = feats(x, 1000.0), feats(np.roll(x, -137), 1000.0)
        assert moved["f_dom"] == base["f_dom"]
        assert moved["h_spec"] == pytest.approx(base["h_spec"], abs=1e-9)
        assert moved["rms"] == pytest.approx(base["rms"], abs=1e-9)
        assert moved["variance"] == pytest.approx(base["variance"], abs=1e-9)

    def test_scale_maps_features_homogeneously(self):
        x = sine(50.0, 1000.0, 1.0) + 0.1 * make_rng(5).normal(size=1000)
        base, scaled = feats(x, 1000.0), feats(3.0 * x, 1000.0)
        assert scaled["rms"] == pytest.approx(3.0 * base["rms"], rel=1e-12)
        assert scaled["variance"] == pytest.approx(9.0 * base["variance"], rel=1e-12)
        assert scaled["f_dom"] == base["f_dom"]
        assert scaled["h_spec"] == pytest.approx(base["h_spec"], abs=1e-9)


class TestBatchInvariance:
    """A window's features do not depend on the windows featurized with it."""

    @pytest.mark.parametrize("duration", [1.0, 4.0])
    @pytest.mark.parametrize("filtered", [False, True], ids=["raw", "filtered"])
    def test_rows_equal_single_window_bit_for_bit(self, duration, filtered):
        machine = simulate.MachineSpec(duration=duration)
        fault = simulate.FaultSpec(kind="bearing", severity=0.5, site="outer")
        rec = simulate.synthesize(machine, simulate.OperatingPoint.from_load(30.0), fault, 30.0, 21)
        if filtered:
            rec = preprocess.filter_recording(rec, preprocess.FilterSpec())
        spec = features.WindowSpec()
        rows = features.extract_windows(rec, spec)
        signals = rec.stacked()
        assert len(rows) == spec.count(rec.n_samples)
        for w, row in enumerate(rows):
            start = w * spec.hop
            window = signals[:, None, start : start + spec.window_len]
            alone = features.window_features(window, rec.sample_rate)[0]
            assert row.x.tobytes() == alone.tobytes()


class TestStandardizer:
    def test_fit_transform_normalizes(self):
        rng = make_rng(8)
        vectors = [rng.normal(loc=5.0, scale=3.0, size=4) for _ in range(200)]
        std = features.Standardizer.fit(vectors)
        transformed = np.stack([std.transform(v) for v in vectors])
        assert np.mean(transformed, axis=0) == pytest.approx(np.zeros(4), abs=1e-9)
        assert np.std(transformed, axis=0) == pytest.approx(np.ones(4), abs=1e-9)

    def test_constant_dimension_does_not_blow_up(self):
        vectors = [np.array([1.0, float(i)]) for i in range(10)]
        std = features.Standardizer.fit(vectors)
        out = std.transform(np.array([1.0, 3.0]))
        assert np.all(np.isfinite(out))
        assert out[0] == 0.0

    def test_json_round_trip(self):
        std = features.Standardizer.fit([np.array([1.0, 2.0]), np.array([3.0, 4.0])])
        back = features.Standardizer.from_json(std.to_json())
        assert np.array_equal(back.mean, std.mean)
        assert np.array_equal(back.std, std.std)
