"""Tests for filtering and augmentation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnnase import preprocess, simulate
from gnnase.errors import CutoffAboveNyquist, NegativeSigma, NonPositiveScale, ShiftTooLarge
from gnnase.numerics import make_rng


def tone(freq, sample_rate=10_000.0, duration=1.0, amplitude=1.0):
    # Cosine so sample 0 sits exactly on the peak.
    t = np.arange(round(sample_rate * duration)) / sample_rate
    return amplitude * np.cos(2 * np.pi * freq * t)


class TestButterworthFilter:
    def test_dc_passes_unchanged(self):
        x = np.full(64, 3.0)
        out = preprocess.butterworth_filter(x, 64.0, preprocess.FilterSpec(cutoff=10.0, order=4))
        assert out == pytest.approx(x, abs=1e-9)

    def test_tone_at_cutoff_attenuated_3db(self):
        spec = preprocess.FilterSpec(cutoff=400.0, order=4)
        x = tone(400.0)
        out = preprocess.butterworth_filter(x, 10_000.0, spec)
        assert np.max(np.abs(out)) == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-3)

    def test_tone_at_ten_times_cutoff_suppressed(self):
        # 10 * 400 Hz = 4 kHz stays below Nyquist at 10 kHz sampling.
        # Amplitude via sqrt(2) * RMS, exact for a tone and free of the
        # ~1e-9 per-sample numerical residue a time-domain max picks up.
        spec = preprocess.FilterSpec(cutoff=400.0, order=4)
        out = preprocess.butterworth_filter(tone(4000.0), 10_000.0, spec)
        assert np.sqrt(2.0 * np.mean(out**2)) < 1e-4

    def test_cutoff_above_nyquist_rejected(self):
        with pytest.raises(CutoffAboveNyquist):
            preprocess.butterworth_filter(tone(50.0), 10_000.0, preprocess.FilterSpec(cutoff=5000.0))

    def test_double_application_squares_magnitude(self):
        spec = preprocess.FilterSpec(cutoff=30.0, order=2)
        x = make_rng(1).normal(size=256)
        twice = preprocess.butterworth_filter(
            preprocess.butterworth_filter(x, 256.0, spec), 256.0, spec
        )
        squared = np.fft.rfft(x) * spec.magnitude(np.fft.rfftfreq(256, d=1.0 / 256.0)) ** 2
        expected = np.fft.irfft(squared, n=256)
        assert np.max(np.abs(twice - expected)) < 1e-9

    def test_odd_length_matches_real_fft_reference(self):
        # An odd length's one-sided spectrum has no Nyquist bin; the inverse
        # must be told n, or it returns n - 1 samples.
        spec = preprocess.FilterSpec(cutoff=30.0, order=3)
        x = make_rng(2).normal(size=(2, 255))
        gain = spec.magnitude(np.fft.rfftfreq(255, d=1.0 / 256.0))
        expected = np.fft.irfft(np.fft.rfft(x, axis=-1) * gain, n=255, axis=-1)
        out = preprocess.butterworth_filter(x, 256.0, spec)
        assert out.shape == (2, 255)
        assert np.max(np.abs(out - expected)) < 1e-12

    def test_output_length_preserved(self):
        out = preprocess.butterworth_filter(tone(50.0, 1000.0, 0.123), 1000.0, preprocess.FilterSpec(cutoff=100.0))
        assert len(out) == round(1000.0 * 0.123)


class TestTimeShift:
    def test_zero_shift_identity(self):
        x = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(preprocess.time_shift(x, 0), x)

    def test_hand_example(self):
        assert np.array_equal(preprocess.time_shift([1.0, 2.0, 3.0, 4.0], 1), [2.0, 3.0, 4.0, 1.0])

    def test_composition_full_cycle_identity(self):
        x = make_rng(2).normal(size=10)
        out = preprocess.time_shift(preprocess.time_shift(x, 7), 3)
        assert np.array_equal(out, x)

    def test_too_large_rejected(self):
        with pytest.raises(ShiftTooLarge):
            preprocess.time_shift([1.0, 2.0], 2)

    @given(st.integers(min_value=-31, max_value=31), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40, deadline=None)
    def test_preserves_rms_and_spectral_magnitude(self, shift, seed):
        x = make_rng(seed).normal(size=32)
        shifted = preprocess.time_shift(x, shift)
        assert np.sqrt(np.mean(shifted**2)) == pytest.approx(np.sqrt(np.mean(x**2)), abs=1e-9)
        assert np.abs(np.fft.rfft(shifted)) == pytest.approx(np.abs(np.fft.rfft(x)), abs=1e-9)


class TestAmplitudeScale:
    def test_identity(self):
        x = np.array([1.0, -2.0])
        assert np.array_equal(preprocess.amplitude_scale(x, 1.0), x)

    def test_rms_scales_linearly(self):
        scaled = preprocess.amplitude_scale(tone(5.0, 1000.0), 2.0)
        assert np.sqrt(np.mean(scaled**2)) == pytest.approx(2.0 / np.sqrt(2.0), abs=1e-6)

    def test_inverse_scale_round_trip(self):
        x = make_rng(3).normal(size=50)
        back = preprocess.amplitude_scale(preprocess.amplitude_scale(x, 3.7), 1 / 3.7)
        assert np.max(np.abs(back - x)) < 1e-12

    def test_non_positive_rejected(self):
        with pytest.raises(NonPositiveScale):
            preprocess.amplitude_scale([1.0], 0.0)


class TestAddNoise:
    def test_sigma_zero_identity(self):
        x = np.array([1.0, 2.0])
        assert np.array_equal(preprocess.add_noise(x, 0.0, 5), x)

    def test_variance_matches_sigma(self):
        out = preprocess.add_noise(np.zeros(100_000), 1.0, 9)
        assert 0.97 <= float(np.var(out)) <= 1.03

    def test_deterministic(self):
        a = preprocess.add_noise(np.zeros(100), 0.5, 4)
        b = preprocess.add_noise(np.zeros(100), 0.5, 4)
        assert np.array_equal(a, b)

    def test_negative_sigma_rejected(self):
        with pytest.raises(NegativeSigma):
            preprocess.add_noise([0.0], -1.0, 0)


class TestAugmentDataset:
    @staticmethod
    def small_recordings(n=3):
        machine = simulate.MachineSpec(sample_rate=1000.0, duration=0.2)
        return simulate.generate_catalog(machine, seed=1)[:n]

    def test_zero_copies_identity(self):
        recs = self.small_recordings()
        assert preprocess.augment_dataset(recs, 0, 7) == recs

    def test_counts(self):
        recs = self.small_recordings(3)
        out = preprocess.augment_dataset(recs, 2, 7)
        assert len(out) == 9

    def test_labels_and_channels_preserved(self):
        recs = self.small_recordings(2)
        out = preprocess.augment_dataset(recs, 3, 7)
        labels = {r.name.split("-aug")[0]: r.label for r in out}
        for rec in out:
            assert rec.label == labels[rec.name.split("-aug")[0]]
            assert set(rec.channels) == set(simulate.CHANNEL_NAMES)

    def test_deterministic(self):
        recs = self.small_recordings(2)
        a = preprocess.augment_dataset(recs, 2, 11)
        b = preprocess.augment_dataset(recs, 2, 11)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.channels["phase_a"], rb.channels["phase_a"])

    def test_variants_differ_from_source(self):
        recs = self.small_recordings(1)
        out = preprocess.augment_dataset(recs, 1, 13)
        assert not np.array_equal(out[0].channels["phase_a"], out[1].channels["phase_a"])


class TestFilterRecording:
    def test_all_channels_filtered_label_kept(self):
        machine = simulate.MachineSpec(sample_rate=1000.0, duration=0.2)
        rec = simulate.generate_catalog(machine, seed=2)[0]
        out = preprocess.filter_recording(rec, preprocess.FilterSpec(cutoff=200.0, order=4))
        assert out.label == rec.label
        assert out.n_samples == rec.n_samples

    @pytest.mark.parametrize("duration", [1.0, 4.0])
    def test_stacked_filter_equals_per_channel_bit_for_bit(self, duration):
        machine = simulate.MachineSpec(duration=duration)
        fault = simulate.FaultSpec(kind="eccentricity", severity=0.75, subtype="mixed")
        rec = simulate.synthesize(machine, simulate.OperatingPoint.from_load(10.0), fault, 30.0, 5)
        spec = preprocess.FilterSpec()
        out = preprocess.filter_recording(rec, spec)
        for key, signal in rec.channels.items():
            alone = preprocess.butterworth_filter(signal, rec.sample_rate, spec)
            assert out.channels[key].tobytes() == alone.tobytes()
