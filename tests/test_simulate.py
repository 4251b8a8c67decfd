"""Tests for synthetic recording generation."""

import json
import re

import numpy as np
import pytest

from gnnase import simulate
from gnnase.errors import (
    ChannelMismatch,
    InvalidConfigValue,
    InvalidFv,
    InvalidSlip,
    IoError,
    NonFinite,
    ParseError,
)
from gnnase.numerics import derive_seed


def tiny_machine() -> simulate.MachineSpec:
    # Small enough for fast spectra, still bin-aligned at 1 Hz resolution.
    return simulate.MachineSpec(sample_rate=2000.0, duration=1.0)


def one_sided_magnitude(signal, sample_rate):
    return np.fft.rfftfreq(len(signal), d=1.0 / sample_rate), np.abs(np.fft.rfft(signal))


class TestBrbFrequency:
    def test_sidebands(self):
        assert simulate.brb_sidebands(50.0, 0.05) == pytest.approx((55.0, 45.0))

    def test_slip_out_of_range(self):
        with pytest.raises(InvalidSlip):
            simulate.brb_sidebands(50.0, -0.1)


class TestBearingFrequencies:
    def test_single_harmonic(self):
        assert simulate.bearing_frequencies(50.0, 90.0, 1) == {40.0, 140.0}

    def test_degenerate_coincidence(self):
        assert simulate.bearing_frequencies(50.0, 50.0, 1) == {0.0, 100.0}

    def test_two_harmonics(self):
        assert simulate.bearing_frequencies(50.0, 90.0, 2) == {40.0, 140.0, 130.0, 230.0}

    def test_invalid_fv(self):
        with pytest.raises(InvalidFv):
            simulate.bearing_frequencies(50.0, 0.0, 1)


class TestSpecs:
    def test_machine_rejects_low_sample_rate(self):
        with pytest.raises(InvalidConfigValue, match="sample_rate"):
            simulate.MachineSpec(supply_frequency=50.0, sample_rate=400.0)

    def test_operating_point_from_load_table(self):
        slips = [simulate.OperatingPoint.from_load(l).slip for l in (0.0, 10.0, 30.0, 40.0)]
        assert slips == [0.01, 0.02, 0.04, 0.05]
        assert slips == sorted(slips)

    def test_unknown_load_rejected(self):
        with pytest.raises(InvalidConfigValue, match="load_torque"):
            simulate.OperatingPoint.from_load(20.0)

    def test_healthy_requires_zero_severity(self):
        with pytest.raises(InvalidConfigValue, match="severity"):
            simulate.FaultSpec(kind="healthy", severity=0.5)

    def test_bearing_fv_defaults_per_site(self):
        for site, fv in (("ball", 60.0), ("inner", 120.0), ("outer", 90.0)):
            fault = simulate.FaultSpec(kind="bearing", site=site, severity=1.0)
            assert fault.fv == fv

    def test_rotor_frequency(self):
        machine = simulate.MachineSpec()
        op = simulate.OperatingPoint.from_load(40.0)
        assert op.rotor_frequency(machine) == pytest.approx(50.0 * 0.95 / 2)


class TestSynthesize:
    def test_healthy_dominant_frequency_is_supply(self):
        machine = tiny_machine()
        op = simulate.OperatingPoint.from_load(0.0)
        rec = simulate.synthesize(machine, op, simulate.FaultSpec(kind="healthy"), None, 0)
        freqs, mag = one_sided_magnitude(rec.channels["phase_a"], machine.sample_rate)
        assert freqs[np.argmax(mag[1:]) + 1] == machine.supply_frequency

    def test_healthy_phase_rms_symmetric(self):
        machine = tiny_machine()
        op = simulate.OperatingPoint.from_load(10.0)
        rec = simulate.synthesize(machine, op, simulate.FaultSpec(kind="healthy"), None, 0)
        rms = [np.sqrt(np.mean(rec.channels[k] ** 2)) for k in ("phase_a", "phase_b", "phase_c")]
        assert max(rms) - min(rms) < 1e-9

    def test_broken_bars_peaks_at_sidebands(self):
        machine = tiny_machine()
        op = simulate.OperatingPoint.from_load(40.0)  # s = 0.05
        fault = simulate.FaultSpec(kind="broken_bars", bar_count=3, severity=1.0)
        rec = simulate.synthesize(machine, op, fault, None, 0)
        healthy = simulate.synthesize(machine, op, simulate.FaultSpec(kind="healthy"), None, 0)
        freqs, mag = one_sided_magnitude(rec.channels["phase_a"], machine.sample_rate)
        _, base = one_sided_magnitude(healthy.channels["phase_a"], machine.sample_rate)
        for f in (45.0, 55.0):
            k = int(np.where(freqs == f)[0][0])
            assert mag[k] > 100.0 * max(base[k], 1e-12)

    def test_bearing_peaks_in_vibration(self):
        machine = tiny_machine()
        op = simulate.OperatingPoint.from_load(0.0)
        fault = simulate.FaultSpec(kind="bearing", site="outer", severity=1.0)
        rec = simulate.synthesize(machine, op, fault, None, 0)
        freqs, mag = one_sided_magnitude(rec.channels["vibration"], machine.sample_rate)
        floor = np.median(mag[1:])
        for f in (40.0, 140.0):
            k = int(np.where(freqs == f)[0][0])
            assert mag[k] > 10.0 * floor

    def test_eccentricity_peaks_at_rotor_sidebands(self):
        machine = tiny_machine()
        op = simulate.OperatingPoint.from_load(0.0)  # f_r = 24.75 Hz
        fault = simulate.FaultSpec(kind="eccentricity", subtype="static", severity=1.0)
        rec = simulate.synthesize(machine, op, fault, None, 0)
        f_r = op.rotor_frequency(machine)
        freqs, mag = one_sided_magnitude(rec.channels["phase_a"], machine.sample_rate)
        for f in (50.0 + f_r, 50.0 - f_r):
            k = int(np.argmin(np.abs(freqs - f)))
            # Off-bin tone: compare against the spectrum away from carriers.
            assert mag[k] > 50.0 * np.median(mag[1:])

    def test_severity_power_monotone(self):
        machine = tiny_machine()
        op = simulate.OperatingPoint.from_load(40.0)
        powers = []
        for count in (1, 2, 3):
            fault = simulate.FaultSpec(kind="broken_bars", bar_count=count, severity=count / 3.0)
            rec = simulate.synthesize(machine, op, fault, None, 0)
            freqs, mag = one_sided_magnitude(rec.channels["phase_a"], machine.sample_rate)
            ks = [int(np.where(freqs == f)[0][0]) for f in (45.0, 55.0)]
            powers.append(sum(mag[k] ** 2 for k in ks))
        assert powers[0] < powers[1] < powers[2]

    def test_noise_meets_requested_snr(self):
        machine = tiny_machine()
        op = simulate.OperatingPoint.from_load(0.0)
        clean = simulate.synthesize(machine, op, simulate.FaultSpec(kind="healthy"), None, 7)
        noisy = simulate.synthesize(machine, op, simulate.FaultSpec(kind="healthy"), 20.0, 7)
        residual = noisy.channels["phase_a"] - clean.channels["phase_a"]
        snr = 20.0 * np.log10(
            np.sqrt(np.mean(clean.channels["phase_a"] ** 2)) / np.sqrt(np.mean(residual**2))
        )
        assert snr == pytest.approx(20.0, abs=1.0)

    def test_deterministic_given_seed(self):
        machine = tiny_machine()
        op = simulate.OperatingPoint.from_load(30.0)
        fault = simulate.FaultSpec(kind="bearing", site="ball", severity=1.0 / 3.0)
        a = simulate.synthesize(machine, op, fault, 30.0, 123)
        b = simulate.synthesize(machine, op, fault, 30.0, 123)
        for key in simulate.CHANNEL_NAMES:
            assert np.array_equal(a.channels[key], b.channels[key])


class TestCatalog:
    def test_grid_counts(self):
        faults = simulate.catalog_faults()
        kinds = [f.kind for f in faults]
        assert kinds.count("healthy") == 1
        assert kinds.count("eccentricity") == 12
        assert kinds.count("broken_bars") == 3
        assert kinds.count("bearing") == 9
        recs = simulate.generate_catalog(tiny_machine(), seed=1, noise_snr_db=None)
        assert len(recs) == 100
        by_kind = {k: sum(r.label.kind == k for r in recs) for k in set(kinds)}
        assert by_kind == {"healthy": 4, "eccentricity": 48, "broken_bars": 12, "bearing": 36}

    def test_catalog_deterministic(self):
        a = simulate.generate_catalog(tiny_machine(), seed=5)
        b = simulate.generate_catalog(tiny_machine(), seed=5)
        assert [r.name for r in a] == [r.name for r in b]
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.channels["vibration"], rb.channels["vibration"])

    @pytest.mark.parametrize("noise", [30.0, None], ids=["30dB", "clean"])
    @pytest.mark.parametrize(
        "machine",
        [simulate.MachineSpec(), simulate.MachineSpec(sample_rate=20_000.0, duration=4.0)],
        ids=["default", "4s-20kHz"],
    )
    def test_catalog_matches_standalone_synthesis(self, machine, noise, monkeypatch):
        recs = iter(simulate.generate_catalog(machine, seed=4, noise_snr_db=noise))
        # The reference computes every wave afresh, so a table key that lets
        # two different waves share an entry shows as a changed sample.
        monkeypatch.setattr(simulate, "_wave", lambda waves, key, make: make())
        for fault in simulate.catalog_faults():
            for load in simulate.LOAD_GRID:
                rec = next(recs)
                seed = derive_seed(4, "recording", rec.name)
                alone = simulate.synthesize(
                    machine, simulate.OperatingPoint.from_load(load), fault, noise, seed
                )
                assert (rec.name, rec.seed) == (alone.name, seed)
                for key in simulate.CHANNEL_NAMES:
                    assert np.array_equal(rec.channels[key], alone.channels[key]), rec.name
        assert next(recs, None) is None

    def test_wave_table_is_read_only(self):
        waves = {}
        op = simulate.OperatingPoint.from_load(10.0)
        fault = simulate.FaultSpec(kind="eccentricity", subtype="mixed", severity=0.5)
        simulate._synthesize(tiny_machine(), op, fault, None, 0, waves)
        assert len(waves) == 3 + 1 + 6 + 1  # supply phases, rotor tone, sidebands, envelope
        for wave in waves.values():
            with pytest.raises(ValueError, match="read-only"):
                wave += 1.0

    def test_severities_in_range_and_seeds_distinct(self):
        recs = simulate.generate_catalog(tiny_machine(), seed=2, noise_snr_db=None)
        assert all(0.0 <= r.label.severity <= 1.0 for r in recs)
        seeds = [r.seed for r in recs]
        assert len(set(seeds)) == len(seeds)

    def test_round_trip_through_directory(self, tmp_path):
        machine = simulate.MachineSpec(sample_rate=1000.0, duration=0.25)
        recs = simulate.generate_catalog(machine, seed=3)[:5]
        simulate.save_catalog(recs, tmp_path, machine, seed=3, noise_snr_db=30.0)
        loaded, machine2, manifest = simulate.load_catalog(tmp_path)
        assert machine2 == machine
        assert manifest["channels"] == list(simulate.CHANNEL_NAMES)
        assert len(loaded) == 5
        for orig, back in zip(recs, loaded):
            assert back.name == orig.name
            assert back.label == orig.label
            assert back.operating_point == orig.operating_point
            assert back.seed == orig.seed
            assert back.sample_rate == orig.sample_rate == 1000.0
            for key in simulate.CHANNEL_NAMES:
                assert back.channels[key].dtype == np.float64
                assert back.channels[key].tobytes() == orig.channels[key].tobytes()
            # The recording CSV codec, used by diagnose and exports, is lossless too.
            csv_path = tmp_path / f"{orig.name}.csv"
            simulate.write_recording_csv(csv_path, back)
            read = simulate.read_recording_csv(csv_path)
            assert read.sample_rate == orig.sample_rate
            for key in simulate.CHANNEL_NAMES:
                assert read.channels[key].tobytes() == orig.channels[key].tobytes()

    def test_save_twice_byte_identical(self, tmp_path):
        machine = simulate.MachineSpec(sample_rate=1000.0, duration=0.25)
        recs = simulate.generate_catalog(machine, seed=4)[:3]
        d1, d2 = tmp_path / "one", tmp_path / "two"
        simulate.save_catalog(recs, d1, machine, 4, 30.0)
        simulate.save_catalog(recs, d2, machine, 4, 30.0)
        for f1 in sorted(d1.iterdir()):
            assert f1.read_bytes() == (d2 / f1.name).read_bytes()

    @pytest.mark.parametrize(
        "edit",
        [
            "truncated",
            "three_rows",
            "float32",
            "pickled_object",
            "not_npy",
            "missing",
            "reordered_channels",
            "other_rate",
            "nan",
        ],
    )
    def test_load_refuses_file_disagreeing_with_manifest(self, tmp_path, edit):
        machine = simulate.MachineSpec(sample_rate=1000.0, duration=0.25)
        recs = simulate.generate_catalog(machine, seed=3)[:2]
        manifest_path = simulate.save_catalog(recs, tmp_path, machine, 3, 30.0)
        manifest = json.loads(manifest_path.read_text())
        target = tmp_path / f"{recs[1].name}.npy"
        signals = recs[1].signals
        error = ParseError
        if edit == "truncated":
            np.save(target, signals[:, :-10])
        elif edit == "three_rows":
            np.save(target, signals[:3])
        elif edit == "float32":
            np.save(target, signals.astype(np.float32))
        elif edit == "pickled_object":
            np.save(target, np.array([Tripwire()] * 4, dtype=object), allow_pickle=True)
        elif edit == "not_npy":
            simulate.write_recording_csv(target, recs[1])
        elif edit == "missing":
            target.unlink()
            error = IoError
        elif edit == "reordered_channels":
            manifest["channels"] = ["phase_b", "phase_a", "phase_c", "vibration"]
            target, error = manifest_path, ChannelMismatch
        elif edit == "other_rate":
            # The manifest's machine now expects 500 samples in every file.
            manifest["machine"]["sample_rate"] = 2000.0
            target = tmp_path / f"{recs[0].name}.npy"
        elif edit == "nan":
            signals = signals.copy()
            signals[3, 7] = np.nan
            np.save(target, signals)
            error = NonFinite
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(error, match=re.escape(str(target))):
            simulate.load_catalog(tmp_path)
        assert not Tripwire.unpickled

    BAD_MANIFESTS = {
        **{f"no_{key}": key for key in simulate.MANIFEST_KEYS},
        **{f"entry_without_{key}": f"recordings[1].{key}" for key in simulate.ENTRY_KEYS},
        "text_seed": "recordings[1].seed",
        "number_file": "recordings[1].file",
        "bad_severity": "recordings[1].fault",
        "text_rate": "machine.sample_rate",
    }

    @pytest.mark.parametrize("edit", BAD_MANIFESTS)
    def test_load_refuses_bad_manifest(self, tmp_path, edit):
        named = self.BAD_MANIFESTS[edit]
        machine = simulate.MachineSpec(sample_rate=1000.0, duration=0.25)
        recs = simulate.generate_catalog(machine, seed=3)[:2]
        manifest_path = simulate.save_catalog(recs, tmp_path, machine, 3, 30.0)
        manifest = json.loads(manifest_path.read_text())
        entry = manifest["recordings"][1]
        if edit.startswith("no_"):
            del manifest[named]
        elif edit.startswith("entry_without_"):
            del entry[edit.removeprefix("entry_without_")]
        elif edit == "text_seed":
            entry["seed"] = "x"
        elif edit == "number_file":
            entry["file"] = 5
        elif edit == "bad_severity":
            entry["fault"]["severity"] = 2.0
        else:
            manifest["machine"]["sample_rate"] = "fast"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ParseError, match=re.escape(str(manifest_path))) as info:
            simulate.load_catalog(tmp_path)
        assert named in str(info.value)

    @pytest.mark.parametrize(
        "content, problem",
        [
            (b"not json", "not UTF-8 JSON"),
            (b'{"machine": "caf\xe9"}', "not UTF-8 JSON"),
            (b"[1, 2]", "expected an object"),
        ],
        ids=["text", "latin1", "list"],
    )
    def test_load_refuses_manifest_that_is_no_json_object(self, tmp_path, content, problem):
        (tmp_path / "manifest.json").write_bytes(content)
        with pytest.raises(ParseError, match=re.escape(f"manifest.json: {problem}")):
            simulate.load_catalog(tmp_path)


class TestRecordingSignals:
    @staticmethod
    def recording(source, tmp_path):
        machine = simulate.MachineSpec(sample_rate=1000.0, duration=0.25)
        fault = simulate.FaultSpec(kind="bearing", severity=0.5, site="inner")
        rec = simulate.synthesize(machine, simulate.OperatingPoint.from_load(10.0), fault, 30.0, 5)
        if source == "csv":
            simulate.write_recording_csv(tmp_path / "rec.csv", rec)
            rec = simulate.read_recording_csv(tmp_path / "rec.csv")
        elif source.startswith("catalog"):
            simulate.save_catalog([rec], tmp_path, machine, 5, 30.0)
            if source == "catalog_fortran":
                np.save(tmp_path / f"{rec.name}.npy", np.asfortranarray(rec.signals))
            rec = simulate.load_catalog(tmp_path)[0][0]
        return rec

    @pytest.mark.parametrize("source", ["synthesized", "csv", "catalog", "catalog_fortran"])
    def test_channels_are_the_rows_of_signals(self, tmp_path, source):
        rec = self.recording(source, tmp_path)
        signals = rec.signals
        assert signals.dtype == np.float64 and signals.flags.c_contiguous
        assert signals.shape == (len(simulate.CHANNEL_NAMES), 250) and rec.n_samples == 250
        assert list(rec.channels) == list(simulate.CHANNEL_NAMES)
        for row, name in zip(signals, simulate.CHANNEL_NAMES):
            assert rec.channels[name].tobytes() == row.tobytes()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_csv_with_non_finite_sample_refused_when_read(self, tmp_path, value):
        rec = self.recording("synthesized", tmp_path)
        path = tmp_path / "bad.csv"
        simulate.write_recording_csv(path, rec)
        lines = path.read_text().split("\n")
        t, phase_a, phase_b, rest = lines[40].split(",", 3)
        lines[40] = f"{t},{phase_a},{value},{rest}"
        path.write_text("\n".join(lines))
        with pytest.raises(NonFinite, match="^recording bad holds NaN or infinite samples$"):
            simulate.read_recording_csv(path)


class Tripwire:
    """Records whether an array holding it was ever unpickled."""

    unpickled = False

    def __reduce__(self):
        return _trip, ()


def _trip():
    Tripwire.unpickled = True
