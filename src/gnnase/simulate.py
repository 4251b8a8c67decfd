"""Synthetic fault recordings for a three-phase induction machine.

Generates labeled stator-current and bearing-vibration signals over a fixed
condition grid: healthy operation, air-gap eccentricity (static, dynamic,
mixed), broken rotor bars (1 to 3), and bearing defects (ball, inner race,
outer race), each at several load levels and severities.

Fault signatures are injected at their characteristic frequencies:

* broken bars: current sidebands at ``(1 +/- 2s) * f_s``,
* eccentricity: current components at ``f_s +/- f_r`` where
  ``f_r = f_s * (1 - s) / p`` is the rotor mechanical frequency,
* bearing defects: vibration tones at ``|f_s +/- m * f_v|``.

A catalog is stored as one ``.npy`` array per recording next to a
manifest.json of labels (save_catalog/load_catalog), so the samples make the
round trip bit for bit without text. Single recordings travel as CSV, the
input format of ``diagnose``: write_recording_csv and read_recording_csv are
its only writer and reader.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import codec
from .errors import (
    ChannelMismatch,
    InvalidConfig,
    InvalidConfigValue,
    InvalidFv,
    InvalidSlip,
    IoError,
    NonFinite,
    ParseError,
)
from .numerics import derive_seed, make_rng

CHANNEL_NAMES = ("phase_a", "phase_b", "phase_c", "vibration")
# Columns of a recording CSV: the time stamp, then one per channel.
CSV_COLUMNS = ("t", *CHANNEL_NAMES)
PHASE_OFFSETS = (0.0, -2.0 * np.pi / 3.0, 2.0 * np.pi / 3.0)

LOAD_SLIP = {0.0: 0.01, 10.0: 0.02, 30.0: 0.04, 40.0: 0.05}
LOAD_GRID = (0.0, 10.0, 30.0, 40.0)

ECCENTRICITY_SUBTYPES = ("static", "dynamic", "mixed")
ECCENTRICITY_SEVERITIES = (0.25, 0.5, 0.75, 1.0)
BEARING_SITES = ("ball", "inner", "outer")
BEARING_SEVERITIES = (1.0 / 3.0, 2.0 / 3.0, 1.0)
BROKEN_BAR_COUNTS = (1, 2, 3)

# Characteristic vibration frequencies per defect site, Hz. The geometry
# behind them is not modeled; only the spectral placement matters here.
BEARING_FV = {"ball": 60.0, "inner": 120.0, "outer": 90.0}

# Fault amplitudes relative to the carrier (rated current for current-borne
# faults, baseline vibration tone for bearing faults).
KAPPA_BRB = 0.05
KAPPA_ECC = 0.04
KAPPA_BEARING = 0.5

# Baseline vibration: a unit tone at the rotor frequency so the vibration
# channel is never silent on a healthy machine.
VIBRATION_BASELINE = 1.0
BEARING_HARMONICS = 3


@dataclass(frozen=True)
class MachineSpec:
    """Electrical and sampling parameters of the machine under test.

    Args:
        supply_frequency: Stator supply frequency f_s in Hz.
        pole_pairs: Number of pole pairs p.
        rated_current: Phase current amplitude in A.
        sample_rate: Sampling frequency in Hz; must be at least 10 * f_s.
        duration: Recording length in seconds.
    """

    supply_frequency: float = 50.0
    pole_pairs: int = 2
    rated_current: float = 10.0
    sample_rate: float = 10_000.0
    duration: float = 1.0

    def __post_init__(self):
        if self.supply_frequency <= 0:
            raise InvalidConfigValue(f"supply_frequency must be positive, got {self.supply_frequency}")
        if self.pole_pairs < 1:
            raise InvalidConfigValue(f"pole_pairs must be >= 1, got {self.pole_pairs}")
        if self.sample_rate < 10 * self.supply_frequency:
            raise InvalidConfigValue(
                f"sample_rate {self.sample_rate} Hz is below 10x the supply frequency "
                f"{self.supply_frequency} Hz"
            )
        if self.duration <= 0:
            raise InvalidConfigValue(f"duration must be positive, got {self.duration}")

    @property
    def n_samples(self) -> int:
        return round(self.sample_rate * self.duration)


@dataclass(frozen=True)
class OperatingPoint:
    """Load torque in N.m and the per-unit slip it produces."""

    load_torque: float
    slip: float

    def __post_init__(self):
        if not 0 <= self.slip < 1:
            raise InvalidSlip(f"slip must lie in [0, 1), got {self.slip}")

    @classmethod
    def from_load(cls, load_torque: float) -> "OperatingPoint":
        """Look up the slip for one of the grid loads {0, 10, 30, 40} N.m."""
        if load_torque not in LOAD_SLIP:
            raise InvalidConfigValue(
                f"load_torque must be one of {sorted(LOAD_SLIP)}, got {load_torque}"
            )
        return cls(load_torque=load_torque, slip=LOAD_SLIP[load_torque])

    def rotor_frequency(self, machine: MachineSpec) -> float:
        """Rotor mechanical frequency f_r = f_s * (1 - s) / p in Hz."""
        return machine.supply_frequency * (1.0 - self.slip) / machine.pole_pairs


@dataclass(frozen=True)
class FaultSpec:
    """Fault label: kind, optional variant, normalized severity.

    Args:
        kind: One of "healthy", "eccentricity", "broken_bars", "bearing".
        severity: Normalized severity in [0, 1]; 0 for healthy.
        subtype: Eccentricity variant ("static", "dynamic", "mixed").
        bar_count: Number of broken bars (1..3) for broken_bars.
        site: Bearing defect site ("ball", "inner", "outer").
        fv: Bearing characteristic vibration frequency in Hz; defaults to
            the per-site value when left as None.
    """

    kind: str
    severity: float = 0.0
    subtype: str | None = None
    bar_count: int | None = None
    site: str | None = None
    fv: float | None = None

    def __post_init__(self):
        if self.kind not in ("healthy", "eccentricity", "broken_bars", "bearing"):
            raise InvalidConfigValue(f"unknown fault kind {self.kind!r}")
        if not 0 <= self.severity <= 1:
            raise InvalidConfigValue(f"severity must lie in [0, 1], got {self.severity}")
        if self.kind == "healthy" and self.severity != 0:
            raise InvalidConfigValue("healthy recordings must have severity 0")
        if self.kind == "eccentricity" and self.subtype not in ECCENTRICITY_SUBTYPES:
            raise InvalidConfigValue(
                f"eccentricity subtype must be one of {ECCENTRICITY_SUBTYPES}, got {self.subtype!r}"
            )
        if self.kind == "broken_bars" and self.bar_count not in BROKEN_BAR_COUNTS:
            raise InvalidConfigValue(f"bar_count must be in {BROKEN_BAR_COUNTS}, got {self.bar_count}")
        if self.kind == "bearing":
            if self.site not in BEARING_SITES:
                raise InvalidConfigValue(
                    f"bearing site must be one of {BEARING_SITES}, got {self.site!r}"
                )
            if self.fv is None:
                object.__setattr__(self, "fv", BEARING_FV[self.site])
            if self.fv <= 0:
                raise InvalidFv(f"fv must be positive, got {self.fv}")

    @property
    def is_faulty(self) -> bool:
        return self.kind != "healthy"

    def name(self) -> str:
        """Compact identifier used for filenames and derived seeds."""
        if self.kind == "healthy":
            return "healthy"
        if self.kind == "eccentricity":
            return f"ecc-{self.subtype}-sev{round(self.severity * 100)}"
        if self.kind == "broken_bars":
            return f"brb-{self.bar_count}"
        return f"bearing-{self.site}-sev{round(self.severity * 100)}"


@dataclass
class Recording:
    """One multi-channel measurement with its ground truth.

    ``signals`` is one C-contiguous float64 array of shape
    ``(len(CHANNEL_NAMES), samples)``, rows in CHANNEL_NAMES order.

    Raises:
        NonFinite: If any sample is NaN or infinite.
    """

    signals: np.ndarray
    sample_rate: float
    label: FaultSpec
    operating_point: OperatingPoint
    seed: int
    name: str = ""

    def __post_init__(self):
        if not np.isfinite(self.signals).all():
            raise NonFinite(f"recording {self.name} holds NaN or infinite samples")

    @property
    def n_samples(self) -> int:
        return self.signals.shape[1]

    @property
    def channels(self) -> dict[str, np.ndarray]:
        """Each channel name mapped to its row of ``signals`` (a view)."""
        return dict(zip(CHANNEL_NAMES, self.signals))


def brb_sidebands(f_s: float, s: float) -> tuple[float, float]:
    """Current sidebands ``(1 +/- 2s) * f_s`` flanking the supply line.

    Raises:
        InvalidSlip: If s lies outside [0, 1).
    """
    if not 0 <= s < 1:
        raise InvalidSlip(f"slip must lie in [0, 1), got {s}")
    # Distributed form: f_s +/- 2*s*f_s keeps grid values like 55.0 exactly
    # representable, where (1 + 2s) * f_s rounds one ulp away.
    return f_s + 2.0 * s * f_s, f_s - 2.0 * s * f_s


def bearing_frequencies(f_s: float, fv: float, m_max: int = BEARING_HARMONICS) -> set[float]:
    """Bearing-defect frequencies ``|f_s +/- m * fv|`` for m = 1..m_max.

    Raises:
        InvalidFv: If fv is not positive.
    """
    if fv <= 0:
        raise InvalidFv(f"fv must be positive, got {fv}")
    if m_max < 1:
        raise InvalidConfigValue(f"m_max must be >= 1, got {m_max}")
    out: set[float] = set()
    for m in range(1, m_max + 1):
        out.add(abs(f_s + m * fv))
        out.add(abs(f_s - m * fv))
    return out


def _wave(waves: dict, key, make) -> np.ndarray:
    """The table entry under ``key``, computed once by ``make()`` and made read-only."""
    wave = waves.get(key)
    if wave is None:
        wave = waves[key] = make()
        wave.flags.writeable = False
    return wave


def _tone(
    t: np.ndarray, waves: dict, amplitude: float, frequency: float, phase: float = 0.0
) -> np.ndarray:
    wave = _wave(waves, (frequency, phase), lambda: np.cos(2.0 * np.pi * frequency * t + phase))
    return amplitude * wave


def synthesize(
    machine: MachineSpec,
    op: OperatingPoint,
    fault: FaultSpec,
    noise_snr_db: float | None = 30.0,
    seed: int = 0,
) -> Recording:
    """Synthesize one labeled recording.

    Phase currents are rated-amplitude cosines at the supply frequency with
    0 / -120 / +120 degree offsets. The vibration channel carries a unit
    tone at the rotor frequency. Fault components are added on top:

    * broken_bars: sidebands at ``(1 +/- 2s) * f_s`` on every phase, each
      with amplitude ``severity * KAPPA_BRB * rated_current``;
    * eccentricity: components at ``f_s +/- f_r`` with amplitude
      ``severity * KAPPA_ECC * rated_current`` — plain tones for the static
      subtype, slip-frequency amplitude modulation for dynamic, the sum of
      both for mixed;
    * bearing: vibration tones at ``|f_s +/- m * fv|`` for m = 1..3 with
      amplitude ``severity * KAPPA_BEARING * baseline / m``.

    Independent Gaussian noise is then added to every channel, scaled so
    each channel individually meets ``noise_snr_db``; pass None to disable.

    Args:
        machine: Machine under test.
        op: Load point; supplies the slip.
        fault: Fault label to inject.
        noise_snr_db: Per-channel SNR in dB, or None for noise-free output.
        seed: Seed for the noise generator; the clean signal ignores it.

    Returns:
        Recording with channels phase_a, phase_b, phase_c, vibration.
    """
    return _synthesize(machine, op, fault, noise_snr_db, seed, {})


def _synthesize(
    machine: MachineSpec,
    op: OperatingPoint,
    fault: FaultSpec,
    noise_snr_db: float | None,
    seed: int,
    waves: dict,
) -> Recording:
    """synthesize, drawing every cosine from ``waves``.

    ``waves`` maps ``(frequency, phase)`` to the read-only wave
    ``cos(2 pi frequency t + phase)`` and a slip to the eccentricity
    envelope, both over this machine's time axis, so one table must only
    ever serve one MachineSpec. Entries missing from it are computed and
    added; the arrays it holds are never written.
    """
    if noise_snr_db is not None and not np.isfinite(noise_snr_db):
        raise NonFinite(f"noise_snr_db must be finite or None, got {noise_snr_db}")
    n = machine.n_samples
    t = np.arange(n) / machine.sample_rate
    f_s = machine.supply_frequency
    amp = machine.rated_current

    phases = [_tone(t, waves, amp, f_s, off) for off in PHASE_OFFSETS]
    vibration = _tone(t, waves, VIBRATION_BASELINE, op.rotor_frequency(machine))

    if fault.kind == "broken_bars":
        level = fault.severity * KAPPA_BRB * amp
        for f in brb_sidebands(f_s, op.slip):
            for i, off in enumerate(PHASE_OFFSETS):
                phases[i] += _tone(t, waves, level, f, off)
    elif fault.kind == "eccentricity":
        level = fault.severity * KAPPA_ECC * amp
        f_r = op.rotor_frequency(machine)
        # Slow amplitude modulation at the slip frequency marks the dynamic
        # subtype; mixed carries both the steady and the modulated part.
        envelope = _wave(
            waves, op.slip, lambda: 0.5 + 0.5 * np.cos(2.0 * np.pi * op.slip * f_s * t)
        )
        for f in (f_s + f_r, f_s - f_r):
            for i, off in enumerate(PHASE_OFFSETS):
                component = _tone(t, waves, level, f, off)
                if fault.subtype == "static":
                    phases[i] += component
                elif fault.subtype == "dynamic":
                    phases[i] += envelope * component
                else:
                    phases[i] += component + envelope * component
    elif fault.kind == "bearing":
        for m in range(1, BEARING_HARMONICS + 1):
            level = fault.severity * KAPPA_BEARING * VIBRATION_BASELINE / m
            vibration += _tone(t, waves, level, abs(f_s + m * fault.fv))
            vibration += _tone(t, waves, level, abs(f_s - m * fault.fv))

    signals = np.stack([*phases, vibration])
    if noise_snr_db is not None:
        rng = make_rng(seed)
        factor = 10.0 ** (-noise_snr_db / 20.0)
        for row in signals:
            sigma = float(np.sqrt(np.mean(row**2))) * factor
            row += rng.normal(0.0, sigma, size=n)

    return Recording(
        signals=signals,
        sample_rate=machine.sample_rate,
        label=fault,
        operating_point=op,
        seed=seed,
        name=f"{fault.name()}-load{round(op.load_torque)}",
    )


def catalog_faults() -> list[FaultSpec]:
    """The fault grid: 1 healthy + 12 eccentricity + 3 bar + 9 bearing specs."""
    faults = [FaultSpec(kind="healthy")]
    for subtype in ECCENTRICITY_SUBTYPES:
        for severity in ECCENTRICITY_SEVERITIES:
            faults.append(FaultSpec(kind="eccentricity", subtype=subtype, severity=severity))
    for count in BROKEN_BAR_COUNTS:
        faults.append(FaultSpec(kind="broken_bars", bar_count=count, severity=count / 3.0))
    for site in BEARING_SITES:
        for severity in BEARING_SEVERITIES:
            faults.append(FaultSpec(kind="bearing", site=site, severity=severity))
    return faults


def generate_catalog(
    machine: MachineSpec,
    seed: int,
    noise_snr_db: float | None = 30.0,
) -> list[Recording]:
    """Generate the full 100-recording condition grid.

    Every fault spec is crossed with the four load points. Each recording
    gets its own seed derived from the master seed and the recording name,
    so the catalog is reproducible as a whole and per item.

    The recordings share one table of cosine waves for the length of the
    call, so each distinct tone of the grid is computed once: at most 77
    arrays of ``machine.n_samples`` floats (73 at the default machine,
    5.8 MB), freed when the call returns.
    """
    waves: dict = {}
    recordings = []
    for fault in catalog_faults():
        for load in LOAD_GRID:
            op = OperatingPoint.from_load(load)
            name = f"{fault.name()}-load{round(load)}"
            rec_seed = derive_seed(seed, "recording", name)
            recordings.append(_synthesize(machine, op, fault, noise_snr_db, rec_seed, waves))
    return recordings


def write_recording_csv(path: str | Path, recording: Recording) -> None:
    """Write one recording CSV: header ``t,<channels>``, one row per sample.

    Floats are written with repr(), so read_recording_csv gives back every
    sample bit for bit and a rewrite is byte-identical.
    """
    t = np.arange(recording.n_samples) / recording.sample_rate
    table = np.column_stack([t, recording.signals.T])
    fields = map(repr, table.ravel().tolist())
    rows = map(",".join, zip(*[fields] * table.shape[1]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        fh.writelines(row + "\n" for row in rows)


def read_recording_csv(path: str | Path) -> Recording:
    """Read one recording CSV in the format write_recording_csv writes.

    The sample rate comes from the time column. The label, operating point
    and seed are placeholders (healthy, no load, 0) and the name is the
    file stem.

    Raises:
        IoError: If the file is missing.
        ParseError: Text that is not UTF-8, a malformed header or row,
            fewer than two samples, or a time step that differs from the
            first by more than 1e-6 of it, with the file and line number.
        ChannelMismatch: If the channel columns differ from CHANNEL_NAMES.
        NonFinite: If any sample is NaN or infinite.
    """
    path = Path(path)
    if not path.is_file():
        raise IoError(f"recording file not found: {path}")
    with open(path, "rb") as fh:
        header = fh.readline()
        n_lines = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 16), b""))
    if header != (",".join(CSV_COLUMNS) + "\n").encode() or n_lines < 2:
        _check_lines(path)
    # Parsing from the path keeps np.loadtxt on its fast C reader. It skips
    # blank lines, numbers rows its own way and only warns when no row is
    # left, so when it fails or returns another row count than the file's
    # line count, the lines are scanned one by one to name the first bad one.
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            data = np.loadtxt(
                path, delimiter=",", skiprows=1, comments=None, ndmin=2, encoding="utf-8"
            )
    except (ValueError, UserWarning) as err:
        _check_lines(path)
        raise ParseError(f"{path}: {err}") from None
    if data.shape != (n_lines, len(CSV_COLUMNS)):
        _check_lines(path)

    dt = data[1, 0] - data[0, 0]
    if not dt > 0:
        raise ParseError(f"{path}: line 3: time column must be strictly increasing")
    # Step k runs from data row k to row k + 1, which sits on line k + 3; a
    # NaN time fails the comparison and counts as uneven.
    uneven = np.flatnonzero(~(np.abs(np.diff(data[:, 0]) - dt) <= 1e-6 * dt))
    if uneven.size:
        raise ParseError(
            f"{path}: line {uneven[0] + 3}: time step differs from the first step "
            f"{float(dt)!r}; samples must be evenly spaced"
        )
    sample_rate = 1.0 / dt
    if abs(sample_rate - round(sample_rate)) < 1e-6 * sample_rate:
        sample_rate = float(round(sample_rate))
    return Recording(
        signals=np.ascontiguousarray(data[:, 1:].T),
        sample_rate=sample_rate,
        label=FaultSpec(kind="healthy"),
        operating_point=OperatingPoint.from_load(0),
        seed=0,
        name=path.stem,
    )


def _check_lines(path: Path) -> None:
    """Scan a recording CSV line by line and raise for the first bad line.

    Returns when every line is well formed: the whole-file parse then only
    counted trailing empty lines or a missing final newline differently.
    """
    raw = path.read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as err:
        line = raw.count(b"\n", 0, err.start) + 1
        raise ParseError(f"{path}: line {line}: not UTF-8 text ({err.reason})") from None
    lines = text.rstrip("\n").split("\n")
    columns = lines[0].split(",")
    if columns[0] != "t":
        raise ParseError(f"{path}: line 1: first column must be 't', got {columns[0]!r}")
    if tuple(columns[1:]) != CHANNEL_NAMES:
        raise ChannelMismatch(
            f"{path}: expected channels {list(CHANNEL_NAMES)}, file has {list(columns[1:])}"
        )
    if len(lines) < 3:
        raise ParseError(f"{path}: line 2: need at least two samples to infer the sample rate")
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != len(CSV_COLUMNS):
            raise ParseError(
                f"{path}: line {lineno}: expected {len(CSV_COLUMNS)} fields, got {len(fields)}"
            )
        try:
            np.loadtxt([line], delimiter=",", comments=None)
        except ValueError:
            raise ParseError(f"{path}: line {lineno}: non-numeric field in {line!r}") from None


def save_catalog(
    recordings: list[Recording],
    directory: str | Path,
    machine: MachineSpec,
    seed: int,
    noise_snr_db: float | None,
) -> Path:
    """Write one ``<name>.npy`` per recording plus a manifest.json into ``directory``.

    Each file holds the recording's ``signals`` array, rows in the
    manifest's ``channels`` order. The .npy header is fixed text, so saving
    the same catalog twice writes the same bytes.

    Returns:
        Path of the manifest file.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    for rec in recordings:
        filename = f"{rec.name}.npy"
        np.save(directory / filename, rec.signals)
        entries.append(
            {
                "name": rec.name,
                "file": filename,
                "fault": codec.to_json(rec.label),
                "operating_point": codec.to_json(rec.operating_point),
                "seed": rec.seed,
            }
        )
    manifest = {
        "machine": codec.to_json(machine),
        "channels": list(CHANNEL_NAMES),
        "seed": seed,
        "noise_snr_db": noise_snr_db,
        "recordings": entries,
    }
    manifest_path = directory / "manifest.json"
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return manifest_path


# The manifest keys load_catalog reads, each required; a top-level "seed"
# and "noise_snr_db" are written for the record and not read back.
MANIFEST_KEYS = ("machine", "channels", "recordings")
ENTRY_KEYS = ("name", "file", "fault", "operating_point", "seed")


def load_catalog(directory: str | Path) -> tuple[list[Recording], MachineSpec, dict]:
    """Read a catalog directory written by save_catalog.

    The whole manifest is checked before any recording file is read. Each
    file is read as .npy without unpickling and must hold one finite float64
    array of shape (channels, machine.n_samples), which becomes the
    recording's signals; the sample rate is the manifest machine's.

    Returns:
        (recordings, machine, manifest) with recordings in manifest order.

    Raises:
        ParseError: A manifest that is not UTF-8 JSON, lacks a key or holds
            a value of the wrong type, naming manifest.json and the key; a
            file that is not a .npy array, or holds another dtype or shape,
            naming the file.
        ChannelMismatch: If the manifest's channels differ from CHANNEL_NAMES.
        NonFinite: If a file holds a NaN or infinite sample, naming the file.
        IoError: If a recording file is missing.
    """
    directory = Path(directory)
    manifest, machine, entries = _read_manifest(directory / "manifest.json")
    shape = (len(CHANNEL_NAMES), machine.n_samples)
    recordings = []
    for entry, label, op in entries:
        path = directory / entry["file"]
        signals = _read_signals(path, shape)
        try:
            rec = Recording(
                signals=signals,
                sample_rate=machine.sample_rate,
                label=label,
                operating_point=op,
                seed=entry["seed"],
                name=entry["name"],
            )
        except NonFinite:
            raise NonFinite(f"{path}: holds NaN or infinite samples") from None
        recordings.append(rec)
    return recordings, machine, manifest


def _read_manifest(path: Path) -> tuple[dict, MachineSpec, list]:
    """Parse and check manifest.json: (manifest, machine, [(entry, fault, operating point)])."""
    try:
        manifest = json.loads(path.read_bytes().decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise ParseError(f"{path}: not UTF-8 JSON: {err}") from None
    if not isinstance(manifest, dict):
        raise ParseError(f"{path}: expected an object, got {type(manifest).__name__}")
    _require_keys(path, manifest, MANIFEST_KEYS, "")
    if manifest["channels"] != list(CHANNEL_NAMES):
        raise ChannelMismatch(
            f"{path}: expected channels {list(CHANNEL_NAMES)}, "
            f"manifest has {manifest['channels']!r}"
        )
    if not isinstance(manifest["recordings"], list):
        raise ParseError(f"{path}: recordings must be a list")
    try:
        machine = codec.from_json(MachineSpec, manifest["machine"], "machine")
        entries = []
        for i, entry in enumerate(manifest["recordings"]):
            where = f"recordings[{i}]"
            if not isinstance(entry, dict):
                raise ParseError(f"{path}: {where} must be an object")
            _require_keys(path, entry, ENTRY_KEYS, f"{where}.")
            for key, kind in (("name", str), ("file", str), ("seed", int)):
                if not isinstance(entry[key], kind) or isinstance(entry[key], bool):
                    raise ParseError(
                        f"{path}: {where}.{key} must be {kind.__name__}, got {entry[key]!r}"
                    )
            fault = codec.from_json(FaultSpec, entry["fault"], f"{where}.fault")
            op = codec.from_json(
                OperatingPoint, entry["operating_point"], f"{where}.operating_point"
            )
            entries.append((entry, fault, op))
    except InvalidConfig as err:
        raise ParseError(f"{path}: {err}") from None
    return manifest, machine, entries


def _require_keys(path: Path, blob: dict, keys: tuple[str, ...], prefix: str) -> None:
    missing = [key for key in keys if key not in blob]
    if missing:
        raise ParseError(f"{path}: missing key(s) {', '.join(prefix + key for key in missing)}")


def _read_signals(path: Path, shape: tuple[int, int]) -> np.ndarray:
    """One recording file: a float64 array of ``shape``, read without unpickling.

    A Fortran-order file is returned in C order, as Recording.signals is.
    """
    if not path.is_file():
        raise IoError(f"recording file not found: {path}")
    with open(path, "rb") as fh:
        try:
            signals = np.lib.format.read_array(fh, allow_pickle=False)
        except (ValueError, EOFError) as err:
            raise ParseError(f"{path}: not a readable .npy array: {err}") from None
    if signals.dtype != np.float64:
        raise ParseError(f"{path}: dtype {signals.dtype}, expected float64")
    if signals.shape != shape:
        raise ParseError(
            f"{path}: shape {signals.shape}, but the manifest records {shape[0]} channels "
            f"of {shape[1]} samples"
        )
    return np.ascontiguousarray(signals)
