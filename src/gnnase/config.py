"""Structured run configuration shared by every command.

A run is described by one JSON file with optional sections; omitted keys
fall back to defaults, and command-line flags override file values. The
single master seed fans out to per-stage seeds through derive_seed, so two
runs with the same file and flags are byte-identical.
"""

import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import InvalidConfig, IoError
from .features import WindowSpec
from .model import ModelConfig, PipelineSettings
from .numerics import derive_seed
from .preprocess import FilterSpec
from .simulate import MachineSpec

SECTIONS = ("machine", "simulate", "window", "filter", "augment", "model", "split", "graph", "paths")


@dataclass(frozen=True)
class AugmentSettings:
    """Training-split augmentation; copies=0 disables it."""

    copies: int = 0
    max_shift_fraction: float = 0.1
    scale_range: tuple[float, float] = (0.8, 1.2)
    noise_fraction: float = 0.01


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    machine: MachineSpec = field(default_factory=MachineSpec)
    replicates: int = 1
    noise_snr_db: float | None = 30.0
    window: WindowSpec = field(default_factory=WindowSpec)
    filter: FilterSpec | None = field(default_factory=FilterSpec)
    augment: AugmentSettings = field(default_factory=AugmentSettings)
    model: ModelConfig = field(default_factory=ModelConfig)
    ratios: tuple[float, float, float] = (0.7, 0.15, 0.15)
    neighbors: int = 4
    dataset_dir: str = "dataset"
    checkpoint: str = "checkpoint.json"
    out_dir: str = "out"

    def pipeline(self, include_frequency: bool = True) -> PipelineSettings:
        return PipelineSettings(
            window=self.window,
            filter=self.filter,
            neighbors=self.neighbors,
            include_frequency=include_frequency,
        )

    # Per-stage seeds all hang off the master seed; the labels are part
    # of the file format, so renaming one breaks reproducibility.
    def simulate_seed(self, replicate: int = 0) -> int:
        return derive_seed(self.seed, "simulate", str(replicate))

    def split_seed(self) -> int:
        return derive_seed(self.seed, "split-stage")

    def augment_seed(self) -> int:
        return derive_seed(self.seed, "augment-stage")

    def train_seed(self) -> int:
        return derive_seed(self.seed, "train-stage")


def _expect(blob: dict, section: str, key: str, kinds, default):
    value = blob.get(key, default)
    if value is default:
        return value
    if kinds is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kinds) or isinstance(value, bool):
        path = f"{section}.{key}" if section else key
        raise InvalidConfig(f"{path}: expected {getattr(kinds, '__name__', kinds)}, got {value!r}")
    return value


def _section(blob: dict, name: str) -> dict:
    section = blob.get(name, {})
    if section is None:
        return {}
    if not isinstance(section, dict):
        raise InvalidConfig(f"{name}: expected an object, got {section!r}")
    return section


def _build(section_name: str, factory, kwargs):
    try:
        return factory(**kwargs)
    except ValueError as err:
        raise InvalidConfig(f"{section_name}: {err}") from err


def config_from_json(blob: dict) -> RunConfig:
    """Validate a parsed config document section by section.

    Raises:
        InvalidConfig: Naming the offending key path.
    """
    if not isinstance(blob, dict):
        raise InvalidConfig(f"config root must be an object, got {blob!r}")
    unknown = set(blob) - set(SECTIONS) - {"seed"}
    if unknown:
        raise InvalidConfig(f"unknown section(s): {sorted(unknown)}")

    seed = _expect(blob, "", "seed", int, 0)

    mach = _section(blob, "machine")
    machine = _build(
        "machine",
        MachineSpec,
        dict(
            supply_frequency=_expect(mach, "machine", "supply_frequency", float, 50.0),
            pole_pairs=_expect(mach, "machine", "pole_pairs", int, 2),
            rated_current=_expect(mach, "machine", "rated_current", float, 10.0),
            sample_rate=_expect(mach, "machine", "sample_rate", float, 10_000.0),
            duration=_expect(mach, "machine", "duration", float, 1.0),
        ),
    )

    sim = _section(blob, "simulate")
    replicates = _expect(sim, "simulate", "replicates", int, 1)
    if replicates < 1:
        raise InvalidConfig(f"simulate.replicates: must be >= 1, got {replicates}")
    noise = sim.get("noise_snr_db", 30.0)
    if noise is not None:
        noise = _expect(sim, "simulate", "noise_snr_db", float, 30.0)

    win = _section(blob, "window")
    window = _build(
        "window",
        WindowSpec,
        dict(
            window_len=_expect(win, "window", "window_len", int, 2048),
            hop=_expect(win, "window", "hop", int, 1024),
        ),
    )

    filter_spec: FilterSpec | None
    if blob.get("filter", {}) is None:
        filter_spec = None
    else:
        filt = _section(blob, "filter")
        filter_spec = _build(
            "filter",
            FilterSpec,
            dict(
                cutoff=_expect(filt, "filter", "cutoff", float, 1000.0),
                order=_expect(filt, "filter", "order", int, 4),
            ),
        )

    aug = _section(blob, "augment")
    scale_range = aug.get("scale_range", (0.8, 1.2))
    if not (isinstance(scale_range, (list, tuple)) and len(scale_range) == 2):
        raise InvalidConfig(f"augment.scale_range: expected two values, got {scale_range!r}")
    augment = AugmentSettings(
        copies=_expect(aug, "augment", "copies", int, 0),
        max_shift_fraction=_expect(aug, "augment", "max_shift_fraction", float, 0.1),
        scale_range=(float(scale_range[0]), float(scale_range[1])),
        noise_fraction=_expect(aug, "augment", "noise_fraction", float, 0.01),
    )
    if augment.copies < 0:
        raise InvalidConfig(f"augment.copies: must be >= 0, got {augment.copies}")

    mod = _section(blob, "model")
    model_kwargs = dict(
        embed_dim=_expect(mod, "model", "embed_dim", int, 128),
        gcn1_dim=_expect(mod, "model", "gcn1_dim", int, 64),
        gcn2_dim=_expect(mod, "model", "gcn2_dim", int, 64),
        severity_dim=_expect(mod, "model", "severity_dim", int, 32),
        learning_rate=_expect(mod, "model", "learning_rate", float, 0.01),
        lr_schedule=_expect(mod, "model", "lr_schedule", str, "cosine"),
        dropout_p=_expect(mod, "model", "dropout_p", float, 0.5),
        beta=_expect(mod, "model", "beta", float, 0.3),
        epochs=_expect(mod, "model", "epochs", int, 400),
        batch_size=_expect(mod, "model", "batch_size", int, 10),
        lambda_anomaly=_expect(mod, "model", "lambda_anomaly", float, 1.0),
        lambda_type=_expect(mod, "model", "lambda_type", float, 1.0),
        lambda_severity=_expect(mod, "model", "lambda_severity", float, 1.0),
        ablation=_expect(mod, "model", "ablation", str, "full"),
        severity_to_trunk=mod.get("severity_to_trunk", False),
        severity_bins=_expect(mod, "model", "severity_bins", int, 0),
    )
    model_kwargs["seed"] = (
        _expect(mod, "model", "seed", int, None)
        if "seed" in mod
        else derive_seed(seed, "train-stage")
    )
    model = _build("model", ModelConfig, model_kwargs)

    spl = _section(blob, "split")
    ratios = spl.get("ratios", (0.7, 0.15, 0.15))
    if not (isinstance(ratios, (list, tuple)) and len(ratios) == 3):
        raise InvalidConfig(f"split.ratios: expected three values, got {ratios!r}")
    try:
        ratios = tuple(float(r) for r in ratios)
    except (TypeError, ValueError) as err:
        raise InvalidConfig(f"split.ratios: {err}") from err

    gra = _section(blob, "graph")
    neighbors = _expect(gra, "graph", "neighbors", int, 4)
    if neighbors < 0:
        raise InvalidConfig(f"graph.neighbors: must be >= 0, got {neighbors}")

    paths = _section(blob, "paths")
    return RunConfig(
        seed=seed,
        machine=machine,
        replicates=replicates,
        noise_snr_db=noise,
        window=window,
        filter=filter_spec,
        augment=augment,
        model=model,
        ratios=ratios,
        neighbors=neighbors,
        dataset_dir=_expect(paths, "paths", "dataset_dir", str, "dataset"),
        checkpoint=_expect(paths, "paths", "checkpoint", str, "checkpoint.json"),
        out_dir=_expect(paths, "paths", "out_dir", str, "out"),
    )


def config_to_json(config: RunConfig) -> dict:
    """Fully resolved document; load(dump(c)) == c."""
    return {
        "seed": config.seed,
        "machine": {
            "supply_frequency": config.machine.supply_frequency,
            "pole_pairs": config.machine.pole_pairs,
            "rated_current": config.machine.rated_current,
            "sample_rate": config.machine.sample_rate,
            "duration": config.machine.duration,
        },
        "simulate": {"replicates": config.replicates, "noise_snr_db": config.noise_snr_db},
        "window": {"window_len": config.window.window_len, "hop": config.window.hop},
        "filter": None
        if config.filter is None
        else {"cutoff": config.filter.cutoff, "order": config.filter.order},
        "augment": {
            "copies": config.augment.copies,
            "max_shift_fraction": config.augment.max_shift_fraction,
            "scale_range": list(config.augment.scale_range),
            "noise_fraction": config.augment.noise_fraction,
        },
        "model": {
            "embed_dim": config.model.embed_dim,
            "gcn1_dim": config.model.gcn1_dim,
            "gcn2_dim": config.model.gcn2_dim,
            "severity_dim": config.model.severity_dim,
            "learning_rate": config.model.learning_rate,
            "lr_schedule": config.model.lr_schedule,
            "dropout_p": config.model.dropout_p,
            "beta": config.model.beta,
            "epochs": config.model.epochs,
            "batch_size": config.model.batch_size,
            "lambda_anomaly": config.model.lambda_anomaly,
            "lambda_type": config.model.lambda_type,
            "lambda_severity": config.model.lambda_severity,
            "ablation": config.model.ablation,
            "seed": config.model.seed,
            "severity_to_trunk": config.model.severity_to_trunk,
            "severity_bins": config.model.severity_bins,
        },
        "split": {"ratios": list(config.ratios)},
        "graph": {"neighbors": config.neighbors},
        "paths": {
            "dataset_dir": config.dataset_dir,
            "checkpoint": config.checkpoint,
            "out_dir": config.out_dir,
        },
    }


def load_config(path: str | Path | None, overrides: dict | None = None) -> RunConfig:
    """Read the config file (defaults when absent) and apply overrides.

    Overrides are flat {"seed": ..., "paths.out_dir": ...} entries from
    command-line flags; they take precedence over file values.

    Raises:
        IoError: If the file is missing or unreadable.
        InvalidConfig: If the document does not parse or validate.
    """
    blob: dict = {}
    if path is not None:
        path = Path(path)
        if not path.is_file():
            raise IoError(f"config file not found: {path}")
        try:
            blob = json.loads(path.read_text())
        except json.JSONDecodeError as err:
            raise InvalidConfig(f"{path}: {err}") from err
    for dotted, value in (overrides or {}).items():
        parts = dotted.split(".")
        target = blob
        for part in parts[:-1]:
            target = target.setdefault(part, {})
            if not isinstance(target, dict):
                raise InvalidConfig(f"{dotted}: cannot override inside non-object")
        target[parts[-1]] = value
    return config_from_json(blob)


def write_resolved(config: RunConfig, out_dir: str | Path) -> Path:
    """Echo the fully resolved config into the output directory."""
    out = Path(out_dir) / "config_resolved.json"
    out.write_text(json.dumps(config_to_json(config), indent=2, sort_keys=True) + "\n")
    return out
