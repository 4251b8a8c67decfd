"""Structured run configuration shared by every command.

A run is described by one JSON file with optional sections; omitted keys
fall back to defaults, and command-line flags override file values. The
single master seed fans out to per-stage seeds through derive_seed, so two
runs with the same file and flags are byte-identical.
"""

import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from . import codec
from .errors import InvalidConfig, InvalidConfigValue, IoError
from .features import WindowSpec
from .model import ModelConfig, PipelineSettings
from .numerics import derive_seed
from .preprocess import FilterSpec
from .simulate import MachineSpec

# Sections that hold plain RunConfig fields; every other section is one
# nested settings dataclass of the same name.
FLAT_SECTIONS = {
    "simulate": ("replicates", "noise_snr_db"),
    "split": ("ratios",),
    "graph": ("neighbors",),
    "paths": ("dataset_dir", "checkpoint", "out_dir"),
}


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    machine: MachineSpec = field(default_factory=MachineSpec)
    replicates: int = 1
    noise_snr_db: float | None = 30.0
    window: WindowSpec = field(default_factory=WindowSpec)
    filter: FilterSpec | None = field(default_factory=FilterSpec)
    model: ModelConfig = field(default_factory=ModelConfig)
    ratios: tuple[float, float, float] = (0.7, 0.15, 0.15)
    neighbors: int = 4
    dataset_dir: str = "dataset"
    checkpoint: str = "checkpoint.bin"
    out_dir: str = "out"

    def __post_init__(self):
        if self.replicates < 1:
            raise InvalidConfigValue(f"simulate.replicates: must be >= 1, got {self.replicates}")
        if self.neighbors < 0:
            raise InvalidConfigValue(f"graph.neighbors: must be >= 0, got {self.neighbors}")

    def pipeline(self, include_frequency: bool = True) -> PipelineSettings:
        return PipelineSettings(
            window=self.window,
            filter=self.filter,
            neighbors=self.neighbors,
            include_frequency=include_frequency,
            sample_rate=self.machine.sample_rate,
        )

    # Per-stage seeds all hang off the master seed; the labels are part
    # of the file format, so renaming one breaks reproducibility.
    def simulate_seed(self, replicate: int = 0) -> int:
        return derive_seed(self.seed, "simulate", str(replicate))

    def split_seed(self) -> int:
        return derive_seed(self.seed, "split-stage")

    def train_seed(self) -> int:
        return derive_seed(self.seed, "train-stage")


def config_from_json(blob: dict) -> RunConfig:
    """Validate a parsed config document; omitted keys keep their defaults.

    Raises:
        InvalidConfig: Naming the offending key path.
    """
    if not isinstance(blob, dict):
        raise InvalidConfig(f"config root must be an object, got {blob!r}")
    flat = {name for names in FLAT_SECTIONS.values() for name in names}
    kwargs = codec.fields_from_json(
        RunConfig,
        {key: value for key, value in blob.items() if key not in FLAT_SECTIONS},
        names=[f.name for f in fields(RunConfig) if f.name not in flat],
    )
    for section, names in FLAT_SECTIONS.items():
        kwargs.update(codec.fields_from_json(RunConfig, blob.get(section, {}), section, names))
    config = codec.build(RunConfig, kwargs)
    if "seed" not in blob.get("model", {}):
        config = replace(config, model=replace(config.model, seed=config.train_seed()))
    return config


def config_to_json(config: RunConfig) -> dict:
    """Fully resolved document; load(dump(c)) == c."""
    blob = codec.to_json(config)
    for section, names in FLAT_SECTIONS.items():
        blob[section] = {name: blob.pop(name) for name in names}
    return blob


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
        if not isinstance(blob, dict):
            raise InvalidConfig(f"config root must be an object, got {blob!r}")
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
