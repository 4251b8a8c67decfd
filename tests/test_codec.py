"""Tests for the dataclass-derived JSON codec."""

import pytest

from gnnase import codec
from gnnase.errors import InvalidConfig, InvalidConfigValue
from gnnase.model import ModelConfig, PipelineSettings
from gnnase.simulate import FaultSpec, MachineSpec


class TestDecode:
    def test_int_accepted_for_float(self):
        machine = codec.from_json(MachineSpec, {"sample_rate": 2000})
        assert machine.sample_rate == 2000.0 and isinstance(machine.sample_rate, float)

    @pytest.mark.parametrize("value", [True, 2.0, "2", None])
    def test_int_field_rejects_other_kinds(self, value):
        with pytest.raises(InvalidConfig, match=r"^machine\.pole_pairs: expected int"):
            codec.from_json(MachineSpec, {"pole_pairs": value}, "machine")

    def test_optional_fields_take_null(self):
        fault = codec.from_json(FaultSpec, {"kind": "healthy", "subtype": None, "fv": None})
        assert fault == FaultSpec(kind="healthy")

    def test_nested_dataclass_and_null(self):
        blob = {"window": {"window_len": 64, "hop": 32}, "filter": None}
        pipeline = codec.from_json(PipelineSettings, blob)
        assert pipeline.window.window_len == 64 and pipeline.filter is None
        with pytest.raises(InvalidConfig, match=r"^pipeline\.window\.hopp: unknown key$"):
            codec.from_json(PipelineSettings, {"window": {"hopp": 3}}, "pipeline")

    def test_missing_required_field(self):
        with pytest.raises(InvalidConfig, match=r"^fault\.kind: missing"):
            codec.from_json(FaultSpec, {"severity": 0.0}, "fault")

    def test_range_check_is_cause(self):
        with pytest.raises(InvalidConfig, match=r"^config: beta") as excinfo:
            codec.from_json(ModelConfig, {"beta": 2.0}, "config")
        assert isinstance(excinfo.value.__cause__, InvalidConfigValue)

    def test_round_trip(self):
        pipeline = PipelineSettings(filter=None, neighbors=2, include_frequency=False)
        assert codec.from_json(PipelineSettings, codec.to_json(pipeline)) == pipeline
