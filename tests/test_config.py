import pytest

from gaitreg import RunConfig, SynthConfig
from gaitreg.config import MAX_PHASE_BINS
from gaitreg.errors import ConfigError
from gaitreg.mlp import TrainConfig


def test_defaults_match_the_synth_and_train_configs():
    assert RunConfig().synth_config() == SynthConfig()
    assert RunConfig().train_config() == TrainConfig()


def test_values_are_echoed_as_written():
    # an int for a float key stays an int, so report.json keeps the config's bytes
    config = RunConfig.from_dict({"cutoff_hz": 6, "layer_dims": [6, 20, 2]})
    assert config.to_dict()["cutoff_hz"] == 6 and type(config.cutoff_hz) is int
    assert config.to_dict()["layer_dims"] == [6, 20, 2]


@pytest.mark.parametrize("grid", [[1.0, "10"], [1.0, True], [1.0, float("inf")]])
def test_grid_entries_must_be_finite_numbers(grid):
    with pytest.raises(ConfigError, match="svr_grid_c"):
        RunConfig(svr_grid_c=grid, svr_grid_epsilon=[0.1], svr_grid_gamma=[1.0])


@pytest.mark.parametrize("bins", [1, MAX_PHASE_BINS + 1, 100_000_000])
def test_phase_bins_outside_its_range_refused(bins):
    with pytest.raises(ConfigError, match=f"phase_bins must be 2 to 10000, got {bins}"):
        RunConfig(phase_bins=bins)


def test_phase_bins_at_its_bounds_accepted():
    assert RunConfig(phase_bins=2).phase_bins == 2
    assert RunConfig(phase_bins=MAX_PHASE_BINS).phase_bins == MAX_PHASE_BINS
