import pytest
from hypothesis import settings

from gaitreg import RunConfig, generate

# property tests draw the same examples on every run and never time out
settings.register_profile("tier1", derandomize=True, deadline=None, max_examples=40)
settings.load_profile("tier1")

SMALL_OVERRIDES = {
    "trials_per_mode": {
        "NormalWalk": 2,
        "StairAscent": 2,
        "StairDescent": 2,
        "SlopeAscent": 2,
        "SlopeDescent": 2,
    },
    "samples_per_trial": 48,
    "epochs": 3,
    "svr_max_updates": 2000,
}


@pytest.fixture(scope="session")
def small_config():
    return RunConfig.from_dict(SMALL_OVERRIDES)


@pytest.fixture(scope="session")
def small_dataset(small_config):
    return generate(small_config.synth_config())


@pytest.fixture(scope="session")
def default_config():
    return RunConfig()


@pytest.fixture(scope="session")
def default_dataset(default_config):
    return generate(default_config.synth_config())
