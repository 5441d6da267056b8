from gaitreg import RunConfig, SynthConfig
from gaitreg.mlp import TrainConfig


def test_defaults_match_the_synth_and_train_configs():
    assert RunConfig().synth_config() == SynthConfig()
    assert RunConfig().train_config() == TrainConfig()
