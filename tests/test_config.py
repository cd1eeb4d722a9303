import numpy as np
import pytest

from lltts.buffer import MemoryBuffer
from lltts.config import (
    Checkpoint,
    ExperimentConfig,
    config_hash,
    emit_config,
    load_checkpoint,
    parse_config,
    restore_buffer,
    save_checkpoint,
)
from lltts.data import TaskSpec, generate_task
from lltts.errors import ConfigError, FormatError, UsageError
from lltts.model import ModelTopology, init_params
from lltts.strategies import StrategyConfig, StrategyKind

MINIMAL = """
[strategy]
kind = replay_dual

[task 0]
seed = 1

[task 1]
seed = 2

[task 2]
seed = 3

[task 3]
seed = 4
"""


class TestParseConfig:
    def test_minimal_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.epochs_per_stage == 100
        assert cfg.batch_size == 84
        assert cfg.lr == 0.001
        assert cfg.buffer_capacity == 300
        assert cfg.lr_decay_epoch_fraction == 0.6
        assert cfg.task_order == [0, 1, 2, 3]
        assert cfg.topology.num_languages == 4
        assert cfg.strategy.kind is StrategyKind.REPLAY_DUAL
        assert cfg.strategy.gamma == 0.5
        assert cfg.strategy.beta == 1.0

    def test_duplicate_task_rejected(self):
        text = MINIMAL + "\n[task 1]\nseed = 9\n"
        with pytest.raises(ConfigError):
            parse_config(text)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(MINIMAL + "\n[experiment]\nbogus = 1\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config(MINIMAL + "\n[mystery]\na = 1\n")

    def test_missing_tasks_rejected(self):
        with pytest.raises(ConfigError, match="task"):
            parse_config("[strategy]\nkind = joint\n")

    def test_type_mismatch_rejected(self):
        with pytest.raises(ConfigError, match="epochs_per_stage"):
            parse_config(MINIMAL + "\n[experiment]\nepochs_per_stage = soon\n")

    def test_unknown_strategy_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            parse_config("[strategy]\nkind = wishful\n[task 0]\nseed = 1\n")

    def test_round_trip(self):
        cfg = parse_config(MINIMAL)
        again = parse_config(emit_config(cfg))
        assert again == cfg
        assert config_hash(again) == config_hash(cfg)


def _tiny_checkpoint():
    topo = ModelTopology(6, 3, 4, 4, 3, 3, 2)
    params = init_params(topo, 0)
    buf = MemoryBuffer(capacity=6, rng_seed=1)
    spec = TaskSpec(language_id=0, seed=1, n_train=10, n_dev=2, n_test=2,
                    vocab_size=6, frame_dim=3)
    buf.integrate_task(generate_task(spec))
    return Checkpoint(
        stage=0,
        params=params,
        buffer_snapshot=buf.snapshot(),
        fisher=None,
        reports=[],
        stage_curves=[],
        config_hash="abc123" * 8,
    ), buf


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        cp, buf = _tiny_checkpoint()
        path = tmp_path / "stage0.ckpt"
        save_checkpoint(cp, path)
        loaded = load_checkpoint(path)
        np.testing.assert_array_equal(loaded.params.values, cp.params.values)
        assert restore_buffer(loaded) == buf
        assert loaded.config_hash == cp.config_hash

    def test_hash_mismatch_refused(self, tmp_path):
        cp, _ = _tiny_checkpoint()
        path = tmp_path / "stage0.ckpt"
        save_checkpoint(cp, path)
        with pytest.raises(UsageError, match="different config"):
            load_checkpoint(path, expected_hash="f" * 48)
        loaded = load_checkpoint(path, expected_hash="f" * 48, force=True)
        assert loaded.stage == 0

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"LLCKPT1\n not a pickle")
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"garbage")
        with pytest.raises(FormatError):
            load_checkpoint(path)
