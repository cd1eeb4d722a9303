import hashlib
import os
import pathlib

import numpy as np
import pytest

from lltts.config import (
    ExperimentConfig,
    config_hash,
    emit_config,
    load_checkpoint,
    parse_config,
    save_checkpoint,
)
from lltts.data import TaskSpec, generate_task, save_dataset
from lltts.errors import ConfigError, FormatError, UsageError
from lltts.model import ModelTopology, init_params
from lltts.strategies import RunState, StrategyConfig, StrategyKind

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

    @pytest.mark.parametrize(
        "text, section",
        [
            ("\n[task -1]\nseed = 5\n", r"\[task -1\] task id"),
            ("\n[task 4]\nseed = -5\n", r"\[task 4\] seed"),
            ("\n[experiment]\nseed = -1\n", r"\[experiment\] seed"),
        ],
        ids=["task_id", "task_seed", "experiment_seed"],
    )
    def test_negative_id_or_seed_rejected(self, text, section):
        with pytest.raises(ConfigError, match=section):
            parse_config(MINIMAL + text)

    @pytest.mark.parametrize(
        "text, message",
        [
            (MINIMAL + "[experiment]\nepochs_per_stage = 0\n", r"\[experiment\] epochs_per_stage"),
            (MINIMAL + "[experiment]\nbatch_size = 0\n", r"\[experiment\] batch_size"),
            (MINIMAL + "[experiment]\nbuffer_capacity = -3\n", r"\[experiment\] buffer_capacity"),
            (
                "[strategy]\nkind = gem\ngem_memory_batch = 0\n[task 0]\nseed = 1\n",
                r"\[strategy\] gem_memory_batch",
            ),
            (MINIMAL + "[task 4]\nseed = 5\nn_train = 0\n", r"\[task 4\] split sizes n_train"),
            (
                MINIMAL + "[task 4]\nseed = 5\nseq_len_min = 9\nseq_len_max = 3\n",
                r"\[task 4\] invalid seq_len_range",
            ),
            (MINIMAL + "[experiment]\nlr = 0\n", r"\[experiment\] lr must"),
            (MINIMAL + "[experiment]\nlr = inf\n", r"\[experiment\] lr must"),
            (MINIMAL + "[experiment]\nlr = nan\n", r"\[experiment\] lr must"),
            (
                MINIMAL + "[experiment]\nlr_decay_epoch_fraction = nan\n",
                r"\[experiment\] lr_decay_epoch_fraction",
            ),
            (
                MINIMAL + "[experiment]\nlr_decay_epoch_fraction = 1.5\n",
                r"\[experiment\] lr_decay_epoch_fraction",
            ),
            ("[strategy]\ngamma = nan\n[task 0]\nseed = 1\n", r"\[strategy\] gamma"),
            ("[strategy]\nbeta = inf\n[task 0]\nseed = 1\n", r"\[strategy\] beta"),
            ("[strategy]\newc_lambda = -3\n[task 0]\nseed = 1\n", r"\[strategy\] ewc_lambda"),
            ("[strategy]\newc_lambda = nan\n[task 0]\nseed = 1\n", r"\[strategy\] ewc_lambda"),
            (MINIMAL + "[task 4]\nseed = 5\ntransform_scale = nan\n", r"\[task 4\] transform_scale"),
            (MINIMAL + "[task 4]\nseed = 5\ntransform_scale = -inf\n", r"\[task 4\] transform_scale"),
        ],
        ids=[
            "epochs_per_stage", "batch_size", "buffer_capacity", "gem_memory_batch", "n_train",
            "seq_len", "lr_zero", "lr_inf", "lr_nan", "lr_decay_nan", "lr_decay_above_1",
            "gamma_nan", "beta_inf", "ewc_lambda_negative", "ewc_lambda_nan", "transform_scale_nan",
            "transform_scale_inf",
        ],
    )
    def test_invalid_size_rejected(self, text, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(text)

    @pytest.mark.parametrize(
        "name, emitted, hashed",
        [
            (
                "desk.ini",
                "07c6960f33b5159311fc6c19faa1c5f9c1c9a0debd536d60ea0a5980a7120306",
                "1ca1bb757df8a775a6707ada8d8588d0ae987dfa36c99d1b72b10c59b924871f",
            ),
            (
                "paper_scale.ini",
                "531384db6fc5234f92845624d3a77dad1f0a44cdd65e1b1ecc4c4439f9aae6a8",
                "d64657ca07309453a99c555ff780cf4e094f54fa7b7fb0bfe84ebb516a28da4e",
            ),
        ],
    )
    def test_shipped_configs_pinned(self, name, emitted, hashed):
        # checkpoints store config_hash, so a change to the canonical text
        # would refuse every existing run directory on --resume
        path = pathlib.Path(__file__).parent.parent / "configs" / name
        cfg = parse_config(path.read_text())
        assert hashlib.sha256(emit_config(cfg).encode()).hexdigest() == emitted
        assert config_hash(cfg) == hashed


def _tiny_checkpoint():
    topo = ModelTopology(6, 3, 4, 4, 3, 3, 2)
    params = init_params(topo, 0)
    return RunState(stage=0, params=params, fstate=None, reports=[], stage_curves=[])


HASH = "abc123" * 8


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        state = _tiny_checkpoint()
        path = tmp_path / "stage0.ckpt"
        save_checkpoint(state, path, HASH)
        loaded = load_checkpoint(path)
        np.testing.assert_array_equal(loaded.params.values, state.params.values)
        assert (loaded.stage, loaded.fstate, loaded.reports) == (0, None, [])
        # the stored hash is the one saved: it passes the mismatch guard
        assert load_checkpoint(path, expected_hash=HASH).stage == 0

    def test_hash_mismatch_refused(self, tmp_path):
        state = _tiny_checkpoint()
        path = tmp_path / "stage0.ckpt"
        save_checkpoint(state, path, HASH)
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


def _write_tiny_dataset(path):
    spec = TaskSpec(language_id=0, seed=1, n_train=10, n_dev=2, n_test=2,
                    vocab_size=6, frame_dim=3)
    save_dataset(generate_task(spec), path, vocab_size=6)


@pytest.mark.parametrize(
    "write",
    [_write_tiny_dataset, lambda path: save_checkpoint(_tiny_checkpoint(), path, HASH)],
    ids=["dataset", "checkpoint"],
)
def test_failed_rename_keeps_old_file(tmp_path, monkeypatch, write):
    path = tmp_path / "target"
    path.write_bytes(b"old contents")

    def failing_replace(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="rename failed"):
        write(path)
    assert path.read_bytes() == b"old contents"
    assert os.listdir(tmp_path) == ["target"]
