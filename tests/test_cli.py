import json
import math
import os
import pickle
import re
import shutil

import pytest

from lltts.buffer import MemoryBuffer
from lltts.cli import cli
from lltts.config import CHECKPOINT_MAGIC, load_checkpoint, parse_config
from lltts.data import generate_task
from lltts.strategies import hash_seed

CONFIG_TEMPLATE = """
[experiment]
epochs_per_stage = 2
batch_size = 8
buffer_capacity = 10
seed = 0
output_dir = {out}

[topology]
vocab_size = 8
embed_dim = 3
encoder_hidden = 4
trunk_dim = 4
frame_dim = 3
postnet_hidden = 3

[strategy]
kind = {kind}

[task 0]
seed = 1
n_train = 30
n_dev = 4
n_test = 3
seq_len_min = 2
seq_len_max = 4

[task 1]
seed = 2
n_train = 30
n_dev = 4
n_test = 3
seq_len_min = 2
seq_len_max = 4
"""


TASK_2 = (
    "\n[task 2]\nseed = 3\nn_train = 30\nn_dev = 4\nn_test = 3\n"
    "seq_len_min = 2\nseq_len_max = 4\n"
)
RUN_OUTPUTS = ("report.csv", "result.json", "curves.csv")


def result_text(task_order, reports, strategy="FINE_TUNE", mcd=1.0):
    """result.json text whose reports are (stage_language, evaluated languages)
    pairs, every language at MCD `mcd`."""
    return json.dumps({
        "strategy": strategy,
        "task_order": task_order,
        "reports": [
            {"stage_language": stage, "per_language": {str(lang): mcd for lang in langs},
             "average": 1.0}
            for stage, langs in reports
        ],
    })


def write_config(tmp_path, kind="replay_dual", name="exp.ini", extra=""):
    out = tmp_path / f"run_{kind}"
    path = tmp_path / name
    path.write_text(CONFIG_TEMPLATE.format(out=out, kind=kind) + extra)
    return path, out


def read_outputs(out):
    return {name: (out / name).read_bytes() for name in RUN_OUTPUTS}


def resume_after(cfg, out, stage):
    """Resume as if the run had been killed right after writing stage<stage>.ckpt."""
    for path in (out / "checkpoints").glob("stage*.ckpt"):
        if int(path.stem[len("stage"):]) > stage:
            path.unlink()
    for name in RUN_OUTPUTS:
        (out / name).unlink()
    assert cli(["train", "--config", str(cfg), "--resume"]) == 0
    return read_outputs(out)


class TestTrain:
    def test_produces_outputs(self, tmp_path):
        cfg, out = write_config(tmp_path)
        assert cli(["train", "--config", str(cfg)]) == 0
        assert (out / "checkpoints" / "stage0.ckpt").exists()
        assert (out / "checkpoints" / "stage1.ckpt").exists()
        assert (out / "curves.csv").read_text().startswith("epoch,language,raw,smoothed")
        record = json.loads((out / "result.json").read_text())
        assert record["strategy"] == "REPLAY_DUAL"
        assert len(record["reports"]) == 2
        assert (out / "report.csv").exists()

    def test_curves_numbered_by_global_epoch(self, tmp_path):
        cfg, out = write_config(tmp_path)
        text = cfg.read_text().replace("epochs_per_stage = 2", "epochs_per_stage = 4")
        cfg.write_text(text + TASK_2)
        assert cli(["train", "--config", str(cfg)]) == 0
        epochs = {}
        for line in (out / "curves.csv").read_text().strip().split("\n")[1:]:
            epoch, lang, _, _ = line.split(",")
            epochs.setdefault(int(lang), []).append(int(epoch))
        assert epochs == {0: list(range(12)), 1: list(range(4, 12)), 2: list(range(8, 12))}

    def test_missing_config_fails(self, tmp_path):
        assert cli(["train", "--config", str(tmp_path / "nope.ini")]) == 1

    def test_unknown_subcommand_exits_2(self, capsys):
        assert cli(["frobnicate"]) == 2


class TestReport:
    def test_aggregates_runs_with_mcdr(self, tmp_path):
        for kind in ("fine_tune", "replay_dual"):
            cfg, _ = write_config(tmp_path, kind=kind, name=f"{kind}.ini")
            assert cli(["train", "--config", str(cfg)]) == 0
        out_csv = tmp_path / "table.csv"
        assert cli(["report", "--in", str(tmp_path), "--out", str(out_csv)]) == 0
        lines = out_csv.read_text().strip().split("\n")
        assert len(lines) == 3
        assert lines[1].startswith("FINE_TUNE")
        dual_row = lines[2].split(",")
        assert dual_row[0] == "REPLAY_DUAL"
        assert dual_row[-1].endswith("%")

    def test_empty_dir_fails(self, tmp_path):
        os.makedirs(tmp_path / "empty")
        assert cli(["report", "--in", str(tmp_path / "empty"), "--out", str(tmp_path / "o.csv")]) == 1

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"strategy": "FINE_TUNE", "task_order": [0, ', "malformed JSON.*byte offset 44"),
            ('{"strategy": "FINE_TUNE", "task_order": [0]}', "malformed result file.*'reports'"),
            ('{"strategy": "FINE_TUNE", "task_order": [0], "reports": 3}', "malformed result file"),
            (result_text([0, 1], [(0, [0]), (1, [1])]), "malformed result file.*report 1 "),
            (result_text([0, 1], [(0, [0, 1]), (1, [0, 1])]), "malformed result file.*report 0 "),
            (result_text([0, 1], [(1, [0]), (0, [0, 1])]), "malformed result file.*report 0 "),
            (result_text([0, 1], [(0, [0]), (1, [0, 1]), (2, [0, 1, 2])]),
             "malformed result file.*report 2 "),
            (result_text([0, 1, 2], [(0, [0])]), "malformed result file.*1 reports for 3 tasks"),
            (result_text([0], []), "malformed result file.*0 reports for 1 tasks"),
            ('{"strategy": "FINE_TUNE", "task_order": [0], "reports": '
             '[{"stage_language": 0, "per_language": {"0": [1.0]}}]}', "malformed result file"),
            (result_text([True], [(1, [1])]), "malformed result file.*not an int"),
            (result_text([1.0], [(1, [1])]), "malformed result file.*not an int"),
            (result_text([1], [(True, [1])]), "malformed result file.*report 0 "),
            (result_text([1], [(1, [" +0_1"])]), "malformed result file.*report 0 "),
            (result_text([1], [(1, ["01"])]), "malformed result file.*report 0 "),
            (result_text([1], [(1, [" 1"])]), "malformed result file.*report 0 "),
            (result_text([0], [(0, [0])], strategy=7), "malformed result file.*strategy 7 "),
            (result_text([0], [(0, [0])], strategy="A,B\nX"),
             "malformed result file.*strategy 'A,B.*nX' "),
            (result_text([0], [(0, [0])], strategy="fine_tune"),
             "malformed result file.*strategy 'fine_tune' "),
            *[(result_text([0, 1], [(0, [0]), (1, [0, 1])], mcd=mcd),
               "malformed result file.*report 0 has an MCD that is not a finite number")
              for mcd in ("4.5", True, math.nan, -1.0, math.inf, 10**400)],
        ],
        ids=["truncated", "missing_key", "wrong_type", "missing_language", "extra_language",
             "wrong_stage_language", "extra_report", "missing_report", "no_reports", "non_numeric_mcd",
             "bool_language", "float_language", "bool_stage_language", "underscore_key",
             "zero_padded_key", "space_padded_key", "int_strategy", "comma_strategy",
             "unknown_strategy", "string_mcd", "bool_mcd", "nan_mcd", "negative_mcd",
             "infinite_mcd", "int_mcd_past_float"],
    )
    def test_malformed_result_fails(self, tmp_path, capsys, text, message):
        path = tmp_path / "run" / "result.json"
        os.makedirs(path.parent)
        path.write_text(text)
        assert cli(["report", "--in", str(tmp_path), "--out", str(tmp_path / "o.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ")
        assert re.search(message, err)

    @pytest.mark.parametrize("mcd", [0, 4])
    def test_int_mcds_accepted(self, tmp_path, mcd):
        path = tmp_path / "run" / "result.json"
        os.makedirs(path.parent)
        path.write_text(result_text([0, 1], [(0, [0]), (1, [0, 1])], mcd=mcd))
        assert cli(["report", "--in", str(tmp_path), "--out", str(tmp_path / "o.csv")]) == 0
        assert (tmp_path / "o.csv").read_text().split("\n")[1] == (
            f"FINE_TUNE,{mcd:.2f},{mcd:.2f},N/A,{mcd:.2f},{mcd:.2f},{mcd:.2f},N/A"
        )


class TestDeterminismAndResume:
    def test_rerun_byte_identical(self, tmp_path):
        cfg, out = write_config(tmp_path)
        cli(["train", "--config", str(cfg)])
        report1 = (out / "report.csv").read_bytes()
        result1 = (out / "result.json").read_bytes()
        cli(["train", "--config", str(cfg)])
        assert (out / "report.csv").read_bytes() == report1
        assert (out / "result.json").read_bytes() == result1

    def test_failed_run_leaves_no_folder(self, tmp_path, capsys):
        # the tasks are generated before the first stage, and 37 samples of
        # 10**9 tokens do not fit a sample store: the run fails before any
        # checkpoint, with or without --resume, and makes no output folder
        cfg, out = write_config(tmp_path)
        cfg.write_text(cfg.read_text().replace(
            "seq_len_min = 2\nseq_len_max = 4", "seq_len_min = 1000000000\nseq_len_max = 1000000000", 1
        ))
        for resume in ([], ["--resume"]):
            assert cli(["train", "--config", str(cfg), *resume]) == 1
            assert "a sample store holds at most 2147483647 tokens" in capsys.readouterr().err
            assert sorted(tmp_path.iterdir()) == [cfg]

    def test_resume_without_checkpoints_folder_runs_whole(self, tmp_path):
        cfg, out = write_config(tmp_path)
        assert cli(["train", "--config", str(cfg)]) == 0
        uninterrupted = read_outputs(out)
        shutil.rmtree(out)
        assert cli(["train", "--config", str(cfg), "--resume"]) == 0
        assert read_outputs(out) == uninterrupted

    def test_resume_matches_uninterrupted(self, tmp_path):
        cfg, out = write_config(tmp_path)
        cli(["train", "--config", str(cfg)])
        uninterrupted = (out / "report.csv").read_bytes()

        # simulate a kill after stage 0: drop the stage-1 checkpoint and
        # downstream outputs, then resume
        os.unlink(out / "checkpoints" / "stage1.ckpt")
        os.unlink(out / "report.csv")
        os.unlink(out / "result.json")
        assert cli(["train", "--config", str(cfg), "--resume"]) == 0
        assert (out / "report.csv").read_bytes() == uninterrupted

    def test_resume_ignores_stray_checkpoint_names(self, tmp_path):
        cfg, out = write_config(tmp_path)
        cli(["train", "--config", str(cfg)])
        uninterrupted = (out / "report.csv").read_bytes()

        os.unlink(out / "checkpoints" / "stage1.ckpt")
        os.unlink(out / "report.csv")
        for stray in ("stage_old.ckpt", "stage.ckpt", "stage7.ckpt.bak"):
            (out / "checkpoints" / stray).write_bytes(b"not a checkpoint")
        assert cli(["train", "--config", str(cfg), "--resume"]) == 0
        assert (out / "report.csv").read_bytes() == uninterrupted

    def test_moved_run_directory_resumes(self, tmp_path):
        cfg, out = write_config(tmp_path, kind="ewc")
        cli(["train", "--config", str(cfg)])
        uninterrupted = {f: (out / f).read_bytes() for f in ("report.csv", "result.json")}

        moved = tmp_path / "moved"
        shutil.copytree(out, moved)
        os.unlink(moved / "checkpoints" / "stage1.ckpt")
        os.unlink(moved / "report.csv")
        os.unlink(moved / "result.json")
        cfg.write_text(cfg.read_text().replace(f"output_dir = {out}", f"output_dir = {moved}"))
        assert cli(["train", "--config", str(cfg), "--resume"]) == 0
        for name, blob in uninterrupted.items():
            assert (moved / name).read_bytes() == blob

    @pytest.mark.parametrize(
        "kind",
        ["replay_random", "replay_weighted", "replay_dual", "gem", "ewc", "fine_tune", "joint"],
    )
    def test_resume_from_every_stage_byte_identical(self, tmp_path, kind):
        # buffer_capacity 10 over 3 tasks evicts at every stage, so a rebuilt
        # buffer must continue the uninterrupted run's rng stream; every
        # strategy refills the buffer, those that never read it too
        cfg, out = write_config(tmp_path, kind=kind, extra=TASK_2)
        assert cli(["train", "--config", str(cfg)]) == 0
        uninterrupted = read_outputs(out)
        assert resume_after(cfg, out, 1) == uninterrupted
        assert resume_after(cfg, out, 0) == uninterrupted

    def test_resume_from_checkpoint_with_buffer_entry(self, tmp_path):
        # checkpoints also used to store a JSON-able copy of the replay
        # buffer; such a file still resumes, and the entry is ignored
        cfg, out = write_config(tmp_path, extra=TASK_2)
        assert cli(["train", "--config", str(cfg)]) == 0
        uninterrupted = read_outputs(out)

        config = parse_config(cfg.read_text())
        buf = MemoryBuffer(config.buffer_capacity, rng_seed=hash_seed(config.seed, 0xB0F))
        buf.integrate_task(generate_task(config.task_specs[0]))
        path = out / "checkpoints" / "stage0.ckpt"
        record = pickle.loads(path.read_bytes()[len(CHECKPOINT_MAGIC):])
        record["buffer"] = {
            "capacity": buf.capacity,
            "rng_seed": hash_seed(config.seed, 0xB0F),
            "rng_state": buf._rng.bit_generator.state,
            "slots": [
                {
                    "language_id": lang,
                    "samples": [
                        {"tokens": s.tokens.tolist(), "frames": s.target_frames.tolist()}
                        for s in samples
                    ],
                }
                for lang, samples in buf.slots.items()
            ],
        }
        path.write_bytes(CHECKPOINT_MAGIC + pickle.dumps(record, protocol=4))
        assert resume_after(cfg, out, 0) == uninterrupted

    def test_resume_from_checkpoint_with_stored_averages(self, tmp_path):
        # McdReport.average used to be a dataclass field, so older checkpoints
        # pickle each report's average in its __dict__; such a file still
        # loads to the same averages and resumes to the same outputs
        cfg, out = write_config(tmp_path, extra=TASK_2)
        assert cli(["train", "--config", str(cfg)]) == 0
        uninterrupted = read_outputs(out)
        path = out / "checkpoints" / "stage1.ckpt"
        record = pickle.loads(path.read_bytes()[len(CHECKPOINT_MAGIC):])
        averages = [report.average for report in record["reports"]]
        for report in record["reports"]:
            assert "average" not in report.__dict__
            report.__dict__["average"] = report.average
        path.write_bytes(CHECKPOINT_MAGIC + pickle.dumps(record, protocol=4))
        state = load_checkpoint(path)
        assert [report.__dict__["average"] for report in state.reports] == averages
        assert [report.average for report in state.reports] == averages
        assert resume_after(cfg, out, 1) == uninterrupted

    def test_checkpoint_size_independent_of_buffer_capacity(self, tmp_path):
        cfg, out = write_config(tmp_path, extra=TASK_2)
        large = tmp_path / "large"
        text = cfg.read_text().replace("buffer_capacity = 10", "buffer_capacity = 40")
        cfg_large = tmp_path / "large.ini"
        cfg_large.write_text(text.replace(f"output_dir = {out}", f"output_dir = {large}"))
        for path in (cfg, cfg_large):
            assert cli(["train", "--config", str(path)]) == 0
        for stage in range(3):
            name = f"stage{stage}.ckpt"
            assert os.path.getsize(out / "checkpoints" / name) == os.path.getsize(
                large / "checkpoints" / name
            )

    def test_resume_past_the_configs_task_count_refused(self, tmp_path, capsys):
        # a 3-task run's last checkpoint finished stage 2; a 2-task config has
        # no stage 2, so resuming it under --force must not write a report
        cfg, out = write_config(tmp_path, extra=TASK_2)
        assert cli(["train", "--config", str(cfg)]) == 0
        for name in RUN_OUTPUTS:
            (out / name).unlink()
        cfg.write_text(cfg.read_text().replace(TASK_2, ""))
        capsys.readouterr()
        assert cli(["train", "--config", str(cfg), "--resume", "--force"]) == 1
        err = capsys.readouterr().err
        assert "stage 2" in err and "2 tasks" in err
        assert not any((out / name).exists() for name in RUN_OUTPUTS)

    def test_resume_with_changed_config_refused(self, tmp_path):
        cfg, out = write_config(tmp_path)
        cli(["train", "--config", str(cfg)])
        text = cfg.read_text().replace("seed = 0", "seed = 9")
        cfg.write_text(text)
        assert cli(["train", "--config", str(cfg), "--resume"]) == 1
        assert cli(["train", "--config", str(cfg), "--resume", "--force"]) == 0


class TestLogLevel:
    @pytest.mark.parametrize("value, code", [
        ("error", 1), ("INFO", 1), ("debug", 1), ("warning", 2), ("inf", 2), ("", 2),
    ])
    def test_only_the_three_levels_are_accepted(self, tmp_path, monkeypatch, capsys, value, code):
        # an empty run tree makes `report` exit 1 once logging is set up
        monkeypatch.setenv("LLTTS_LOG", value)
        assert cli(["report", "--in", str(tmp_path), "--out", str(tmp_path / "o.csv")]) == code
        err = capsys.readouterr().err
        if code == 2:
            assert err.startswith(f"error: LLTTS_LOG={value!r}: ")
            assert all(level in err for level in ("error", "info", "debug"))
