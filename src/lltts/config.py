"""Experiment configuration (INI-style text) and checkpoint files."""
from __future__ import annotations

import configparser
import hashlib
import io
import math
import os
import pickle
import tempfile
from dataclasses import dataclass, fields, replace

from .data import TaskSpec
from .errors import ConfigError, FormatError, UsageError, VersionError
from .model import ModelTopology, ParameterSet
from .strategies import FisherState, RunState, StrategyConfig, StrategyKind

CHECKPOINT_MAGIC = b"LLCKPT1\n"

_EXPERIMENT_KEYS = {
    "epochs_per_stage": int,
    "batch_size": int,
    "lr": float,
    "lr_decay_epoch_fraction": float,
    "buffer_capacity": int,
    "seed": int,
    "output_dir": str,
}
_TOPOLOGY_KEYS = {f.name: int for f in fields(ModelTopology)}
# ModelTopology has no defaults of its own; an unset num_languages is one
# past the largest task id
_TOPOLOGY_DEFAULTS = {
    "vocab_size": 40,
    "embed_dim": 16,
    "encoder_hidden": 32,
    "trunk_dim": 32,
    "frame_dim": 8,
    "postnet_hidden": 16,
}
_STRATEGY_KEYS = {
    "kind": str,
    "gamma": float,
    "beta": float,
    "ewc_lambda": float,
    "gem_memory_batch": int,
}
_TASK_KEYS = {
    "seed": int,
    "n_train": int,
    "n_dev": int,
    "n_test": int,
    "seq_len_min": int,
    "seq_len_max": int,
    "transform_scale": float,
}


@dataclass
class ExperimentConfig:
    task_specs: list
    topology: ModelTopology
    strategy: StrategyConfig
    epochs_per_stage: int = 100
    batch_size: int = 84
    lr: float = 0.001
    lr_decay_epoch_fraction: float = 0.6
    buffer_capacity: int = 300
    seed: int = 0
    output_dir: str = "runs/default"

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError("[experiment] seed must be >= 0")
        for key in ("epochs_per_stage", "batch_size", "buffer_capacity"):
            if getattr(self, key) < 1:
                raise ConfigError(f"[experiment] {key} must be >= 1")
        if not 0 < self.lr < math.inf:
            raise ConfigError("[experiment] lr must be finite and > 0")
        if not 0 <= self.lr_decay_epoch_fraction <= 1:
            raise ConfigError("[experiment] lr_decay_epoch_fraction must be in [0, 1]")
        order = self.task_order
        if len(set(order)) != len(order):
            raise ConfigError("duplicate language ids in task order")

    @property
    def task_order(self):
        return [spec.language_id for spec in self.task_specs]


def _typed(section: str, key: str, raw: str, typ):
    # emit_config writes each value on one line, so a continued one cannot round-trip
    if "\n" in raw:
        raise ConfigError(f"[{section}] {key}: a value must fit on one line")
    try:
        if typ is int:
            return int(raw)
        if typ is float:
            return float(raw)
        return raw
    except ValueError:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r} as {typ.__name__}") from None


def _read_section(parser, name: str, schema: dict, required=()):
    """The typed values of the keys the section sets; defaults are left to the caller."""
    out = {}
    if parser.has_section(name):
        for key, raw in parser.items(name):
            if key not in schema:
                raise ConfigError(f"[{name}] unknown key {key!r}")
            out[key] = _typed(name, key, raw, schema[key])
    for key in required:
        if key not in out:
            raise ConfigError(f"[{name}] missing required key {key!r}")
    return out


def parse_config(text: str) -> ExperimentConfig:
    """Strict parse: unknown sections/keys rejected, defaults filled in."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    task_sections = [s for s in parser.sections() if s.startswith("task ")]
    known = {"experiment", "topology", "strategy", *task_sections}
    for section in parser.sections():
        if section not in known:
            raise ConfigError(f"unknown section [{section}]")
    if not task_sections:
        raise ConfigError("config declares no [task <id>] sections")

    exp = _read_section(parser, "experiment", _EXPERIMENT_KEYS)
    topo_raw = {**_TOPOLOGY_DEFAULTS, **_read_section(parser, "topology", _TOPOLOGY_KEYS)}
    strat_raw = _read_section(parser, "strategy", _STRATEGY_KEYS)

    specs = []
    for section in task_sections:
        try:
            language_id = int(section.split(" ", 1)[1])
        except ValueError:
            raise ConfigError(f"[{section}] task section name must be 'task <int>'") from None
        if language_id < 0:
            raise ConfigError(f"[{section}] task id must be >= 0")
        vals = _read_section(parser, section, _TASK_KEYS, required=("seed",))
        if vals["seed"] < 0:
            raise ConfigError(f"[{section}] seed must be >= 0")
        lo, hi = TaskSpec.seq_len_range
        lo, hi = vals.pop("seq_len_min", lo), vals.pop("seq_len_max", hi)
        try:
            spec = TaskSpec(
                language_id=language_id,
                seq_len_range=(lo, hi),
                vocab_size=topo_raw["vocab_size"],
                frame_dim=topo_raw["frame_dim"],
                **vals,
            )
        except UsageError as exc:
            raise ConfigError(f"[{section}] {exc}") from exc
        specs.append(spec)

    if "num_languages" not in topo_raw:
        topo_raw["num_languages"] = max(s.language_id for s in specs) + 1
    try:
        topology = ModelTopology(**topo_raw)
    except UsageError as exc:
        raise ConfigError(f"[topology] {exc}") from exc

    try:
        kind = StrategyKind(strat_raw.pop("kind", "fine_tune"))
    except ValueError:
        raise ConfigError(f"[strategy] unknown kind {parser.get('strategy', 'kind')!r}") from None
    try:
        strategy = StrategyConfig(kind=kind, **strat_raw)
    except UsageError as exc:
        raise ConfigError(f"[strategy] {exc}") from exc

    return ExperimentConfig(task_specs=specs, topology=topology, strategy=strategy, **exp)


def emit_config(config: ExperimentConfig) -> str:
    """Canonical text form, values as str(); parse_config(emit_config(c)) == c."""
    buf = io.StringIO()
    buf.write("[experiment]\n")
    for key in _EXPERIMENT_KEYS:
        buf.write(f"{key} = {getattr(config, key)}\n")
    buf.write("\n[topology]\n")
    for key in _TOPOLOGY_KEYS:
        buf.write(f"{key} = {getattr(config.topology, key)}\n")
    buf.write("\n[strategy]\n")
    for key in _STRATEGY_KEYS:
        value = getattr(config.strategy, key)
        buf.write(f"{key} = {value.value if key == 'kind' else value}\n")
    for spec in config.task_specs:
        buf.write(f"\n[task {spec.language_id}]\n")
        buf.write(f"seed = {spec.seed}\n")
        buf.write(f"n_train = {spec.n_train}\n")
        buf.write(f"n_dev = {spec.n_dev}\n")
        buf.write(f"n_test = {spec.n_test}\n")
        buf.write(f"seq_len_min = {spec.seq_len_range[0]}\n")
        buf.write(f"seq_len_max = {spec.seq_len_range[1]}\n")
        buf.write(f"transform_scale = {spec.transform_scale!r}\n")
    return buf.getvalue()


def config_hash(config: ExperimentConfig) -> str:
    """Digest of every setting that can change a result; the output directory
    is left out, so a moved or copied run directory still resumes."""
    return hashlib.sha256(emit_config(replace(config, output_dir="")).encode()).hexdigest()


def atomic_write(path, payload: bytes) -> None:
    """Write `path` whole or not at all: a temp file in the same directory,
    renamed over `path`; the temp file is removed if anything fails."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)))
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_checkpoint(state: RunState, path, config_hash: str) -> None:
    fstate = state.fstate
    record = {
        "stage": state.stage,
        "param_values": state.params.values,
        "topology": state.params.topology,
        "fisher": None
        if fstate is None
        else {"diag": fstate.fisher_diag, "anchor": fstate.anchor.values},
        "reports": state.reports,
        "stage_curves": state.stage_curves,
        "config_hash": config_hash,
    }
    atomic_write(path, CHECKPOINT_MAGIC + pickle.dumps(record, protocol=4))


def load_checkpoint(path, expected_hash: str | None = None, force: bool = False) -> RunState:
    """The run state saved in `path`; refuses a checkpoint whose config hash is
    not `expected_hash` unless `force` is set. The "buffer" entry of older
    checkpoints is ignored: run_sequence rebuilds the buffer."""
    with open(path, "rb") as f:
        blob = f.read()
    if not blob.startswith(CHECKPOINT_MAGIC[:6]):
        raise FormatError("not a checkpoint file", offset=0)
    if not blob.startswith(CHECKPOINT_MAGIC):
        raise VersionError("unsupported checkpoint version", offset=6)
    try:
        record = pickle.loads(blob[len(CHECKPOINT_MAGIC) :])
        topology = record["topology"]
        fisher = record["fisher"]
        if fisher is not None:
            fisher = FisherState(fisher["diag"], ParameterSet(fisher["anchor"], topology))
        state = RunState(
            stage=record["stage"],
            params=ParameterSet(record["param_values"], topology),
            fstate=fisher,
            reports=record["reports"],
            stage_curves=record["stage_curves"],
        )
        saved_hash = record["config_hash"]
    except Exception as exc:  # a corrupt pickle can raise almost any exception
        raise FormatError(f"corrupt checkpoint: {exc!r}") from exc
    if expected_hash is not None and saved_hash != expected_hash and not force:
        raise UsageError(
            "checkpoint was produced by a different config "
            f"({saved_hash[:12]} != {expected_hash[:12]}); pass force to override"
        )
    return state
