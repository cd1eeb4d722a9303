"""Lifelong multilingual training engine with replay-based strategies."""

from .buffer import MemoryBuffer
from .config import ExperimentConfig, parse_config
from .data import TaskDataset, TaskSpec, generate_task, generate_tasks, merge_replay
from .metrics import McdReport, mcd, mcdr, smooth_curve, stage_eval
from .model import (
    AdamState,
    Head,
    ModelTopology,
    ParameterSet,
    adam_step,
    finite_diff_check,
    forward,
    infer,
    init_params,
    loss_and_grad,
)
from .samplers import (
    Batch,
    Provenance,
    build_weight_table,
    draw_balanced,
    draw_random,
    draw_weighted,
)
from .store import ReplayDataset, Sample, SampleStore
from .strategies import (
    StageConfig,
    StrategyConfig,
    StrategyKind,
    dual_loss,
    ewc_consolidate,
    ewc_penalty,
    gem_project,
    gem_reference_grads,
    run_sequence,
    train_stage,
)

__version__ = "0.1.0"
