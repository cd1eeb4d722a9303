"""Lifelong-learning strategies and the per-stage training loop.

Covers fine-tune (lower bound), joint training (upper bound), supervised
replay with three samplers, EWC, and GEM.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .buffer import MemoryBuffer
from .data import TaskDataset, generate_tasks, merge_replay
from .errors import ConfigError, NumericError, UsageError
from .metrics import split_mcd, stage_eval
from .model import AdamState, Head, ParameterSet, adam_step, init_params, loss_and_grad
from .samplers import (
    Batch,
    Provenance,
    build_weight_table,
    draw_balanced,
    draw_random,
    draw_weighted,
)
from .store import join_pools


class StrategyKind(enum.Enum):
    FINE_TUNE = "fine_tune"
    JOINT = "joint"
    REPLAY_RANDOM = "replay_random"
    REPLAY_WEIGHTED = "replay_weighted"
    REPLAY_DUAL = "replay_dual"
    EWC = "ewc"
    GEM = "gem"


REPLAY_KINDS = {
    StrategyKind.REPLAY_RANDOM,
    StrategyKind.REPLAY_WEIGHTED,
    StrategyKind.REPLAY_DUAL,
    StrategyKind.GEM,
}


@dataclass
class StrategyConfig:
    kind: StrategyKind
    gamma: float = 0.5
    beta: float = 1.0
    ewc_lambda: float = 100.0
    gem_memory_batch: int = 32
    # test/diagnostic knob: replace the balanced LBS draw with a uniform one
    force_lbs_random: bool = False

    def __post_init__(self):
        for key in ("gamma", "beta", "ewc_lambda"):
            if not 0 <= getattr(self, key) < math.inf:
                raise UsageError(f"{key} must be finite and >= 0")
        if self.gem_memory_batch < 1:
            raise UsageError("gem_memory_batch must be >= 1")


@dataclass
class StageConfig:
    epochs: int = 100
    batch_size: int = 84
    lr: float = 0.001
    lr_decay_epoch_fraction: float = 0.6


@dataclass
class FisherState:
    fisher_diag: np.ndarray
    anchor: ParameterSet


@dataclass
class GemState:
    reference_grads: np.ndarray  # one row per past language with buffered samples
    languages: list


@dataclass
class StageResult:
    final_params: ParameterSet
    dev_curves: dict  # language_id -> per-epoch dev MCD


@dataclass
class ExperimentResult:
    strategy: str
    task_order: list
    reports: list  # one McdReport per stage
    stage_curves: list  # one dev_curves dict per stage


def dual_loss(l_lbs, l_rrs, gamma: float, beta: float) -> float:
    """Total dual-sampler loss gamma * L_lbs + beta * L_rrs."""
    if gamma < 0 or beta < 0:
        raise UsageError("gamma and beta must be >= 0")
    return gamma * l_lbs.total + beta * l_rrs.total


def ewc_consolidate(
    params: ParameterSet,
    ds: TaskDataset,
    n_samples: int,
    rng,
    prior: FisherState | None = None,
) -> FisherState:
    """Diagonal Fisher estimate from single-sample LBS gradients.

    Accumulates additively onto any prior state (running sum across
    tasks); the anchor is always the most recent parameter vector.
    """
    if n_samples < 1:
        raise UsageError("n_samples must be >= 1")
    train = ds.rows("train")
    idx = rng.choice(len(train), size=n_samples, replace=n_samples > len(train))
    rows = train[idx]
    fisher = np.zeros_like(params.values)
    for j in range(n_samples):
        batch = Batch.of_rows(ds.store, rows[j : j + 1], Provenance.LBS)
        _, grad = loss_and_grad(params, batch, Head.LBS)
        fisher += grad**2
    fisher /= n_samples
    if prior is not None:
        fisher += prior.fisher_diag
    return FisherState(fisher, params.copy())


def ewc_penalty(params: ParameterSet, fstate: FisherState, lam: float):
    """(lam/2) * sum_i F_i (theta_i - anchor_i)^2 and its exact gradient."""
    diff = params.values - fstate.anchor.values
    penalty = 0.5 * lam * float(np.sum(fstate.fisher_diag * diff**2))
    grad = lam * fstate.fisher_diag * diff
    return penalty, grad


def gem_reference_grads(
    params: ParameterSet, buffer: MemoryBuffer, batch_size: int, rng
) -> GemState:
    """One LBS-loss gradient per past language that has buffered samples,
    on up to batch_size of them."""
    if buffer.total() == 0:
        raise UsageError("buffer is empty")
    grads = []
    langs = []
    for lang, rows in buffer.rows.items():
        if not len(rows):
            continue  # its quota is 0: fewer buffer slots than past languages
        idx = rng.choice(len(rows), size=min(batch_size, len(rows)), replace=False)
        batch = Batch.of_rows(buffer.stores[lang], rows[idx], Provenance.LBS)
        _, grad = loss_and_grad(params, batch, Head.LBS)
        grads.append(grad)
        langs.append(lang)
    return GemState(np.stack(grads), langs)


def gem_project(g: np.ndarray, gstate: GemState, tol: float = 1e-9) -> np.ndarray:
    """Project g to the nearest point with nonnegative inner products
    against every reference gradient.

    Solves the dual QP min_v 0.5 v'GG'v + (Gg)'v, v >= 0 by projected
    coordinate descent; the projected gradient is g + G'v.
    """
    g_mat = gstate.reference_grads
    dots = g_mat @ g
    if np.all(dots >= -tol):
        return g.copy()
    k = g_mat.shape[0]
    h = g_mat @ g_mat.T
    v = np.zeros(k)
    # ill-conditioned constraint sets need far more sweeps than the typical
    # handful; sweeps are O(k^2) so a generous cap stays cheap for k <= 9
    max_iters = max(1000 * k * k, 1000)
    for _ in range(max_iters):
        delta = 0.0
        for i in range(k):
            if h[i, i] <= 0:
                continue
            new_vi = max(0.0, v[i] - (h[i] @ v + dots[i]) / h[i, i])
            delta = max(delta, abs(new_vi - v[i]))
            v[i] = new_vi
        if delta < tol * 1e-3:
            break
    projected = g + g_mat.T @ v
    residual = float(np.min(g_mat @ projected))
    scale = max(1.0, float(np.max(np.abs(dots))))
    if residual < -tol * scale * 10:
        raise NumericError(f"GEM dual solver did not converge; residual {residual:.3e}")
    return projected


def lr_for_epoch(base_lr: float, epoch: int, epochs: int, decay_fraction: float) -> float:
    """Halved from the 0-based epoch ceil(decay_fraction * epochs) onward."""
    decay_epoch = math.ceil(decay_fraction * epochs)
    return base_lr * 0.5 if epoch >= decay_epoch else base_lr


def _dev_mcd(params: ParameterSet, ds: TaskDataset) -> float:
    return split_mcd(params, ds, "dev")


def _loss_terms(strategy: StrategyConfig, pool, batch_size: int, rng) -> list:
    """The (weight, draw, head) terms whose weighted loss sum is one step's loss.

    REPLAY_DUAL sums gamma * L_lbs + beta * L_rrs; every other strategy has
    a single unit-weight term on the LBS head.
    """
    kind = strategy.kind
    if kind is StrategyKind.REPLAY_DUAL:
        if strategy.force_lbs_random:
            draw_lbs = lambda: draw_random(pool, batch_size, rng, Provenance.LBS)
        else:
            draw_lbs = lambda: draw_balanced(pool, batch_size, rng)
        terms = [
            (strategy.gamma, draw_lbs, Head.LBS),
            (strategy.beta, lambda: draw_random(pool, batch_size, rng, Provenance.RRS), Head.RRS),
        ]
        # a zero-weight term draws nothing, keeping the rng stream identical
        # to the single-sampler strategies
        return [term for term in terms if term[0] > 0]
    if kind is StrategyKind.REPLAY_WEIGHTED:
        table = build_weight_table(pool)
        return [(1.0, lambda: draw_weighted(table, pool, batch_size, rng), Head.LBS)]
    return [(1.0, lambda: draw_random(pool, batch_size, rng), Head.LBS)]


def train_stage(
    strategy: StrategyConfig,
    params: ParameterSet,
    ds_k: TaskDataset,
    buffer: MemoryBuffer | None,
    fstate: FisherState | None,
    cfg: StageConfig,
    rng,
    seen_tasks: list | None = None,
) -> StageResult:
    """One task's training phase; returns final parameters and dev curves.

    Each step sums the strategy's weighted loss terms (`_loss_terms`), then
    adds the EWC penalty or applies the GEM projection. `seen_tasks` lists
    every task seen so far (current included); their dev splits feed the
    per-epoch MCD curves. For JOINT it also defines the training pool.
    """
    kind = strategy.kind
    seen_tasks = seen_tasks if seen_tasks is not None else [ds_k]

    if kind is StrategyKind.JOINT:
        pool = join_pools([t.part("train") for t in seen_tasks])
    elif kind in (StrategyKind.FINE_TUNE, StrategyKind.EWC, StrategyKind.GEM):
        pool = join_pools([ds_k.part("train")])
    else:
        pool = merge_replay(ds_k, buffer if buffer and buffer.total() else None)

    terms = _loss_terms(strategy, pool, cfg.batch_size, rng)
    use_ewc = kind is StrategyKind.EWC and fstate is not None
    use_gem = kind is StrategyKind.GEM and buffer is not None and buffer.total() > 0

    opt = AdamState.fresh(len(params.values), lr=cfg.lr)
    params = params.copy()
    steps_per_epoch = max(1, len(pool) // cfg.batch_size)
    curves: dict[int, list] = {t.language_id: [] for t in seen_tasks}

    for epoch in range(cfg.epochs):
        opt.lr = lr_for_epoch(cfg.lr, epoch, cfg.epochs, cfg.lr_decay_epoch_fraction)
        for step in range(steps_per_epoch):
            # accumulating into zeros keeps gamma = beta = 0 a valid no-op step
            grad = np.zeros_like(params.values)
            loss_total = 0.0
            for weight, draw, head in terms:
                loss, term_grad = loss_and_grad(params, draw(), head)
                grad += weight * term_grad
                loss_total += weight * loss.total
            if use_ewc:
                penalty, pgrad = ewc_penalty(params, fstate, strategy.ewc_lambda)
                loss_total += penalty
                grad += pgrad
            if use_gem:
                gstate = gem_reference_grads(params, buffer, strategy.gem_memory_batch, rng)
                grad = gem_project(grad, gstate)
            if not np.isfinite(loss_total):
                raise NumericError(
                    f"non-finite loss in the stage of language {ds_k.language_id} "
                    f"at epoch {epoch} step {step}: {loss_total}"
                )
            try:
                opt, params = adam_step(opt, params, grad)
            except NumericError as exc:
                raise NumericError(
                    f"{exc} in the stage of language {ds_k.language_id} "
                    f"at epoch {epoch} step {step}"
                ) from exc
        for task in seen_tasks:
            curves[task.language_id].append(_dev_mcd(params, task))
    return StageResult(params, curves)


@dataclass
class RunState:
    """Everything one stage hands to the next, and all a resumed run needs."""

    stage: int  # the last finished stage; -1 before the first
    params: ParameterSet
    fstate: FisherState | None
    reports: list  # one McdReport per finished stage
    stage_curves: list  # one dev_curves dict per finished stage


def run_sequence(
    config, checkpoint_hook=None, start_state: RunState | None = None
) -> ExperimentResult:
    """Sequential training over the configured task order.

    `config` is an ExperimentConfig. The run continues from `start_state`
    (a fresh state when None) and advances it in place; `checkpoint_hook(state)`
    is called with it after each stage. The replay buffer is not part of the
    state: it is rebuilt from the tasks of the finished stages.
    """
    if start_state is not None and start_state.stage >= len(config.task_specs):
        raise ConfigError(
            f"the checkpoint finished stage {start_state.stage}, past the config's "
            f"{len(config.task_specs)} tasks (stages 0 to {len(config.task_specs) - 1})"
        )
    tasks = generate_tasks(config.task_specs)

    strategy = config.strategy
    stage_cfg = StageConfig(
        epochs=config.epochs_per_stage,
        batch_size=config.batch_size,
        lr=config.lr,
        lr_decay_epoch_fraction=config.lr_decay_epoch_fraction,
    )
    state = start_state or RunState(
        stage=-1,
        params=init_params(config.topology, config.seed),
        fstate=None,
        reports=[],
        stage_curves=[],
    )
    buffer = MemoryBuffer(config.buffer_capacity, rng_seed=hash_seed(config.seed, 0xB0F))

    for k, task in enumerate(tasks):
        if k > state.stage:
            seen = tasks[: k + 1]
            rng = np.random.default_rng([config.seed, k, 0x7EA1])
            if strategy.kind is StrategyKind.JOINT:
                stage_params = init_params(config.topology, hash_seed(config.seed, k))
            else:
                stage_params = state.params
            result = train_stage(
                strategy, stage_params, task, buffer, state.fstate, stage_cfg, rng, seen_tasks=seen
            )
            state.stage = k
            state.params = result.final_params
            state.reports.append(stage_eval(state.params, seen))
            state.stage_curves.append(result.dev_curves)
            if strategy.kind is StrategyKind.EWC:
                crng = np.random.default_rng([config.seed, k, 0xF15E])
                state.fstate = ewc_consolidate(
                    state.params, task, min(100, len(task.rows("train"))), crng, prior=state.fstate
                )
            if checkpoint_hook is not None:
                checkpoint_hook(state)
        # a stage that start_state already finished only refills the buffer:
        # only this call draws from the buffer's rng, so integrating the same
        # tasks in the same order reaches the same slots and rng state
        if strategy.kind in REPLAY_KINDS:
            buffer.integrate_task(task)
    task_order = [spec.language_id for spec in config.task_specs]
    return ExperimentResult(strategy.kind.name, task_order, state.reports, state.stage_curves)


def hash_seed(*parts) -> int:
    """Small deterministic seed derivation for independent rng streams."""
    out = 0
    for p in parts:
        out = (out * 1000003 + int(p)) % (2**31 - 1)
    return out
