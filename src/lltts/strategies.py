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
from .model import AdamState, Head, ParameterSet, adam_step, init_params, run_step
from .pairs import plan_steps
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


def _check_weight(name: str, value: float) -> None:
    """A loss weight must be finite and >= 0 (NaN is neither)."""
    if not 0 <= value < math.inf:
        raise UsageError(f"{name} must be finite and >= 0")


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
            _check_weight(key, getattr(self, key))
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
    _check_weight("gamma", gamma)
    _check_weight("beta", beta)
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
    draw = ([(ds.store, rows)] for rows in train[idx][:, None]).__next__  # one-row steps
    fisher = np.zeros_like(params.values)
    for plan, steps in _chunks(params.topology, [Head.LBS], n_samples, draw):
        for k in range(len(steps)):
            _, grads = run_step(params, plan, k)
            fisher += grads[0] ** 2
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


def gem_reference_grads(grads: np.ndarray, languages: list) -> GemState:
    """The GemState of a GEM step: the LBS-loss gradients of its reference
    batches, its last len(languages) groups, one per past language."""
    return GemState(grads[len(grads) - len(languages) :], languages)


def gem_project(g: np.ndarray, gstate: GemState) -> np.ndarray:
    """Project g to the nearest point with nonnegative inner products
    against every reference gradient.

    Solves the dual QP min_v 0.5 v'GG'v + (Gg)'v, v >= 0 by projected
    coordinate descent; the projected gradient is g + G'v.
    """
    tol = 1e-9
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
    # the sweeps run on Python floats, numpy scalars' IEEE operations, but for
    # h[i] . v; a row with h[i, i] <= 0 is skipped (a NaN one is not)
    diag_dots = zip(h.diagonal().tolist(), dots.tolist())
    coords = [(i, h[i], hii, dot) for i, (hii, dot) in enumerate(diag_dots) if not hii <= 0]
    vs = [0.0] * k
    for _ in range(max_iters):
        delta = 0.0
        for i, h_i, hii, dot in coords:
            new_vi = max(0.0, vs[i] - (float(h_i.dot(v)) + dot) / hii)
            delta = max(delta, abs(new_vi - vs[i]))
            v[i] = vs[i] = new_vi
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


def _reference_draw(store, rows, batch_size: int, rng):
    """A draw of up to batch_size of the store's `rows`, without replacement."""
    n, size = len(rows), min(batch_size, len(rows))
    return lambda: Batch.of_rows(store, rows[rng.choice(n, size, replace=False)], Provenance.LBS)


def _step_groups(strategy: StrategyConfig, ds_k, buffer, fstate, seen_tasks, batch_size: int, rng):
    """A stage's training pool, the (weight, draw, head) of each group of a
    step's model pass, in the order a step draws their batches, and the
    stage's step hook.

    A step's loss sums its groups' weighted losses: gamma * L_lbs + beta *
    L_rrs for REPLAY_DUAL, one unit-weight LBS group otherwise. GEM adds a
    reference batch of each past language with buffered samples, in
    integration order: a group of weight None, left out of the loss.

    The hook (None if the stage has none) takes (params, grads, loss, grad):
    every group's gradient and the weighted sums, and returns the step's
    (loss, grad). EWC's adds its penalty when `fstate` is set; GEM's projects
    grad against the reference gradients when a past language has samples.
    """
    kind = strategy.kind
    if kind is StrategyKind.JOINT:
        pool = join_pools([t.part("train") for t in seen_tasks])
    elif kind in (StrategyKind.FINE_TUNE, StrategyKind.EWC, StrategyKind.GEM):
        pool = join_pools([ds_k.part("train")])
    else:
        pool = merge_replay(ds_k, buffer)
    if kind is StrategyKind.REPLAY_DUAL:
        if strategy.force_lbs_random:
            draw_lbs = lambda: draw_random(pool, batch_size, rng, Provenance.LBS)
        else:
            draw_lbs = lambda: draw_balanced(pool, batch_size, rng)
        groups = [
            (strategy.gamma, draw_lbs, Head.LBS),
            (strategy.beta, lambda: draw_random(pool, batch_size, rng, Provenance.RRS), Head.RRS),
        ]
        # a zero-weight group draws nothing, keeping the rng stream identical
        # to the single-sampler strategies
        return pool, [group for group in groups if group[0] > 0], None
    if kind is StrategyKind.REPLAY_WEIGHTED:
        table = build_weight_table(pool)
        return pool, [(1.0, lambda: draw_weighted(table, pool, batch_size, rng), Head.LBS)], None
    groups = [(1.0, lambda: draw_random(pool, batch_size, rng), Head.LBS)]
    hook = None
    if kind is StrategyKind.EWC and fstate is not None:
        def hook(params, grads, loss, grad):
            penalty, pgrad = ewc_penalty(params, fstate, strategy.ewc_lambda)
            return loss + penalty, grad + pgrad

    if kind is StrategyKind.GEM and buffer is not None:
        # a language's quota is 0 when there are fewer buffer slots than past languages
        groups += [
            (None, _reference_draw(store, rows, strategy.gem_memory_batch, rng), Head.LBS)
            for store, rows in buffer.parts()
            if len(rows)
        ]
        languages = [lang for lang, rows in buffer.rows.items() if len(rows)]
        if languages:
            def hook(params, grads, loss, grad):
                return loss, gem_project(grad, gem_reference_grads(grads, languages))

    return pool, groups, hook


# the positions of the steps planned at once, at most: making a plan takes
# about 32 bytes a position, and it holds about 96 bytes a pair
_CHUNK_POSITIONS = 6144


def _chunks(topology, heads: list, steps: int, draw):
    """The PairPlan (None for steps of no group) and range of each chunk of
    `steps` steps of at most _CHUNK_POSITIONS positions, or one step; a chunk
    draws its steps' (store, rows) parts, one per head, before it is planned.
    """
    parts = draw()
    # every step draws as many rows of the same stores as the first
    longest = max((int(store.lengths.max()) for store, _ in parts), default=0)
    chunk = max(1, _CHUNK_POSITIONS // max(1, longest * sum(len(rows) for _, rows in parts)))
    for first in range(0, steps, chunk):
        chunk_steps = range(first, min(first + chunk, steps))
        while len(parts) < len(chunk_steps) * len(heads):
            parts += draw()
        yield (plan_steps(topology, parts, heads) if parts else None), chunk_steps
        parts = []


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

    The batches of a chunk of steps are drawn, in the order a step at a time
    draws them, and planned at once (`_chunks`). Each step then takes the
    losses and gradients of its groups (`_step_groups`) in one model pass,
    sums the weighted ones and hands them to the stage's hook, if any, which
    adds EWC's penalty or applies GEM's projection. `seen_tasks` lists
    every task seen so far (current included); their dev splits feed the
    per-epoch MCD curves. For JOINT it also defines the training pool.
    """
    seen_tasks = seen_tasks if seen_tasks is not None else [ds_k]
    pool, groups, hook = _step_groups(
        strategy, ds_k, buffer, fstate, seen_tasks, cfg.batch_size, rng
    )
    heads = [head for *_, head in groups]
    weights = [weight for weight, *_ in groups if weight is not None]
    draw_step = lambda: [(batch.store, batch.rows) for batch in (draw() for _, draw, _ in groups)]

    opt = AdamState.fresh(len(params.values), lr=cfg.lr)
    params = params.copy()
    steps_per_epoch = max(1, len(pool) // cfg.batch_size)
    curves: dict[int, list] = {t.language_id: [] for t in seen_tasks}

    for epoch in range(cfg.epochs):
        opt.lr = lr_for_epoch(cfg.lr, epoch, cfg.epochs, cfg.lr_decay_epoch_fraction)
        for plan, steps in _chunks(params.topology, heads, steps_per_epoch, draw_step):
            for k, step in enumerate(steps):
                # gamma = beta = 0 leaves a dual step no group and no model pass
                losses, grads = run_step(params, plan, k) if plan else ([], [])
                # accumulating into zeros keeps gamma = beta = 0 a valid no-op step
                grad = np.zeros_like(params.values)
                loss_total = 0.0
                for weight, loss, term_grad in zip(weights, losses, grads):
                    grad += weight * term_grad
                    loss_total += weight * loss.total
                if hook:
                    loss_total, grad = hook(params, grads, loss_total, grad)
                if not np.isfinite(loss_total):
                    raise NumericError(
                        f"non-finite loss in the stage of language {ds_k.language_id} "
                        f"at epoch {epoch} step {step}: {loss_total}"
                    )
                try:
                    opt, new = adam_step(opt, params, grad)
                    params.values[...] = new.values  # in place: ParameterSet.weights stays
                except NumericError as exc:
                    raise NumericError(
                        f"{exc} in the stage of language {ds_k.language_id} "
                        f"at epoch {epoch} step {step}"
                    ) from exc
            del plan, grads  # the plan's gradient buffer, before the next chunk's plan is made
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
        # tasks in the same order reaches the same slots and rng state. Every
        # strategy refills it; fine_tune's, EWC's and joint's pools never read it
        buffer.integrate_task(task)
    return ExperimentResult(
        strategy.kind.name, config.task_order, state.reports, state.stage_curves
    )


def hash_seed(*parts) -> int:
    """Small deterministic seed derivation for independent rng streams."""
    out = 0
    for p in parts:
        out = (out * 1000003 + int(p)) % (2**31 - 1)
    return out
