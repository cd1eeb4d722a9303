"""Benchmark workloads: turn (workload name, seed) into lltts configs.

Each workload is one sequential-training experiment. The program under test
only ever sees the generated config text. The workload seed and a replicate
index pick `[experiment] seed` and every `[task k] seed`, so the same seed
always gives the same inputs. A run trains `REPLICATES` configs of one seed
and averages their MCD: a single training trajectory varies too much from
seed to seed to bound (over ten single trajectories, forgetting spreads by
10-12% of its median between the quartiles).
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

DESK_TOPOLOGY = {
    "vocab_size": 40,
    "embed_dim": 8,
    "encoder_hidden": 12,
    "trunk_dim": 8,
    "frame_dim": 8,
    "postnet_hidden": 8,
}
PAPER_TOPOLOGY = {
    "vocab_size": 40,
    "embed_dim": 16,
    "encoder_hidden": 32,
    "trunk_dim": 32,
    "frame_dim": 8,
    "postnet_hidden": 16,
}
REPLICATES = 5


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    topology: dict
    languages: int
    n_train: int
    n_dev: int
    n_test: int
    epochs: int
    batch_size: int
    buffer_capacity: int
    why: str

    def batches_per_step(self) -> int:
        # replay_dual draws a balanced and a random batch for every step;
        # GEM's reference batches are not counted as training samples
        return 2 if self.kind == "replay_dual" else 1

    def pool_size(self, stage: int) -> int:
        """Training pool of one stage: the new language, plus the replay
        buffer for the replay strategies that merge it (GEM keeps it apart)."""
        if self.kind != "replay_dual" or stage == 0:
            return self.n_train
        base, rem = divmod(self.buffer_capacity, stage)
        buffered = sum(min(base + (1 if i < rem else 0), self.n_train) for i in range(stage))
        return self.n_train + buffered

    def steps(self, epochs: int | None = None) -> int:
        """Optimizer steps of a whole run, as the training loop schedules them."""
        epochs = self.epochs if epochs is None else epochs
        return sum(
            epochs * max(1, self.pool_size(k) // self.batch_size) for k in range(self.languages)
        )

    def train_samples(self, epochs: int | None = None) -> int:
        """Gradient samples of a whole run: steps x batch x batches per step."""
        return self.steps(epochs) * self.batch_size * self.batches_per_step()


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's headline method at the acceptance-suite scale. Small
        # batches and two loss_and_grad calls per step make per-call Python
        # cost (packing, the balanced sampler, by_language) its largest share.
        Workload(
            name="dual_desk",
            kind="replay_dual",
            topology=DESK_TOPOLOGY,
            languages=3,
            n_train=1500,
            n_dev=40,
            n_test=20,
            epochs=20,
            batch_size=32,
            buffer_capacity=120,
            why=(
                "replay_dual on desk.ini: stresses samplers.draw_balanced, data.by_language "
                "and model packing; bypasses GEM, so a GEM fix predicts no change here"
            ),
        ),
        # paper_scale.ini topology, batch and buffer, cut from 100 to 6 epochs
        # per stage. The largest matrices, so BLAS/einsum work dominates;
        # only workload where GEM reference gradients and projection run.
        Workload(
            name="gem_paper",
            kind="gem",
            topology=PAPER_TOPOLOGY,
            languages=4,
            n_train=3000,
            n_dev=40,
            n_test=20,
            epochs=6,
            batch_size=84,
            buffer_capacity=300,
            why=(
                "gem at paper_scale.ini size: stresses model.loss_and_grad, GEM reference grads "
                "and projection, 12k-sample setup; bypasses the balanced sampler and by_language"
            ),
        ),
    )
}


def derive_seed(seed: int, *parts) -> int:
    """Deterministic 31-bit seed for one stream of one workload seed."""
    text = ":".join(str(p) for p in (seed, *parts))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "little") >> 1


def config_text(
    name: str, seed: int, replicate: int, output_dir: str, epochs: int | None = None
) -> str:
    """The lltts INI config of workload `name`, workload seed `seed` and
    replicate `replicate` (0 <= replicate < REPLICATES)."""
    w = WORKLOADS[name]
    lines = [
        f"# benchmark workload {w.name}, seed {seed}, replicate {replicate}",
        "[experiment]",
        f"epochs_per_stage = {w.epochs if epochs is None else epochs}",
        f"batch_size = {w.batch_size}",
        "lr = 0.001",
        "lr_decay_epoch_fraction = 0.6",
        f"buffer_capacity = {w.buffer_capacity}",
        f"seed = {derive_seed(seed, replicate, 'experiment')}",
        f"output_dir = {output_dir}",
        "",
        "[topology]",
        *(f"{key} = {value}" for key, value in w.topology.items()),
        "",
        "[strategy]",
        f"kind = {w.kind}",
    ]
    for k in range(w.languages):
        lines += [
            "",
            f"[task {k}]",
            f"seed = {derive_seed(seed, replicate, 'task', k)}",
            f"n_train = {w.n_train}",
            f"n_dev = {w.n_dev}",
            f"n_test = {w.n_test}",
        ]
    return "\n".join(lines) + "\n"
