"""Synthetic pseudo-language tasks, dataset files, and the merged replay view.

Each language id owns a fixed smooth map from sliding token-embedding
windows to target frames, so tasks share low-level structure (they
interfere in shared parameters) while remaining learnable.
"""
from __future__ import annotations

import io
import os
import struct
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .errors import ConsistencyError, FormatError, UsageError, VersionError
from .store import (  # callers also import Sample and ReplayDataset from here
    INDEX,
    ReplayDataset,
    Sample,
    SampleStore,
    _starts,
    _views,
    join_pools,
)

MAGIC = b"LLTTS1"
# the header's language-id field follows the magic, vocab_size and frame_dim
_LANGUAGE_ID_OFFSET = len(MAGIC) + 8

# generator-side constants, independent of the model topology
_GEN_EMBED_DIM = 6
_GEN_WINDOW = 3
# past window positions contribute weakly, so a per-position model keeps
# a small irreducible error while tasks stay history-dependent
_GEN_WINDOW_WEIGHTS = (1.0, 0.2, 0.1)
# generate_task computes targets at most this many tokens at a time, which
# bounds its temporaries to about 1.5 MB
_GEN_CHUNK_TOKENS = 4096
_EMB_STREAM = 0xE3B
_MAP_STREAM = 0x11A


@dataclass
class TaskDataset:
    """One language's train, dev and test samples.

    The splits are consecutive rows of `store`, train then dev then test,
    from `first_row` on. A dataset assembled from separate samples gets a
    store of its own, packed from copies of its splits.
    """

    language_id: int
    train: list
    dev: list
    test: list
    store: SampleStore = field(default=None, repr=False, compare=False)
    first_row: int = field(default=0, repr=False, compare=False)

    def __post_init__(self):
        if self.store is None:
            self.store = SampleStore.pack(self.train + self.dev + self.test)

    def rows(self, split: str) -> np.ndarray:
        """The store rows of split "train", "dev" or "test"."""
        sizes = [len(self.train), len(self.dev), len(self.test)]
        k = ("train", "dev", "test").index(split)
        first = self.first_row + sum(sizes[:k])
        return np.arange(first, first + sizes[k])

    def part(self, split: str) -> tuple:
        """(samples, store, rows) of a split, as `join_pools` takes them."""
        return getattr(self, split), self.store, self.rows(split)

    # The dataset's part of the store: its tokens and frames, and offsets
    # such that sample i of train + dev + test views rows offsets[i]:offsets[i + 1].
    def _rows_and_span(self):
        n = len(self.train) + len(self.dev) + len(self.test)
        rows = slice(self.first_row, self.first_row + n)
        starts, lengths = self.store.starts[rows], self.store.lengths[rows]
        return starts, slice(starts[0], starts[-1] + lengths[-1])

    @property
    def tokens(self) -> np.ndarray:
        return self.store.tokens[self._rows_and_span()[1]]

    @property
    def frames(self) -> np.ndarray:
        return self.store.frames[self._rows_and_span()[1]]

    @property
    def offsets(self) -> np.ndarray:
        starts, span = self._rows_and_span()
        return np.append(starts, span.stop) - span.start

    @property
    def frame_dim(self) -> int:
        return self.store.frames.shape[1]


@dataclass
class TaskSpec:
    language_id: int
    seed: int
    n_train: int = 3000
    n_dev: int = 40
    n_test: int = 20
    seq_len_range: tuple = (6, 12)
    transform_scale: float = 1.0
    vocab_size: int = 40
    frame_dim: int = 8

    def __post_init__(self):
        if min(self.n_train, self.n_dev, self.n_test) < 1:
            raise UsageError("split sizes n_train, n_dev and n_test must be >= 1")
        lo, hi = self.seq_len_range
        if lo < 1 or lo > hi:
            raise UsageError(f"invalid seq_len_range {self.seq_len_range}: need 1 <= min <= max")


def _gen_embedding(vocab_size: int) -> np.ndarray:
    rng = np.random.default_rng([_EMB_STREAM, vocab_size])
    return rng.standard_normal((vocab_size, _GEN_EMBED_DIM))


def _language_map(language_id: int, frame_dim: int):
    rng = np.random.default_rng([_MAP_STREAM, language_id, frame_dim])
    win = _GEN_WINDOW * _GEN_EMBED_DIM
    w = rng.standard_normal((frame_dim, win)) / np.sqrt(win)
    b = 0.3 * rng.standard_normal(frame_dim)
    return w, b


def _targets_for(tokens, emb, w_map, b_map, scale):
    """Target frames of token sequences of one length; tokens is (..., t)."""
    vecs = emb[tokens]
    win = np.zeros(vecs.shape[:-1] + (_GEN_WINDOW * _GEN_EMBED_DIM,))
    for k in range(_GEN_WINDOW):
        # window position k holds the embedding of token t-k (zero-padded)
        wk = _GEN_WINDOW_WEIGHTS[k]
        if k == 0:
            win[..., : _GEN_EMBED_DIM] = wk * vecs
        else:
            win[..., k:, k * _GEN_EMBED_DIM : (k + 1) * _GEN_EMBED_DIM] = wk * vecs[..., :-k, :]
    return scale * np.tanh(win @ w_map.T + b_map)


def _draw(spec: TaskSpec):
    """Lengths and concatenated tokens of one task's samples, train then dev
    then test: two rng calls per sample, in sample order."""
    rng = np.random.default_rng([spec.seed, spec.language_id, 0xDA7A])
    lo, hi = spec.seq_len_range
    total = spec.n_train + spec.n_dev + spec.n_test
    draws = []
    for _ in range(total):
        t = rng.integers(lo, hi + 1)
        draws.append(rng.integers(0, spec.vocab_size, size=t))
    lengths = np.fromiter(map(len, draws), dtype=INDEX, count=total)
    return lengths, np.concatenate(draws, dtype=INDEX)


def _fill_targets(spec: TaskSpec, tokens, frames, starts, lengths) -> None:
    """Write the target frames of one task's samples, which start at the
    token positions `starts`, into `frames`."""
    emb = _gen_embedding(spec.vocab_size)
    w_map, b_map = _language_map(spec.language_id, spec.frame_dim)
    # Samples of one length share a _targets_for call, up to _GEN_CHUNK_TOKENS
    # tokens at a time. Its matmul still makes one BLAS product per sample,
    # of the sample's own size, so the frames are bit-identical to one call
    # per sample (a one-row product goes through GEMV, which rounds unlike
    # GEMM) and every product stays far below OpenBLAS's threading size.
    # The distinct lengths come from bincount (np.unique would import
    # numpy.ma, +1 MB of RSS).
    for t in np.flatnonzero(np.bincount(lengths)).tolist():
        ids = np.flatnonzero(lengths == t)
        step = max(1, _GEN_CHUNK_TOKENS // t)
        for c in range(0, len(ids), step):
            rows = starts[ids[c : c + step], None] + np.arange(t)
            frames[rows] = _targets_for(tokens[rows], emb, w_map, b_map, spec.transform_scale)


def generate_tasks(specs) -> list:
    """Deterministic synthetic datasets, one per spec, generated into one store.

    Each task draws from its own rng stream, so a task's samples do not
    depend on the other specs: `generate_task(spec)` gives the same bytes.
    Every sample of every split is a view of its rows of the store, which
    is built and validated once.
    """
    if not specs:
        raise UsageError("no task specs given")
    if len({spec.frame_dim for spec in specs}) > 1:
        raise UsageError("the tasks of one store must share frame_dim")
    drawn = [_draw(spec) for spec in specs]
    counts = [len(lengths) for lengths, _ in drawn]
    lengths = np.concatenate([lengths for lengths, _ in drawn])
    tokens = np.concatenate([task_tokens for _, task_tokens in drawn])
    del drawn  # before the frames, the largest array, are allocated
    starts = _starts(lengths)
    langs = np.repeat(np.array([spec.language_id for spec in specs], dtype=INDEX), counts)
    frames = np.empty((len(tokens), specs[0].frame_dim))
    firsts = np.cumsum([0] + counts[:-1]).tolist()
    for spec, first, n in zip(specs, firsts, counts):
        rows = slice(first, first + n)
        _fill_targets(spec, tokens, frames, starts[rows], lengths[rows])
    # the only check the samples need: the specs guarantee >= 1 token each,
    # and the store gives each one frame row per token
    if not np.isfinite(frames).all():
        raise UsageError("target frames must be finite")
    store = SampleStore(tokens, frames, starts, lengths, langs)
    tasks = []
    for spec, first, n in zip(specs, firsts, counts):
        samples = _views(store, slice(first, first + n))
        dev_end = spec.n_train + spec.n_dev
        tasks.append(
            TaskDataset(
                spec.language_id,
                samples[: spec.n_train],
                samples[spec.n_train : dev_end],
                samples[dev_end:],
                store,
                first,
            )
        )
    return tasks


def generate_task(spec: TaskSpec) -> TaskDataset:
    """Deterministic synthetic dataset for one pseudo-language, in a store of
    its own; `generate_tasks` with one spec."""
    return generate_tasks([spec])[0]


def _write_samples(buf, samples):
    for s in samples:
        buf.write(struct.pack("<I", len(s.tokens)))
        buf.write(np.asarray(s.tokens, dtype="<u4").tobytes())
        buf.write(np.ascontiguousarray(s.target_frames, dtype="<f8").tobytes())


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


def save_dataset(ds: TaskDataset, path, vocab_size: int) -> None:
    """Whole-file atomic write (temp + rename)."""
    frame_dim = ds.frame_dim
    buf = io.BytesIO()
    buf.write(MAGIC)
    buf.write(
        struct.pack(
            "<IIIIII",
            vocab_size,
            frame_dim,
            ds.language_id,
            len(ds.train),
            len(ds.dev),
            len(ds.test),
        )
    )
    for split in (ds.train, ds.dev, ds.test):
        _write_samples(buf, split)
    atomic_write(path, buf.getvalue())


def load_dataset(path, num_languages: int | None = None) -> TaskDataset:
    """The dataset saved in `path`, read into one store and validated once;
    its samples are views of the store, as `generate_task`'s are."""
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < len(MAGIC) or data[:5] != MAGIC[:5]:
        raise FormatError("bad magic string", offset=0)
    if data[: len(MAGIC)] != MAGIC:
        raise VersionError(f"unsupported format version {data[5:6]!r}", offset=5)
    pos = len(MAGIC)
    try:
        vocab_size, frame_dim, language_id, n_train, n_dev, n_test = struct.unpack_from(
            "<IIIIII", data, pos
        )
    except struct.error:
        raise FormatError("truncated header", offset=pos) from None
    pos += 24
    if num_languages is not None and language_id >= num_languages:
        raise FormatError(
            f"language id {language_id} >= declared num_languages {num_languages}",
            offset=_LANGUAGE_ID_OFFSET,
        )
    # walk the samples' length fields; the data is read after the walk
    n = n_train + n_dev + n_test
    positions, lengths = [], []  # where each sample's tokens start, and its length
    truncated = None
    for _ in range(n):
        if pos + 4 > len(data):
            truncated = FormatError("truncated sample header", offset=pos)
            break
        (t,) = struct.unpack_from("<I", data, pos)
        pos += 4
        if pos + 4 * t + 8 * t * frame_dim > len(data):
            truncated = FormatError("truncated sample body", offset=pos)
            break
        positions.append(pos)
        lengths.append(t)
        pos += 4 * t + 8 * t * frame_dim
    lengths = np.array(lengths, dtype=INDEX)
    starts = _starts(lengths)
    view = memoryview(data)
    tokens = np.frombuffer(
        b"".join(view[p : p + 4 * t] for p, t in zip(positions, lengths.tolist())), dtype="<u4"
    )
    # a bad token id in a whole sample comes before a truncation after it
    bad = np.flatnonzero(tokens >= vocab_size)
    if len(bad):
        k = int(bad[0])
        i = int(np.searchsorted(starts, k, side="right")) - 1
        raise FormatError(
            "token id exceeds declared vocab_size", offset=positions[i] + 4 * (k - int(starts[i]))
        )
    if truncated is not None:
        raise truncated
    if pos != len(data):
        raise FormatError("trailing bytes after last sample", offset=pos)
    if n and not lengths.all():
        raise UsageError("sample must have at least one token")
    # bytearray keeps the frames writable without another copy
    frames = np.frombuffer(
        bytearray().join(
            view[p + 4 * t : p + 4 * t + 8 * t * frame_dim]
            for p, t in zip(positions, lengths.tolist())
        ),
        dtype="<f8",
    ).astype(np.float64, copy=False).reshape(len(tokens), frame_dim)
    if not np.isfinite(frames).all():
        raise UsageError("target frames must be finite")
    langs = np.full(n, language_id, dtype=INDEX)
    store = SampleStore(tokens.astype(INDEX), frames, starts, lengths, langs)
    samples = _views(store, slice(0, n))
    dev_end = n_train + n_dev
    return TaskDataset(
        language_id, samples[:n_train], samples[n_train:dev_end], samples[dev_end:], store
    )


def merge_replay(current: TaskDataset, buffer) -> ReplayDataset:
    """D_k merged with the buffer; buffer must not hold current-task samples."""
    if buffer is not None and current.language_id in buffer.languages():
        raise ConsistencyError(
            f"buffer already holds language {current.language_id}; "
            "integrate the task only after its training stage"
        )
    parts = [current.part("train")]
    if buffer is not None:
        parts.extend(buffer.parts())
    return join_pools(parts)
