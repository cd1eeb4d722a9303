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


@dataclass(slots=True)
class Sample:
    language_id: int
    tokens: np.ndarray
    target_frames: np.ndarray

    def __post_init__(self):
        self.tokens = np.asarray(self.tokens, dtype=np.int64)
        self.target_frames = np.asarray(self.target_frames, dtype=np.float64)
        if len(self.tokens) < 1:
            raise UsageError("sample must have at least one token")
        if self.target_frames.shape[0] != len(self.tokens):
            raise UsageError("target_frames must have one row per token")
        if not np.all(np.isfinite(self.target_frames)):
            raise UsageError("target frames must be finite")

    def __eq__(self, other):
        return (
            isinstance(other, Sample)
            and self.language_id == other.language_id
            and np.array_equal(self.tokens, other.tokens)
            and np.array_equal(self.target_frames, other.target_frames)
        )


@dataclass
class TaskDataset:
    language_id: int
    train: list
    dev: list
    test: list
    # generate_task's packed store: sample i of train + dev + test views rows
    # offsets[i]:offsets[i + 1] of tokens and frames. None when the dataset
    # was assembled from separate samples (load_dataset, tests).
    tokens: np.ndarray | None = field(default=None, repr=False, compare=False)
    frames: np.ndarray | None = field(default=None, repr=False, compare=False)
    offsets: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def frame_dim(self) -> int:
        return self.train[0].target_frames.shape[1]


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


@dataclass
class ReplayDataset:
    """Merged view of current-task train data and buffered past samples."""

    samples: list
    language_counts: dict = field(init=False)
    _groups: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        groups: dict[int, list[int]] = {}
        for i, s in enumerate(self.samples):
            groups.setdefault(s.language_id, []).append(i)
        self._groups = {lang: np.array(idx, dtype=np.int64) for lang, idx in groups.items()}
        self.language_counts = {lang: len(idx) for lang, idx in self._groups.items()}

    def __len__(self):
        return len(self.samples)

    def by_language(self) -> dict:
        """Language id -> ascending sample indices, in order of first appearance.

        Built once with the dataset; callers must not modify the arrays.
        """
        return self._groups


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


def _views(language_id, tokens, frames, offsets) -> list:
    """Samples viewing consecutive rows of packed arrays, without Sample's
    per-sample checks: the caller has validated the arrays as a whole."""
    samples = []
    for a, b in zip(offsets[:-1].tolist(), offsets[1:].tolist()):
        s = object.__new__(Sample)
        s.language_id, s.tokens, s.target_frames = language_id, tokens[a:b], frames[a:b]
        samples.append(s)
    return samples


def generate_task(spec: TaskSpec) -> TaskDataset:
    """Deterministic synthetic dataset for one pseudo-language.

    The samples of train, dev and test are views into one packed store (the
    dataset's tokens, frames and offsets), built and validated once.
    """
    emb = _gen_embedding(spec.vocab_size)
    w_map, b_map = _language_map(spec.language_id, spec.frame_dim)
    rng = np.random.default_rng([spec.seed, spec.language_id, 0xDA7A])
    lo, hi = spec.seq_len_range
    total = spec.n_train + spec.n_dev + spec.n_test
    draws = []
    for _ in range(total):
        t = rng.integers(lo, hi + 1)
        draws.append(rng.integers(0, spec.vocab_size, size=t))
    lengths = np.fromiter(map(len, draws), dtype=np.int64, count=total)
    offsets = np.zeros(total + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    tokens = np.concatenate(draws)
    del draws
    # Samples of one length share a _targets_for call, up to _GEN_CHUNK_TOKENS
    # tokens at a time. Its matmul still makes one BLAS product per sample,
    # of the sample's own size, so the frames are bit-identical to one call
    # per sample (a one-row product goes through GEMV, which rounds unlike
    # GEMM) and every product stays far below OpenBLAS's threading size.
    frames = np.empty((len(tokens), spec.frame_dim))
    # the distinct lengths (np.unique would import numpy.ma, +1 MB of RSS)
    for t in np.flatnonzero(np.bincount(lengths)).tolist():
        ids = np.flatnonzero(lengths == t)
        step = max(1, _GEN_CHUNK_TOKENS // t)
        for c in range(0, len(ids), step):
            rows = offsets[ids[c : c + step], None] + np.arange(t)
            frames[rows] = _targets_for(tokens[rows], emb, w_map, b_map, spec.transform_scale)
    # the only check the samples need: the spec guarantees >= 1 token each,
    # and the store gives each one frame row per token
    if not np.isfinite(frames).all():
        raise UsageError("target frames must be finite")
    samples = _views(spec.language_id, tokens, frames, offsets)
    train = samples[: spec.n_train]
    dev = samples[spec.n_train : spec.n_train + spec.n_dev]
    test = samples[spec.n_train + spec.n_dev :]
    return TaskDataset(spec.language_id, train, dev, test, tokens, frames, offsets)


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
    splits = []
    for count in (n_train, n_dev, n_test):
        split = []
        for _ in range(count):
            if pos + 4 > len(data):
                raise FormatError("truncated sample header", offset=pos)
            (t,) = struct.unpack_from("<I", data, pos)
            pos += 4
            tok_bytes = 4 * t
            frame_bytes = 8 * t * frame_dim
            if pos + tok_bytes + frame_bytes > len(data):
                raise FormatError("truncated sample body", offset=pos)
            tokens = np.frombuffer(data, dtype="<u4", count=t, offset=pos).astype(np.int64)
            bad = np.flatnonzero(tokens >= vocab_size)
            if len(bad):
                raise FormatError(
                    "token id exceeds declared vocab_size", offset=pos + 4 * int(bad[0])
                )
            pos += tok_bytes
            frames = np.frombuffer(data, dtype="<f8", count=t * frame_dim, offset=pos)
            pos += frame_bytes
            split.append(Sample(language_id, tokens, frames.reshape(t, frame_dim).copy()))
        splits.append(split)
    if pos != len(data):
        raise FormatError("trailing bytes after last sample", offset=pos)
    return TaskDataset(language_id, *splits)


def merge_replay(current: TaskDataset, buffer) -> ReplayDataset:
    """D_k merged with the buffer; buffer must not hold current-task samples."""
    if buffer is not None and current.language_id in buffer.languages():
        raise ConsistencyError(
            f"buffer already holds language {current.language_id}; "
            "integrate the task only after its training stage"
        )
    samples = list(current.train)
    if buffer is not None:
        samples.extend(buffer.all_samples())
    return ReplayDataset(samples)
