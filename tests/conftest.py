import pathlib
import sys

import numpy as np
import pytest

from lltts.data import Sample
from lltts.model import ModelTopology, init_params
from lltts.pairs import Layout, plan_steps
from lltts.samplers import Batch, Provenance


CONFIGS = pathlib.Path(__file__).parent.parent / "configs"

TINY = ModelTopology(
    vocab_size=5,
    embed_dim=3,
    encoder_hidden=4,
    trunk_dim=4,
    frame_dim=3,
    postnet_hidden=3,
    num_languages=2,
)


def store_nbytes(store):
    """The bytes of a SampleStore's arrays."""
    return sum(a.nbytes for a in (store.tokens, store.frames, store.starts, store.lengths,
                                  store.langs))


def plain_padding(samples, frame_dim):
    """Padded tokens, targets, mask and languages, one sample at a time."""
    t_max = max(len(s.tokens) for s in samples)
    tokens = np.zeros((len(samples), t_max), dtype=np.int64)
    targets = np.zeros((len(samples), t_max, frame_dim))
    mask = np.zeros((len(samples), t_max))
    for i, s in enumerate(samples):
        t = len(s.tokens)
        tokens[i, :t] = s.tokens
        targets[i, :t] = s.target_frames
        mask[i, :t] = 1.0
    return tokens, targets, mask, np.array([s.language_id for s in samples])


def layout_of(topology, parts, heads, weights):
    """The layout of a chunk's (store, rows) parts, step after step, whose
    groups' blocks are the languages that their parts hold."""
    n = len(heads)
    langs = [[lang for store, rows in parts[g::n] for lang in store.langs[rows].tolist()] for g in range(n)]
    return Layout(topology, heads, weights, langs)


def plan_of(topology, parts, heads, weights):
    """The plan of a chunk's (store, rows) parts on their `layout_of`."""
    return plan_steps(layout_of(topology, parts, heads, weights), parts)


def random_sample(rng, topology=TINY, t=None):
    t = t if t is not None else int(rng.integers(2, 6))
    tokens = rng.integers(0, topology.vocab_size, size=t)
    frames = rng.standard_normal((t, topology.frame_dim))
    lang = int(rng.integers(0, topology.num_languages))
    return Sample(lang, tokens, frames)


def random_batch(rng, topology=TINY, n=3):
    return Batch([random_sample(rng, topology) for _ in range(n)], Provenance.LBS)


@pytest.fixture
def tiny_topology():
    return TINY


@pytest.fixture
def tiny_params():
    return init_params(TINY, 0)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def pytest_terminal_summary(terminalreporter):
    acceptance = sys.modules.get("test_acceptance")
    lines = getattr(acceptance, "_LINES", None) if acceptance else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
