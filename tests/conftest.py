import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from sentsimp import corpus as C
from sentsimp import tokenizer as tok
from sentsimp.model import ModelConfig, init_model


def _load_toy_generator():
    path = Path(__file__).parent.parent / "scripts" / "make_toy_corpus.py"
    spec = importlib.util.spec_from_file_location("make_toy_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TOY = _load_toy_generator()


def make_toy_pairs(n: int, seed: int = 0) -> list[tuple[str, str]]:
    """Synthetic simplification pairs with a fixed rewrite rule.

    The target drops the ornate adjective and swaps the opening article, so
    a perfect simplification adds a word absent from the source, keeps a
    shared 4-gram, and deletes source material at every n-gram order.
    """
    return _TOY.make_pairs(n, seed)


def ragged_pairs(n: int, seed: int = 0) -> list[tuple[str, str]]:
    """Toy pairs cut to sources of 6-9 words and targets of 6-8, so their batches hold
    pads: every toy pair has one length."""
    return [(" ".join(s.split()[:9 - i % 4]), " ".join(t.split()[:8 - i % 3]))
            for i, (s, t) in enumerate(make_toy_pairs(n, seed))]


def write_corpus(dirpath: Path, stem: str, pairs, n_refs: int = 1) -> None:
    """Write <stem>.src, <stem>.tgt and <stem>.ref.0..n_refs-1 (refs copy tgt)."""
    _TOY.write_split(dirpath, stem, pairs, n_refs)


def toy_vocab(pairs) -> tok.Vocabulary:
    return tok.build_vocab([s for s, _ in pairs] + [t for _, t in pairs], max_size=2000)


def tokenized_batches(pairs, vocab, batch_size=8, max_len=80, shuffle_seed=None):
    enc = [
        (tok.encode(vocab, s, max_len).ids, tok.encode(vocab, t, max_len).ids)
        for s, t in pairs
    ]
    return C.make_batches(enc, batch_size, vocab.pad_id, max_len, shuffle_seed=shuffle_seed)


def toy_model_config(vocab_size: int, masking: str = "bidirectional",
                     max_len: int = 80) -> ModelConfig:
    return ModelConfig(d_model=64, n_heads=2, n_layers=2, d_ff=128,
                       vocab_size=vocab_size, max_len=max_len,
                       encoder_masking=masking)


def random_batch(vocab_size: int, seed: int, b=2, ls=6, lt=5) -> C.Batch:
    """A well-formed random batch: bos-leading rows, one padded source tail."""
    rng = np.random.default_rng(seed)
    src = rng.integers(4, vocab_size, size=(b, ls))
    src[:, 0] = 1
    src[0, -1] = 0
    smask = src != 0
    tin = rng.integers(4, vocab_size, size=(b, lt))
    tin[:, 0] = 1
    tout = np.concatenate([tin[:, 1:], np.full((b, 1), 2)], axis=1)
    return C.Batch(src, smask, tin, tout)


@pytest.fixture
def toy_pairs():
    return make_toy_pairs(32, seed=0)
