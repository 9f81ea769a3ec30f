"""Seeded corpus files for the workloads.

The program only ever sees these files. The toy corpus comes from the
repository's own generator (scripts/make_toy_corpus.py); the large-vocabulary
corpus is made here, with Zipf-distributed word ranks so that its vocabulary
has a long tail of rare words.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
TOY_GENERATOR = ROOT / "scripts" / "make_toy_corpus.py"


def _toy_module():
    spec = importlib.util.spec_from_file_location("make_toy_corpus", TOY_GENERATOR)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_eval(out: Path, stem: str, pairs, n_refs: int) -> None:
    """<stem>.src plus <stem>.ref.0 .. n_refs-1, every reference the target."""
    (out / f"{stem}.src").write_text("".join(s + "\n" for s, _ in pairs), encoding="utf-8")
    for r in range(n_refs):
        (out / f"{stem}.ref.{r}").write_text("".join(t + "\n" for _, t in pairs),
                                           encoding="utf-8")


def write_parallel(out: Path, stem: str, pairs) -> None:
    (out / f"{stem}.src").write_text("".join(s + "\n" for s, _ in pairs), encoding="utf-8")
    (out / f"{stem}.tgt").write_text("".join(t + "\n" for _, t in pairs), encoding="utf-8")


def toy_corpus(out: Path, seed: int, n_train: int, n_valid: int, n_test: int,
               n_beam: int, n_refs: int = 2) -> None:
    """The toy template corpus; `beam` is the first n_beam test pairs."""
    gen = _toy_module()
    out.mkdir(parents=True, exist_ok=True)
    test = gen.make_pairs(n_test, seed + 2)
    write_parallel(out, "train", gen.make_pairs(n_train, seed))
    write_eval(out, "valid", gen.make_pairs(n_valid, seed + 1), n_refs)
    write_eval(out, "test", test, n_refs)
    write_eval(out, "beam", test[:n_beam], n_refs)


ZIPF_WORDS = 100_000     # size of the word universe the ranks are drawn from
ZIPF_KEEP_RANK = 2_000   # targets keep only words at or above this rank


def _word(rank: int) -> str:
    letters = []
    rank += 1
    while rank:
        rank, digit = divmod(rank - 1, 26)
        letters.append(chr(ord("a") + digit))
    return "".join(reversed(letters))


def _zipf_ranks(rng: np.random.Generator, size, lo: int = 0, hi: int = ZIPF_WORDS):
    """Zipf(1) word ranks, restricted to [lo, hi)."""
    cdf = np.cumsum(1.0 / np.arange(1, ZIPF_WORDS + 1))
    cdf /= cdf[-1]
    below = cdf[lo - 1] if lo else 0.0
    u = below + rng.random(size) * (cdf[hi - 1] - below)
    return np.minimum(np.searchsorted(cdf, u, side="right"), hi - 1)


def zipf_pairs(rng: np.random.Generator, words: list[str], n: int,
               min_len: int, max_len: int):
    """Sources of Zipf(1) word ranks; the target deletes every rare word.

    Each source starts with two frequent words so that no target is empty.
    """
    lengths = rng.integers(min_len, max_len + 1, size=n)
    ranks = _zipf_ranks(rng, int(lengths.sum()))
    heads = rng.integers(0, 50, size=(n, 2))
    pairs, pos = [], 0
    for i, length in enumerate(lengths):
        row = list(heads[i]) + list(ranks[pos:pos + length - 2])
        pos += length - 2
        pairs.append((" ".join(words[r] for r in row),
                      " ".join(words[r] for r in row if r < ZIPF_KEEP_RANK)))
    return pairs


def fixed_shape_pairs(rng: np.random.Generator, words: list[str], n: int, kept: int):
    """Zipf sentences of one shape: two head words, then `kept` alternating
    frequent (kept) and rare (deleted) words.

    Every line then has the same share of n-grams to keep and to delete, so
    a corpus SARI differs between seeds only by what the model outputs, not
    by the mix of sampled sentences.
    """
    heads = rng.integers(0, 50, size=(n, 2))
    frequent = _zipf_ranks(rng, (n, kept), 50, ZIPF_KEEP_RANK)
    rare = _zipf_ranks(rng, (n, kept), ZIPF_KEEP_RANK)
    pairs = []
    for i in range(n):
        body = [r for pair in zip(frequent[i], rare[i]) for r in pair]
        row = list(heads[i]) + body
        pairs.append((" ".join(words[r] for r in row),
                      " ".join(words[r] for r in row if r < ZIPF_KEEP_RANK)))
    return pairs


def zipf_corpus(out: Path, seed: int, n_train: int, n_valid: int, n_test: int,
                n_beam: int, min_len: int, max_len: int, kept: int,
                n_shaped: int, kept_shaped: int) -> None:
    """Training pairs: the first n_shaped of one fixed shape, the rest of mixed
    length; validation and test of another fixed shape.

    A workload that trains on the first n_shaped pairs then does the same
    work, and sees the same number of target tokens, on every seed.
    """
    rng = np.random.default_rng(seed)
    words = [_word(r) for r in range(ZIPF_WORDS)]
    out.mkdir(parents=True, exist_ok=True)
    train = (fixed_shape_pairs(rng, words, n_shaped, kept_shaped)
             + zipf_pairs(rng, words, n_train - n_shaped, min_len, max_len))
    write_parallel(out, "train", train)
    write_eval(out, "valid", fixed_shape_pairs(rng, words, n_valid, kept), n_refs=1)
    test = fixed_shape_pairs(rng, words, n_test, kept)
    write_eval(out, "test", test, n_refs=1)
    write_eval(out, "beam", test[:n_beam], n_refs=1)
