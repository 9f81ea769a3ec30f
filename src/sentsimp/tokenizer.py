"""Whitespace tokenizer with a frequency-ranked vocabulary.

Tokens are lowercased surface forms. Ids 0-3 are reserved for the
pad/bos/eos/unk specials, in that order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

PAD_TOKEN = "<pad>"
BOS_TOKEN = "<bos>"
EOS_TOKEN = "<eos>"
UNK_TOKEN = "<unk>"
SPECIALS = (PAD_TOKEN, BOS_TOKEN, EOS_TOKEN, UNK_TOKEN)


def tokenize(text: str) -> list[str]:
    """The shared surface rule: lowercase, split on whitespace."""
    return text.lower().split()


@dataclass(frozen=True)
class Vocabulary:
    token_to_id: dict[str, int]
    id_to_token: tuple[str, ...]

    @property
    def pad_id(self) -> int:
        return 0

    @property
    def bos_id(self) -> int:
        return 1

    @property
    def eos_id(self) -> int:
        return 2

    @property
    def unk_id(self) -> int:
        return 3

    @property
    def size(self) -> int:
        return len(self.id_to_token)


@dataclass(frozen=True)
class TokenSequence:
    ids: tuple[int, ...]
    truncated: bool


def build_vocab(corpus: list[str], max_size: int, min_freq: int = 1) -> Vocabulary:
    """Rank tokens by frequency desc, ties broken lexicographically."""
    if not corpus:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    if max_size < 5:
        raise ValueError("max_size must be at least 5 (4 specials + 1 token)")
    if min_freq < 1:
        raise ValueError(f"min_freq must be at least 1, got {min_freq}")
    counts = Counter()
    for line in corpus:
        counts.update(tokenize(line))
    ranked = sorted(
        (tok for tok, c in counts.items() if c >= min_freq),
        key=lambda tok: (-counts[tok], tok),
    )
    tokens = list(SPECIALS) + ranked[: max_size - len(SPECIALS)]
    return Vocabulary({tok: i for i, tok in enumerate(tokens)}, tuple(tokens))


def encode(vocab: Vocabulary, text: str, max_len: int) -> TokenSequence:
    """bos + token ids + eos, truncated from the right to fit max_len."""
    if max_len < 3:
        raise ValueError("max_len must leave room for bos, one token, and eos")
    words = tokenize(text)
    content = words[: max_len - 2]
    ids = [vocab.bos_id]
    ids.extend(vocab.token_to_id.get(w, vocab.unk_id) for w in content)
    ids.append(vocab.eos_id)
    return TokenSequence(tuple(ids), truncated=len(words) > len(content))


def decode(vocab: Vocabulary, ids: list[int]) -> str:
    """Drop specials, stop at the first eos, join with single spaces."""
    words = []
    for i in ids:
        if i >= vocab.size or i < 0:
            raise ValueError(f"token id {i} out of range for vocabulary of size {vocab.size}")
        if i == vocab.eos_id:
            break
        if i in (vocab.pad_id, vocab.bos_id):
            continue
        words.append(vocab.id_to_token[i])
    return " ".join(words)

