from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from sentsimp import tokenizer as tok


class TestBuildVocab:
    def test_frequency_ranking(self):
        vocab = tok.build_vocab(["a a b"], max_size=10, min_freq=1)
        assert vocab.size == 6
        assert vocab.token_to_id["a"] == 4
        assert vocab.token_to_id["b"] == 5

    def test_lexicographic_tie_break(self):
        vocab = tok.build_vocab(["b a"], max_size=10)
        assert vocab.token_to_id["a"] < vocab.token_to_id["b"]

    def test_capacity_keeps_top_frequency(self):
        vocab = tok.build_vocab(["x x x y y z"], max_size=5)
        assert vocab.size == 5
        assert "x" in vocab.token_to_id
        assert "y" not in vocab.token_to_id

    def test_min_freq_filters(self):
        vocab = tok.build_vocab(["a a b"], max_size=10, min_freq=2)
        assert "b" not in vocab.token_to_id
        assert "a" in vocab.token_to_id

    def test_min_freq_below_one_rejected(self):
        with pytest.raises(ValueError, match="min_freq"):
            tok.build_vocab(["a a b"], max_size=10, min_freq=0)

    def test_all_rare_corpus_gives_specials_only(self):
        vocab = tok.build_vocab(["a b c"], max_size=10, min_freq=5)
        assert vocab.size == 4

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            tok.build_vocab([], max_size=10)

    def test_specials_are_distinct_low_ids(self):
        vocab = tok.build_vocab(["w"], max_size=10)
        ids = {vocab.pad_id, vocab.bos_id, vocab.eos_id, vocab.unk_id}
        assert ids == {0, 1, 2, 3}

    def test_words_spelled_like_specials_not_ranked(self):
        vocab = tok.build_vocab(["the <unk> cat", "a <pad> dog <UNK>"], 100)
        assert vocab.id_to_token == (*tok.SPECIALS, "a", "cat", "dog", "the")
        assert vocab.size == len(vocab.token_to_id) == 8


class TestEncode:
    @pytest.fixture
    def vocab(self):
        return tok.build_vocab(["the cat sat"], max_size=20)

    def test_framing_and_lowercasing(self, vocab):
        seq = tok.encode(vocab, "The cat", max_len=80)
        assert seq.ids == (vocab.bos_id, vocab.token_to_id["the"],
                           vocab.token_to_id["cat"], vocab.eos_id)
        assert not seq.truncated

    def test_truncation_to_max_len(self, vocab):
        seq = tok.encode(vocab, " ".join(["the"] * 100), max_len=80)
        assert len(seq.ids) == 80
        assert seq.truncated
        assert seq.ids[-1] == vocab.eos_id

    def test_unknown_token(self, vocab):
        seq = tok.encode(vocab, "zyzzyva", max_len=80)
        assert seq.ids == (vocab.bos_id, vocab.unk_id, vocab.eos_id)

    def test_words_spelled_like_specials_are_unk(self, vocab):
        seq = tok.encode(vocab, "the <pad> <BOS> cat <eos> <Unk>", max_len=80)
        unk = vocab.unk_id
        assert seq.ids == (vocab.bos_id, vocab.token_to_id["the"], unk, unk,
                           vocab.token_to_id["cat"], unk, unk, vocab.eos_id)

    def test_max_len_floor(self, vocab):
        with pytest.raises(ValueError):
            tok.encode(vocab, "the", max_len=2)


class TestDecode:
    @pytest.fixture
    def vocab(self):
        return tok.build_vocab(["the cat a b"], max_size=20)

    def test_inverse_of_encode(self, vocab):
        ids = tok.encode(vocab, "the cat", max_len=80).ids
        assert tok.decode(vocab, list(ids)) == "the cat"

    def test_empty_content(self, vocab):
        assert tok.decode(vocab, [vocab.bos_id, vocab.eos_id]) == ""

    def test_stops_at_first_eos(self, vocab):
        a, b = vocab.token_to_id["a"], vocab.token_to_id["b"]
        assert tok.decode(vocab, [vocab.bos_id, a, vocab.eos_id, b]) == "a"

    def test_out_of_range_rejected(self, vocab):
        with pytest.raises(ValueError):
            tok.decode(vocab, [vocab.size])


@given(st.lists(st.sampled_from(["red", "fox", "ran", "home", "fast"]),
                min_size=1, max_size=20))
@settings(max_examples=80, deadline=None)
def test_round_trip_for_in_vocab_text(words):
    vocab = tok.build_vocab(["red fox ran home fast"], max_size=20)
    text = " ".join(words)
    seq = tok.encode(vocab, text, max_len=80)
    assert len(seq.ids) <= 80
    assert tok.decode(vocab, list(seq.ids)) == text


def oracle_vocab(corpus: list[str], max_size: int, min_freq: int) -> tok.Vocabulary:
    """A count per line, then one sort on (-count, token), words spelled like specials
    left out."""
    counts = Counter()
    for line in corpus:
        counts.update(tok.tokenize(line))
    ranked = sorted(
        (w for w, c in counts.items() if c >= min_freq and w not in tok.SPECIALS),
        key=lambda w: (-counts[w], w),
    )
    tokens = list(tok.SPECIALS) + ranked[: max_size - len(tok.SPECIALS)]
    return tok.Vocabulary({w: i for i, w in enumerate(tokens)}, tuple(tokens))


# Few letters, so counts tie. Mixed case, Σ beside σ, İ (lowercased to two code points)
# and ß (its own lowercase), so tokens merge and order only after lowercasing.
WORDS = st.one_of(st.text("abAB\u03a3\u03c3\u0130\u00df", min_size=1, max_size=3),
                  st.sampled_from(["<unk>", "<UNK>", "<pad>", "<Bos>", "<eos>", "<s>"]))


@given(corpus=st.lists(st.lists(WORDS, max_size=8).map(" ".join), min_size=1, max_size=12),
       max_size=st.integers(5, 40), min_freq=st.integers(1, 3))
@settings(max_examples=200, deadline=None)
def test_build_vocab_matches_per_line_count_and_key_sort(corpus, max_size, min_freq):
    vocab = tok.build_vocab(corpus, max_size, min_freq)
    want = oracle_vocab(corpus, max_size, min_freq)
    assert vocab.id_to_token == want.id_to_token
    assert vocab.token_to_id == want.token_to_id
    for line in corpus:
        assert min(tok.encode(vocab, line, 80).ids[1:-1], default=vocab.unk_id) >= vocab.unk_id
