import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from sentsimp.sari import SariReport, ngrams, sari_corpus, sari_sentence, score_histogram
from sari_oracle import oracle_sari

WORDS = ["a", "b", "c", "d", "e", "f", "g", "h"]


def random_sentence(rng, max_len=8):
    return " ".join(rng.choice(WORDS) for _ in range(rng.randint(1, max_len)))


class TestNgrams:
    def test_unigram_counts(self):
        assert ngrams(["a", "b", "a"], 1) == {("a",): 2, ("b",): 1}

    def test_bigram_counts(self):
        assert ngrams(["a", "b", "a"], 2) == {("a", "b"): 1, ("b", "a"): 1}

    def test_too_short_gives_empty(self):
        assert ngrams(["a"], 3) == {}

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError):
            ngrams(["a"], 5)


class TestSariSentence:
    def test_identity_scores_a_third(self):
        text = "the cat sat on the mat"
        rep = sari_sentence(text, text, [text])
        assert rep.keep == pytest.approx(100.0)
        assert rep.add == 0.0
        assert rep.delete == 0.0
        assert rep.sari == pytest.approx(100.0 / 3.0)

    def test_hand_worked_deletion_example(self):
        rep = sari_sentence("a b c", "a b", ["a b"])
        assert rep.keep == pytest.approx(50.0)
        assert rep.delete == pytest.approx(75.0)
        assert rep.add == 0.0
        assert rep.sari == pytest.approx(41.666666, abs=0.01)

    def test_internal_consistency(self):
        rep = sari_sentence("a b c d", "a c d", ["a c d", "a b d"])
        assert rep.sari == pytest.approx((rep.add + rep.keep + rep.delete) / 3, abs=1e-9)

    def test_empty_reference_list_rejected(self):
        with pytest.raises(ValueError):
            sari_sentence("a", "a", [])

    def test_scores_bounded(self):
        rng = random.Random(5)
        for _ in range(50):
            rep = sari_sentence(random_sentence(rng), random_sentence(rng),
                                [random_sentence(rng)])
            for v in (rep.sari, rep.add, rep.keep, rep.delete):
                assert 0.0 <= v <= 100.0

    def test_reference_order_irrelevant(self):
        refs = ["a b c", "b c", "a c d"]
        base = sari_sentence("a b c d", "a b d", refs)
        for perm in ([2, 0, 1], [1, 2, 0], [2, 1, 0]):
            rep = sari_sentence("a b c d", "a b d", [refs[i] for i in perm])
            assert rep == base

    def test_matches_brute_force_oracle(self):
        rng = random.Random(17)
        for _ in range(200):
            src = random_sentence(rng)
            out = random_sentence(rng)
            refs = [random_sentence(rng) for _ in range(rng.randint(1, 3))]
            rep = sari_sentence(src, out, refs)
            want = oracle_sari(src, out, refs)
            assert rep.sari == pytest.approx(want["sari"], abs=1e-9)
            assert rep.add == pytest.approx(want["add"], abs=1e-9)
            assert rep.keep == pytest.approx(want["keep"], abs=1e-9)
            assert rep.delete == pytest.approx(want["delete"], abs=1e-9)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_adding_a_reference_word_raises_add(self, seed):
        # Start from output == source; replace one source-only word with a
        # word present in every reference and absent from the source.
        rng = random.Random(seed)
        kept = WORDS[: rng.randint(2, 5)]
        extra = "z"          # source-only word
        new = "q"            # the word every reference wants added
        src = " ".join(kept + [extra])
        refs = [" ".join(kept + [new]) for _ in range(rng.randint(1, 3))]
        before = sari_sentence(src, src, refs)
        after = sari_sentence(src, " ".join(kept + [new]), refs)
        assert after.add > before.add


class TestSariCorpus:
    def test_single_item_equals_sentence(self):
        item = ("a b c", "a b", ["a b"])
        corpus, scores = sari_corpus([item])
        assert corpus == sari_sentence(*item[:2], item[2])
        assert scores == [corpus.sari]

    def test_macro_average(self):
        items = [("a b c", "a b", ["a b"]), ("a b c d", "a b c d", ["a b c d"])]
        corpus, scores = sari_corpus(items)
        assert corpus.sari == pytest.approx(sum(scores) / 2)

    def test_two_scores_average(self):
        # build per-sentence reports first, then check the corpus mean
        items = [("a b", "a b", ["a b"]), ("c d", "x y", ["c d"])]
        corpus, scores = sari_corpus(items)
        assert corpus.sari == pytest.approx((scores[0] + scores[1]) / 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sari_corpus([])


class TestHistogram:
    def test_edges(self):
        assert score_histogram([0.0, 100.0], 2) == [(0.0, 1), (50.0, 1)]

    def test_single_score_placement(self):
        hist = score_histogram([50.0], 4)
        assert hist == [(0.0, 0), (25.0, 0), (50.0, 1), (75.0, 0)]

    def test_counts_conserved(self):
        rng = random.Random(3)
        scores = [rng.uniform(0, 100) for _ in range(359)]
        hist = score_histogram(scores, 20)
        assert sum(c for _, c in hist) == 359

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            score_histogram([101.0], 2)
