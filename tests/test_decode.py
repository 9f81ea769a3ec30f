import itertools
import math

import numpy as np
import pytest

from sentsimp.decoding import (DecodeConfig, _model_step_fn, beam_ids, greedy_decode_batch,
                               greedy_ids, simplify)
from sentsimp.model import init_model
from sentsimp.tokenizer import build_vocab, decode

from conftest import make_toy_pairs, toy_model_config, toy_vocab

BOS, EOS = 1, 2


def table_step_fn(table, vocab_size):
    """Next-token logits from a dict prefix -> per-token log-probabilities."""
    def step(prefix):
        probs = table[tuple(prefix)]
        return np.log(np.asarray(probs))
    return step


def sequence_logprob(step_fn, ids):
    """Sum of next-token log-probabilities along a bos-prefixed sequence."""
    total = 0.0
    for i in range(1, len(ids)):
        logits = step_fn(ids[:i])
        z = logits - logits.max()
        total += float(z[ids[i]] - math.log(np.exp(z).sum()))
    return total


class TestDecodeConfig:
    def test_beam_width_floor(self):
        with pytest.raises(ValueError):
            DecodeConfig(beam_width=0)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="sample"):
            DecodeConfig(strategy="sample")


class TestGreedyCore:
    def test_immediate_eos_gives_empty(self):
        step = lambda prefix: np.array([0.0, 0.0, 10.0, 0.0])
        assert greedy_ids(step, BOS, EOS, max_len=10) == [BOS, EOS]

    def test_tie_breaks_to_lowest_id(self):
        step = lambda prefix: np.zeros(4)
        ids = greedy_ids(step, BOS, EOS, max_len=10)
        assert ids[1] == 0

    def test_length_cap(self):
        step = lambda prefix: np.array([0.0, 0.0, 0.0, 5.0])  # never eos
        ids = greedy_ids(step, BOS, EOS, max_len=7)
        assert len(ids) == 7


class TestBeamCore:
    # Greedy takes token 3 (prob 0.48), whose continuations are all diffuse;
    # token 4 (prob 0.42) continues with a confident eos and wins overall.
    TABLE = {
        (BOS,): [0.05, 0.0, 0.05, 0.48, 0.42],
        (BOS, 0): [0.0, 0.0, 0.5, 0.25, 0.25],
        (BOS, 3): [0.25, 0.0, 0.25, 0.25, 0.25],
        (BOS, 4): [0.05, 0.0, 0.9, 0.05, 0.0],
    }
    FORCED_EOS = [0.0, 0.0, 1.0, 0.0, 0.0]

    def step(self):
        # tiny floor keeps log finite without changing the argmax structure
        def fn(prefix):
            probs = self.TABLE.get(tuple(prefix), self.FORCED_EOS)
            return np.log(np.asarray(probs) + 1e-12)
        return fn

    def exhaustive_best(self, max_len):
        """Enumerate every sequence of generated length <= max_len - 1."""
        step = self.step()
        best, best_score = None, -math.inf
        frontier = [((BOS,), 0.0)]
        while frontier:
            nxt = []
            for ids, score in frontier:
                if ids[-1] == EOS or len(ids) == max_len:
                    if score > best_score:
                        best, best_score = ids, score
                    continue
                logp = step(list(ids))
                logp = logp - math.log(np.exp(logp).sum())
                for tok in range(5):
                    nxt.append((ids + (tok,), score + float(logp[tok])))
            frontier = nxt
        return list(best), best_score

    def test_beam_finds_better_sequence_than_greedy(self):
        step = self.step()
        greedy = greedy_ids(step, BOS, EOS, max_len=4)
        beam = beam_ids(step, BOS, EOS, max_len=4, beam_width=4)
        want, want_score = self.exhaustive_best(max_len=4)
        assert beam == want
        assert greedy != want
        assert sequence_logprob(step, beam) > sequence_logprob(step, greedy)

    def test_beam_width_one_equals_greedy(self):
        step = self.step()
        assert beam_ids(step, BOS, EOS, 4, beam_width=1) == greedy_ids(step, BOS, EOS, 4)


class TestAgainstRandomModels:
    def make(self, seed, vocab_words=6):
        pairs = make_toy_pairs(4, seed=seed)
        vocab = toy_vocab(pairs)
        model = init_model(toy_model_config(vocab.size, max_len=12), seed)
        return model, vocab

    def test_beam_width_one_matches_greedy_on_random_models(self):
        greedy = DecodeConfig(max_len=10)
        beam1 = DecodeConfig(max_len=10, strategy="beam", beam_width=1)
        for seed in range(20):
            model, vocab = self.make(seed)
            source = "the cat saw the dog"
            assert simplify(model, vocab, source, beam1) == simplify(model, vocab, source, greedy)

    def test_beam_score_dominates_greedy(self):
        cfg = DecodeConfig(max_len=10, beam_width=4)
        for seed in range(20):
            model, vocab = self.make(seed)
            source = "the dog ate the fish"
            step = _model_step_fn(model, vocab, source, cfg)
            g = greedy_ids(step, vocab.bos_id, vocab.eos_id, cfg.max_len)
            b = beam_ids(step, vocab.bos_id, vocab.eos_id, cfg.max_len, 4)
            assert sequence_logprob(step, b) >= sequence_logprob(step, g) - 1e-12

    def test_decoding_deterministic(self):
        model, vocab = self.make(3)
        cfg = DecodeConfig(max_len=12)
        outs = {simplify(model, vocab, "the cat saw the sun", cfg) for _ in range(3)}
        assert len(outs) == 1

    def test_output_never_contains_specials_or_exceeds_cap(self):
        for seed in range(5):
            model, vocab = self.make(seed)
            out = simplify(model, vocab, "the man held the tree", DecodeConfig())
            assert len(out.split()) <= 80
            for special in ("<pad>", "<bos>", "<eos>"):
                assert special not in out

    def test_batched_greedy_matches_single(self):
        model, vocab = self.make(7)
        cfg = DecodeConfig(max_len=12)
        sources = ["the cat saw the dog", "the perspicacious man ate the fish",
                   "the sun held the tree"]
        singles = [simplify(model, vocab, s, cfg) for s in sources]
        assert greedy_decode_batch(model, vocab, sources, cfg) == singles

    def test_simplify_dispatch(self):
        model, vocab = self.make(1)
        src = "the cat ate the sun"
        greedy = DecodeConfig(max_len=10)
        beam = DecodeConfig(max_len=10, strategy="beam", beam_width=3)
        step = _model_step_fn(model, vocab, src, greedy)
        assert simplify(model, vocab, src, greedy) == \
            decode(vocab, greedy_ids(step, vocab.bos_id, vocab.eos_id, 10))
        assert simplify(model, vocab, src, beam) == \
            decode(vocab, beam_ids(step, vocab.bos_id, vocab.eos_id, 10, 3))
