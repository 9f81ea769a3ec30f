import itertools
import math

import numpy as np
import pytest

from sentsimp import tensor
from sentsimp import decoding
from sentsimp.decoding import (DecodeConfig, _cached_step, _top_k, beam_ids,
                               greedy_decode_batch, greedy_ids, simplify)
from sentsimp.model import (VARIANTS, DecoderCache, decoder_logits, encode_source, init_model,
                            variant_config)
from sentsimp.tensor import Tensor
from sentsimp.tokenizer import build_vocab, decode, encode

from conftest import make_toy_pairs, ragged_pairs, toy_model_config, toy_vocab

BOS, EOS = 1, 2


def table_step_fn(table, vocab_size):
    """Next-token logits from a dict prefix -> per-token log-probabilities."""
    def step(prefix):
        probs = table[tuple(prefix)]
        return np.log(np.asarray(probs))
    return step


def batched(step):
    """A one-prefix step (prefix -> logits [V]) as a search step (prefixes -> [rows, V])."""
    return lambda prefixes, rows=None: np.stack([step(p) for p in prefixes])


def full_step(model, vocab, source, max_len):
    """prefix -> next-token logits, recomputing the decoder over the whole prefix."""
    src = np.asarray([encode(vocab, source, max_len).ids])
    mask = np.ones_like(src, dtype=bool)
    enc_out = encode_source(model, src, mask)

    def step(prefix):
        tgt = np.asarray([prefix])
        return decoder_logits(model, enc_out, mask, tgt).data[0, -1]

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
        step = batched(lambda prefix: np.array([0.0, 0.0, 10.0, 0.0]))
        assert greedy_ids(step, BOS, EOS, max_len=10) == [BOS, EOS]

    def test_tie_breaks_to_lowest_id(self):
        step = batched(lambda prefix: np.zeros(4))
        ids = greedy_ids(step, BOS, EOS, max_len=10)
        assert ids[1] == 0

    def test_length_cap(self):
        step = batched(lambda prefix: np.array([0.0, 0.0, 0.0, 5.0]))  # never eos
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
        greedy = greedy_ids(batched(step), BOS, EOS, max_len=4)
        beam = beam_ids(batched(step), BOS, EOS, max_len=4, beam_width=4)
        want, want_score = self.exhaustive_best(max_len=4)
        assert beam == want
        assert greedy != want
        assert sequence_logprob(step, beam) > sequence_logprob(step, greedy)

    def test_search_stops_once_a_finished_beam_wins(self):
        calls = []

        def step(prefix):  # off the table every continuation is diffuse and never eos
            calls.append(prefix)
            return np.log(np.asarray(self.TABLE.get(tuple(prefix), [0.25, 0.0, 0.0, 0.5, 0.25]))
                          + 1e-12)

        assert beam_ids(batched(step), BOS, EOS, max_len=80, beam_width=2) == [BOS, 4, EOS]
        assert len(calls) == 3  # bos, then its two beams; no live beam can beat [BOS, 4, EOS]

    def test_beam_width_one_equals_greedy(self):
        step = batched(self.step())
        assert beam_ids(step, BOS, EOS, 4, beam_width=1) == greedy_ids(step, BOS, EOS, 4)


def full_sort_top_k(logp, k):
    """The reference top-k: a stable descending sort of every entry."""
    return np.argsort(-logp, kind="stable")[:k]


class TestTopK:
    def test_tied_logits_keep_id_order(self):
        logp = np.array([-1.0, -0.5, -0.5, -2.0, -0.5, -0.5, -3.0])
        assert _top_k(logp, 3).tolist() == [1, 2, 4] == full_sort_top_k(logp, 3).tolist()
        assert _top_k(logp, 5).tolist() == [1, 2, 4, 5, 0] == full_sort_top_k(logp, 5).tolist()

    def test_ties_across_the_kth_value(self):
        logp = np.array([0.0, -1.0, -1.0, 0.0, -1.0, -1.0])
        assert _top_k(logp, 3).tolist() == [0, 3, 1] == full_sort_top_k(logp, 3).tolist()

    def test_k_beyond_the_vocabulary(self):
        logp = np.array([-1.0, 0.0, -1.0])
        assert _top_k(logp, 4).tolist() == [1, 0, 2]

    def test_matches_full_sort_on_coarse_random_logits(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            logp = rng.integers(-4, 1, size=int(rng.integers(1, 40))).astype(np.float64)
            k = int(rng.integers(1, 8))
            assert _top_k(logp, k).tolist() == full_sort_top_k(logp, k).tolist()

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_beam_output_matches_full_sort(self, variant, monkeypatch):
        pairs = make_toy_pairs(4, seed=1)
        vocab = toy_vocab(pairs)
        model = init_model(variant_config(variant, "toy", vocab.size), 2)
        cfg = DecodeConfig(max_len=12, strategy="beam", beam_width=4)
        sources = [s for s, _ in pairs]
        exact = [simplify(model, vocab, s, cfg) for s in sources]
        monkeypatch.setattr(decoding, "_top_k", full_sort_top_k)
        assert [simplify(model, vocab, s, cfg) for s in sources] == exact


class TestAgainstRandomModels:
    def make(self, seed, max_len=12):
        pairs = make_toy_pairs(4, seed=seed)
        vocab = toy_vocab(pairs)
        model = init_model(toy_model_config(vocab.size, max_len=max_len), seed)
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
            g = greedy_ids(_cached_step(model, vocab, [source], cfg)[0],
                           vocab.bos_id, vocab.eos_id, cfg.max_len)
            b = beam_ids(_cached_step(model, vocab, [source], cfg)[0],
                         vocab.bos_id, vocab.eos_id, cfg.max_len, 4)
            step = full_step(model, vocab, source, cfg.max_len)
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

    def test_decode_cap_bounds_only_the_output(self):
        """The source is encoded up to the model's positions whatever the decoding cap,
        so greedy under a smaller cap is a prefix of greedy under the model's."""
        source = "the obstreperous house chased the cat in the barn and park"  # 11 words
        for seed in range(20):
            model, vocab = self.make(seed, max_len=16)
            full, *shorter = (greedy_ids(_cached_step(model, vocab, [source], DecodeConfig(cap))[0],
                                         vocab.bos_id, vocab.eos_id, cap) for cap in (16, 5, 8, 12))
            for short in shorter:
                assert full[:len(short)] == short, (seed, len(short))

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
        step, _ = _cached_step(model, vocab, [src], greedy)
        assert simplify(model, vocab, src, greedy) == \
            decode(vocab, greedy_ids(step, vocab.bos_id, vocab.eos_id, 10))
        step, _ = _cached_step(model, vocab, [src], greedy)
        assert simplify(model, vocab, src, beam) == \
            decode(vocab, beam_ids(step, vocab.bos_id, vocab.eos_id, 10, 3))


@pytest.mark.parametrize("variant", ["bert", "gpt2"])
def test_batched_greedy_on_ragged_sources_matches_per_line(variant):
    """Sources of 1 to 9 words decoded in one padded batch give each line's own greedy
    output. The weights are ten times their initial scale, so that each source steers
    its output and the rows end at different steps; at the initial scale every line
    decodes to the same two words."""
    pairs = ragged_pairs(8)
    vocab = toy_vocab(pairs)
    model = init_model(variant_config(variant, "toy", vocab.size), 3)
    model.payload *= 10.0
    sources = [" ".join(s.split()[:k]) for (s, _), k in zip(pairs, (9, 2, 7, 1, 5, 8, 4, 6))]
    cfg = DecodeConfig(max_len=16)
    singles = [simplify(model, vocab, s, cfg) for s in sources]
    assert greedy_decode_batch(model, vocab, sources, cfg) == singles


@pytest.mark.parametrize("masking", ["bidirectional", "causal"])
class TestDecoderCache:
    def model(self, masking, seed=0):
        return init_model(toy_model_config(30, masking=masking, max_len=12), seed)

    def test_cached_logits_match_full_recompute(self, masking):
        """A padded batch of mixed-length sources, its rows reordered, repeated and dropped."""
        rng = np.random.default_rng(1)
        model = self.model(masking)
        lengths = [3, 9, 5, 7]
        src = np.zeros((4, 9), dtype=np.int64)
        src_mask = np.arange(9) < np.asarray(lengths)[:, None]
        src[src_mask] = rng.integers(4, 30, size=int(src_mask.sum()))
        enc_out = encode_source(model, src, src_mask)
        cache, tgt, rows = DecoderCache(), np.ones((4, 1), dtype=np.int64), np.arange(4)
        for t in range(11):
            if t:
                pick = rng.integers(0, len(rows), size=max(1, len(rows) - t % 2))
                cache.select(pick)
                rows, tgt = rows[pick], np.concatenate(
                    [tgt[pick], rng.integers(4, 30, size=(len(pick), 1))], axis=1)
            new = tgt[:, -1:]
            got = decoder_logits(model, enc_out, src_mask, new, cache=cache).data[:, 0]
            want = decoder_logits(model, Tensor(enc_out.data[rows]), src_mask[rows],
                                  tgt).data[:, -1]
            assert cache.length == tgt.shape[1]
            assert np.abs(got - want).max() < 1e-10

    def test_beam_run_matches_full_recompute(self, masking):
        pairs = make_toy_pairs(4, seed=2)
        vocab = toy_vocab(pairs)
        model = init_model(toy_model_config(vocab.size, masking=masking, max_len=12), 3)
        source = "the grandiloquent cat saw the dog"
        cfg = DecodeConfig(max_len=12)
        step, cap = _cached_step(model, vocab, [source], cfg)
        full = full_step(model, vocab, source, cap)
        previous, reorders = [], []

        def checked(prefixes, rows):
            got = step(prefixes, rows)
            want = np.stack([full(list(p)) for p in prefixes])
            assert np.abs(got - want).max() < 1e-10
            if previous:
                rows = range(len(prefixes)) if rows is None else rows
                assert [tuple(p[:-1]) for p in prefixes] == [previous[r] for r in rows]
                reorders.append(list(rows) != list(range(len(rows))))
            previous[:] = [tuple(p) for p in prefixes]
            return got

        ids = beam_ids(checked, vocab.bos_id, vocab.eos_id, cap, beam_width=4)
        assert ids == beam_ids(batched(full), vocab.bos_id, vocab.eos_id, cap, beam_width=4)
        assert len(reorders) > 2 and any(reorders)


class TestGreedyCacheGather:
    def count_selects(self, monkeypatch, never_eos):
        pairs = make_toy_pairs(16, seed=0)
        vocab = toy_vocab(pairs)
        model = init_model(toy_model_config(vocab.size, max_len=12), 0)
        if never_eos:
            model.params["out.b"].data[vocab.eos_id] = -1e6
        calls = []
        select = DecoderCache.select

        def counting(cache, rows):
            calls.append(len(rows))
            return select(cache, rows)

        monkeypatch.setattr(DecoderCache, "select", counting)
        cfg = DecodeConfig(max_len=12)
        sources = [s for s, _ in pairs]
        out = greedy_decode_batch(model, vocab, sources, cfg)
        monkeypatch.setattr(DecoderCache, "select", select)
        assert out == [simplify(model, vocab, s, cfg) for s in sources]
        return calls

    def test_no_gather_while_every_row_continues(self, monkeypatch):
        assert self.count_selects(monkeypatch, never_eos=True) == []

    def test_gather_only_when_rows_finish(self, monkeypatch):
        """On this model some rows stop at eos before the cap: each gather drops rows."""
        calls = self.count_selects(monkeypatch, never_eos=False)
        assert calls and all(a > b for a, b in zip([16] + calls, calls))


def test_decoding_records_no_tape(monkeypatch):
    """Every op still runs through _result (and its finite check), but none is tracked."""
    pairs = make_toy_pairs(4, seed=0)
    vocab = toy_vocab(pairs)
    model = init_model(toy_model_config(vocab.size, max_len=10), 0)
    outputs = []
    result = tensor._result

    def spy(data, parents, backward_fn):
        out = result(data, parents, backward_fn)
        outputs.append(out)
        return out

    monkeypatch.setattr(tensor, "_result", spy)
    sources = [s for s, _ in pairs]
    greedy_decode_batch(model, vocab, sources, DecodeConfig(max_len=10))
    simplify(model, vocab, sources[0], DecodeConfig(max_len=10, strategy="beam"))
    assert outputs
    assert not any(t.requires_grad or t._parents or t._backward_fn for t in outputs)
    assert all(p.requires_grad for p in model.parameters())
