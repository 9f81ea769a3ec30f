"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines
as they happen; without -s they still appear for any failing criterion.
"""

import math
import time

import numpy as np
import pytest

from sentsimp import tensor as T
from sentsimp.cli import main
from sentsimp.corpus import EvalExample
from sentsimp.decoding import DecodeConfig, greedy_decode_batch
from sentsimp.model import (encode_source, forward, init_model, param_shapes, param_views,
                            variant_config)
from sentsimp.sari import sari_corpus, sari_sentence
from sentsimp.train import TrainConfig, onecycle_lr, train_loop

from conftest import (make_toy_pairs, random_batch, tokenized_batches, toy_model_config,
                      toy_vocab, write_corpus)
from gradcheck import grad_check_params
from sari_oracle import oracle_sari


def verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"\ncriterion {num} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_sari_oracle_equivalence():
    start = time.perf_counter()
    words = ["the", "cat", "sat", "on", "a", "mat"]
    rng = np.random.default_rng(0)

    def sentence():
        k = int(rng.integers(1, 9))
        return " ".join(rng.choice(words) for _ in range(k))

    worst = 0.0
    for _ in range(100):
        src, out = sentence(), sentence()
        refs = [sentence() for _ in range(int(rng.integers(1, 4)))]
        mine = sari_sentence(src, out, refs)
        ref = oracle_sari(src, out, refs)
        worst = max(worst, abs(mine.sari - ref["sari"]), abs(mine.add - ref["add"]),
                    abs(mine.keep - ref["keep"]), abs(mine.delete - ref["delete"]))

    same = "the cat sat on the mat"
    identity = sari_sentence(same, same, [same])
    hand = sari_sentence("a b c", "a b", ["a b"])
    hand_ok = (round(hand.keep, 2) == 50.0 and round(hand.delete, 2) == 75.0
               and hand.add == 0.0 and round(hand.sari, 2) == 41.67)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and round(identity.sari, 2) == 33.33 and hand_ok and elapsed < 10
    verdict(1, "sari oracle equivalence", ok,
            f"max |diff| {worst:.2e} over 100 cases, hand examples "
            f"{round(identity.sari, 2)} / {round(hand.sari, 2)}, {elapsed:.1f}s")


def test_criterion_2_gradient_correctness():
    start = time.perf_counter()
    model = init_model(toy_model_config(32), 0)
    batch = random_batch(32, seed=0, b=2)

    def loss():
        return T.cross_entropy(forward(model, batch), batch.target_out_ids, 0)

    # h=1e-3 keeps central differences above float64 rounding noise on
    # near-zero gradient coordinates; see the gradient check unit tests.
    err = grad_check_params(loss, list(model.params.values()), h=1e-3,
                            max_evals=800, seed=0)
    elapsed = time.perf_counter() - start
    ok = err < 1e-4 and elapsed < 120
    verdict(2, "gradient correctness", ok,
            f"max relative error {err:.2e}, {elapsed:.1f}s")


def test_criterion_3_masking_semantics():
    start = time.perf_counter()
    rng = np.random.default_rng(0)

    def perturbed_pair(model, trial_rng):
        ls = int(trial_rng.integers(3, 9))
        src = trial_rng.integers(4, 32, size=(1, ls))
        mask = np.ones_like(src, dtype=bool)
        i = int(trial_rng.integers(0, ls - 1))
        j = int(trial_rng.integers(i + 1, ls))
        src2 = src.copy()
        src2[0, j] = (src2[0, j] % 28) + 4
        a = encode_source(model, src, mask).data
        b = encode_source(model, src2, mask).data
        return a[0, : i + 1], b[0, : i + 1]

    causal = init_model(toy_model_config(32, masking="causal"), 1)
    causal_ok = all(
        a.tobytes() == b.tobytes()
        for a, b in (perturbed_pair(causal, rng) for _ in range(50))
    )

    bidir = init_model(toy_model_config(32, masking="bidirectional"), 1)
    bidir_ok = all(
        not np.array_equal(a, b)
        for a, b in (perturbed_pair(bidir, rng) for _ in range(50))
    )

    batch = random_batch(32, seed=2)
    assert not batch.source_pad_mask[0, -1]
    base = forward(bidir, batch).data.copy()
    batch.source_ids[0, -1] = 7
    cross_ok = forward(bidir, batch).data[0].tobytes() == base[0].tobytes()

    elapsed = time.perf_counter() - start
    ok = causal_ok and bidir_ok and cross_ok and elapsed < 60
    verdict(3, "masking semantics", ok,
            f"causal invariant {causal_ok}, bidirectional sensitive {bidir_ok}, "
            f"cross-attention pad invariant {cross_ok}, {elapsed:.1f}s")


def test_criterion_4_overfit_run():
    start = time.perf_counter()
    pairs = make_toy_pairs(32, seed=0)
    vocab = toy_vocab(pairs)
    batches = tokenized_batches(pairs, vocab, batch_size=8)
    valid = [EvalExample(s, (t,)) for s, t in pairs[:4]]
    model = init_model(toy_model_config(vocab.size), 0)
    cfg = TrainConfig(epochs=200, patience=None, seed=0)
    _, history = train_loop(model, batches, valid, cfg, vocab)

    loss = history.epochs[-1].train_loss
    outs = greedy_decode_batch(model, vocab, [s for s, _ in pairs],
                               DecodeConfig(max_len=16))
    exact = sum(out == t for out, (_, t) in zip(outs, pairs))
    report, _ = sari_corpus(
        (s, out, [t]) for (s, t), out in zip(pairs, outs)
    )
    elapsed = time.perf_counter() - start
    ok = loss < 0.1 and exact >= 29 and report.sari > 90 and elapsed < 300
    verdict(4, "overfit run", ok,
            f"loss {loss:.4f}, exact {exact}/32, SARI {report.sari:.2f}, {elapsed:.0f}s")


def test_criterion_5_schedule_endpoints():
    cfg = TrainConfig()
    total = 10_000
    lrs = [onecycle_lr(s, total, cfg) for s in range(total)]
    peak = math.floor(0.1 * total)
    endpoints_ok = lrs[0] == 1e-4 and lrs[peak] == 1e-3
    rising = all(b > a for a, b in zip(lrs[:peak], lrs[1 : peak + 1]))
    falling = all(b < a for a, b in zip(lrs[peak:], lrs[peak + 1 :]))
    # continuity: no step-to-step jump beyond the steepest local slope
    bound = max((cfg.max_lr - cfg.base_lr) / peak,
                (cfg.max_lr - cfg.final_lr) * (math.pi / 2) / (total - 1 - peak))
    continuous = max(abs(b - a) for a, b in zip(lrs, lrs[1:])) <= bound * 1.0000001
    ok = endpoints_ok and rising and falling and continuous
    verdict(5, "schedule endpoints", ok,
            f"lr(0)={lrs[0]!r}, lr(peak)={lrs[peak]!r}, monotone "
            f"{rising and falling}, continuous {continuous}")


def test_criterion_6_early_stopping():
    pairs = make_toy_pairs(4, seed=0)
    vocab = toy_vocab(pairs)
    batches = tokenized_batches(pairs, vocab, batch_size=4)
    valid = [EvalExample(s, (t,)) for s, t in pairs]
    model = init_model(toy_model_config(vocab.size), 0)

    snapshots = []
    scores = [10.0, 12.0, 11.0, 11.0, 11.0, 99.0]

    def score(m):
        snapshots.append({k: p.data.copy() for k, p in m.params.items()})
        return scores[len(snapshots) - 1]

    cfg = TrainConfig(epochs=20, patience=3, seed=0)
    ckpt, history = train_loop(model, batches, valid, cfg, vocab, score_fn=score)
    stopped_ok = len(history.epochs) == 5 and history.stopped_early
    best_ok = history.best_epoch == 2 and all(
        np.array_equal(data, snapshots[1][name])
        for name, data in param_views(ckpt.payload, param_shapes(ckpt.config)).items()
    )
    verdict(6, "early stopping", stopped_ok and best_ok,
            f"stopped after epoch {len(history.epochs)}, "
            f"checkpoint from epoch {history.best_epoch}")


def cli_corpus(tmp_path):
    d = tmp_path / "corpus"
    d.mkdir()
    write_corpus(d, "train", make_toy_pairs(16, seed=0))
    write_corpus(d, "valid", make_toy_pairs(8, seed=1), n_refs=2)
    write_corpus(d, "test", make_toy_pairs(8, seed=2), n_refs=2)
    return d


def cli_train(corpus, out, variant="bert", epochs="3"):
    return main(["train",
                 "--train-src", str(corpus / "train.src"),
                 "--train-tgt", str(corpus / "train.tgt"),
                 "--valid-stem", str(corpus / "valid"),
                 "--out", str(out), "--variant", variant,
                 "--epochs", epochs, "--patience", "none", "--seed", "0"])


def test_criterion_7_reproducibility(tmp_path):
    corpus = cli_corpus(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli_train(corpus, a) == 0
    assert cli_train(corpus, b) == 0
    hist_ok = (a / "history.tsv").read_bytes() == (b / "history.tsv").read_bytes()
    ckpt_ok = (a / "checkpoint.bin").read_bytes() == (b / "checkpoint.bin").read_bytes()
    verdict(7, "reproducibility", hist_ok and ckpt_ok,
            f"history byte-identical {hist_ok}, checkpoint byte-identical {ckpt_ok}")


def test_criterion_8_variant_differentiation(tmp_path):
    start = time.perf_counter()
    pairs = make_toy_pairs(16, seed=0)
    vocab = toy_vocab(pairs)
    valid = [EvalExample(s, (t,)) for s, t in make_toy_pairs(8, seed=1)]
    trajectories = {}
    for variant in ("bert", "gpt2"):
        model = init_model(variant_config(variant, "toy", vocab_size=vocab.size), 0)
        batches = tokenized_batches(pairs, vocab, batch_size=8)
        # the masking difference takes a few dozen epochs to surface through
        # greedy decoding, so this runs well past the first divergence
        _, history = train_loop(model, batches, valid,
                                TrainConfig(epochs=60, patience=None, seed=0), vocab)
        trajectories[variant] = [r.valid_sari for r in history.epochs]
    differ = trajectories["bert"] != trajectories["gpt2"]

    corpus = cli_corpus(tmp_path)
    eval_dirs = []
    for variant in ("bert", "gpt2", "bert+gpt2", "gpt2+bert"):
        run = tmp_path / variant.replace("+", "_")
        assert cli_train(corpus, run, variant=variant, epochs="2") == 0
        system = run / "system.txt"
        assert main(["simplify", "--checkpoint", str(run / "checkpoint.bin"),
                     "--input", str(corpus / "test.src"),
                     "--output", str(system)]) == 0
        ev = run / "eval"
        assert main(["eval", "--system", str(system),
                     "--eval-stem", str(corpus / "test"),
                     "--out", str(ev), "--label", variant]) == 0
        eval_dirs.append(str(ev))

    cmp_dir = tmp_path / "cmp"
    assert main(["report", *eval_dirs, "--out", str(cmp_dir)]) == 0
    table = (cmp_dir / "comparison.txt").read_text().splitlines()
    run_rows = sum(1 for line in table
                   if line.split()[:1] and line.split()[0]
                   in ("bert", "gpt2", "bert+gpt2", "gpt2+bert"))
    lit_rows = sum(1 for line in table for score in ("40.42", "41.87", "41.46",
                                                     "43.31", "43.30") if score in line)
    elapsed = time.perf_counter() - start
    ok = differ and run_rows == 4 and lit_rows == 5 and elapsed < 20 * 60
    verdict(8, "variant differentiation", ok,
            f"trajectories differ {differ}, table rows {run_rows}+{lit_rows}, "
            f"{elapsed:.0f}s")
