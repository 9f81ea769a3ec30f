import io
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
import warnings
from contextlib import contextmanager, redirect_stderr
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sentsimp import cli, train
from sentsimp.cli import main
from sentsimp.tensor import NonFiniteError
from sentsimp.train import CHECKPOINT_MAGIC, CHECKPOINT_VERSION, TrainConfig

from conftest import make_toy_pairs, write_corpus


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus")
    train = make_toy_pairs(16, seed=0)
    valid = make_toy_pairs(8, seed=1)
    test = make_toy_pairs(8, seed=2)
    (d / "train.src").write_text("".join(s + "\n" for s, _ in train))
    (d / "train.tgt").write_text("".join(t + "\n" for _, t in train))
    write_corpus(d, "valid", valid, n_refs=2)
    write_corpus(d, "test", test, n_refs=2)
    return d


def train_args(corpus_dir, out, extra=()):
    return ["train",
            "--train-src", str(corpus_dir / "train.src"),
            "--train-tgt", str(corpus_dir / "train.tgt"),
            "--valid-stem", str(corpus_dir / "valid"),
            "--out", str(out),
            "--epochs", "2", "--seed", "0", *extra]


def one_error_line(capsys) -> str:
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    return err[0]


@pytest.fixture(scope="module")
def trained_run(corpus_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("run") / "bert"
    assert main(train_args(corpus_dir, out)) == 0
    return out


class TestTrain:
    def test_run_dir_contents(self, trained_run):
        assert (trained_run / "checkpoint.bin").exists()
        assert (trained_run / "config.resolved").exists()
        history = (trained_run / "history.tsv").read_text().splitlines()
        assert history[0] == "epoch\tloss\tsari\tlr"
        assert len(history) >= 2

    def test_resolved_config_echoes_settings(self, trained_run):
        text = (trained_run / "config.resolved").read_text()
        assert "variant=bert" in text
        assert "seed=0" in text
        assert "epochs=2" in text

    def test_reproducible_runs(self, corpus_dir, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(train_args(corpus_dir, a)) == 0
        assert main(train_args(corpus_dir, b)) == 0
        assert (a / "history.tsv").read_bytes() == (b / "history.tsv").read_bytes()
        assert (a / "checkpoint.bin").read_bytes() == (b / "checkpoint.bin").read_bytes()

    def test_missing_corpus_exits_2(self, corpus_dir, tmp_path, capsys):
        args = train_args(corpus_dir, tmp_path / "x")
        args[args.index("--train-src") + 1] = str(corpus_dir / "absent.src")
        assert main(args) == 2
        assert "absent.src" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()
        # One epoch over a corpus that fits in one batch is a one-step schedule.
        args = train_args(corpus_dir, tmp_path / "y", ["--epochs", "1", "--batch-size", "64"])
        assert main(args) == 2
        assert "at least 2" in one_error_line(capsys)
        assert not (tmp_path / "y").exists()

    def test_min_freq_below_one_exits_2_before_out(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(train_args(corpus_dir, out, ["--min-freq", "-3"])) == 2
        assert "min_freq" in one_error_line(capsys)
        assert not out.exists()

    # (--max-lr, --base-lr): the norm's sum of squares overflows to inf; a backward pass
    # overflows to a nan norm; a forward pass overflows; the update itself overflows from
    # a finite gradient norm. STOPS names the check that ends each run.
    STOPS = {"1e9": "norm", "1e30": "norm", "1e100": "loss", "1e200": "update"}

    @pytest.mark.parametrize("max_lr, base_lr", [("1e9", "1e8"), ("1e30", "1e30"),
                                                 ("1e100", "1e100"), ("1e200", "1e200")])
    def test_divergence_exits_1_naming_the_batch_that_overflowed(
            self, corpus_dir, tmp_path, capsys, monkeypatch, max_lr, base_lr):
        """At an absurd learning rate training stops at the first batch whose gradient
        norm, update or forward pass is not finite, and prints one stderr line: no numpy
        warning, that epoch and batch, and the gradient norm when that is what overflowed.
        Every earlier batch left a finite payload. The --out that the run created is
        removed again."""
        trained, norms, finite = [], [], []
        forward, clip_gradients = train.forward, train.clip_gradients

        def recording_forward(model, batch, **kwargs):
            trained.append(batch)
            finite.append(bool(np.isfinite(model.payload).all()))
            return forward(model, batch, **kwargs)

        def recording_clip(model):
            norms.append(clip_gradients(model))
            return norms[-1]

        monkeypatch.setattr(train, "forward", recording_forward)
        monkeypatch.setattr(train, "clip_gradients", recording_clip)
        out = tmp_path / "run"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(train_args(corpus_dir, out, ["--max-lr", max_lr,
                                                     "--base-lr", base_lr])) == 1
        assert [str(w.message) for w in caught] == []
        assert all(finite)
        stop = self.STOPS[max_lr]
        per_epoch = len({id(b) for b in trained})
        epoch, batch = divmod(len(trained) - 1, per_epoch)
        where = f"at epoch {epoch + 1}, batch {batch}"
        assert len(norms) == len(trained) - (stop == "loss")
        assert all(map(math.isfinite, norms[:-1]))
        assert math.isfinite(norms[-1]) == (stop != "norm")
        want = {"norm": f"non-finite gradient norm {norms[-1]} {where}",
                "loss": f"non-finite loss {where}", "update": f"non-finite update {where}"}
        assert capsys.readouterr().err.splitlines() == [f"numeric failure: {want[stop]}"]
        assert not out.exists()

    def test_divergence_keeps_an_out_that_existed(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "run"
        out.mkdir()
        assert main(train_args(corpus_dir, out, ["--max-lr", "1e30", "--base-lr", "1e30"])) == 1
        assert capsys.readouterr().err.startswith("numeric failure:")
        assert out.is_dir() and not any(out.iterdir())

    def test_config_file_flags_override(self, corpus_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs=1\nseed=5\n")
        out = tmp_path / "run"
        args = train_args(corpus_dir, out, extra=["--config", str(cfg)])
        # --epochs 2 flag beats epochs=1 from the file; seed comes from flag too
        assert main(args) == 0
        text = (out / "config.resolved").read_text()
        assert "epochs=2" in text
        assert "seed=0" in text

    def test_unknown_config_key_exits_2_before_loading(self, corpus_dir, tmp_path, capsys,
                                                       monkeypatch):
        monkeypatch.setattr(cli.C, "load_parallel", lambda *a: pytest.fail("corpus loaded"))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("max-lr=3e-3\n")
        out = tmp_path / "run"
        assert main(train_args(corpus_dir, out, extra=["--config", str(cfg)])) == 2
        assert "max-lr" in one_error_line(capsys)
        assert not out.exists()

    def test_resolved_config_replays_the_run(self, trained_run, corpus_dir, tmp_path):
        out = tmp_path / "replay"
        assert main(["train", "--config", str(trained_run / "config.resolved"),
                     "--train-src", str(corpus_dir / "train.src"),
                     "--train-tgt", str(corpus_dir / "train.tgt"),
                     "--valid-stem", str(corpus_dir / "valid"), "--out", str(out)]) == 0
        for name in ("checkpoint.bin", "history.tsv"):
            assert (out / name).read_bytes() == (trained_run / name).read_bytes()


    def test_every_train_config_field_is_a_setting(self):
        assert {f.name for f in fields(TrainConfig)} <= set(cli.TRAIN_SETTINGS)
        args = cli.build_parser().parse_args(["train", "--out", "o", "--train-src", "s",
                                              "--train-tgt", "t", "--valid-stem", "v"])
        assert TrainConfig(**{f.name: getattr(args, f.name)
                              for f in fields(TrainConfig)}) == TrainConfig()

    def test_typed_settings_round_trip(self, corpus_dir, tmp_path):
        # scale stays toy: the one other scale is too large to train here
        settings = {"variant": "gpt2", "scale": "toy", "seed": "7", "epochs": "3",
                    "batch-size": "4", "patience": "none", "max-vocab": "40",
                    "min-freq": "2", "base-lr": "2e-4", "max-lr": "3e-3"}
        assert len(settings) == len(cli.TRAIN_SETTINGS)
        inputs = ["--train-src", str(corpus_dir / "train.src"),
                  "--train-tgt", str(corpus_dir / "train.tgt"),
                  "--valid-stem", str(corpus_dir / "valid")]
        run, replay = tmp_path / "run", tmp_path / "replay"
        flags = [token for key, value in settings.items() for token in (f"--{key}", value)]
        assert main(["train", *inputs, "--out", str(run), *flags]) == 0
        resolved = (run / "config.resolved").read_text().splitlines()
        assert {"base_lr=0.0002", "max_lr=0.003", "patience=None", "seed=7",
                "max_vocab=40", f"out={run}"} <= set(resolved)
        assert main(["train", *inputs, "--out", str(replay),
                     "--config", str(run / "config.resolved")]) == 0
        for name in ("checkpoint.bin", "history.tsv"):
            assert (replay / name).read_bytes() == (run / name).read_bytes()
        assert (replay / "config.resolved").read_text().splitlines() == \
            [f"out={replay}" if line.startswith("out=") else line for line in resolved]


def test_help_is_unchanged(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: sentsimp train")


@pytest.mark.parametrize("args, code", [(["--help"], 0), (["train", "--epochs", "x"], 2)],
                         ids=["help", "bad_flag"])
def test_module_entry_point(args, code):
    """`python -m sentsimp` runs `main` and exits with its code; a bad flag ends in one
    `error:` line on stderr."""
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-m", "sentsimp", *args], capture_output=True,
                          text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert done.returncode == code, done.stderr
    if code:
        err = done.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err
    else:
        assert done.stdout.startswith("usage: sentsimp") and not done.stderr


# id -> (subcommand and the flags after its required paths, --config file text or None)
ARGUMENT_ERRORS = {
    "simplify_beam_width": (["simplify", "--beam-width", "x"], None),
    "eval_bins": (["eval", "--bins", "x"], None),
    "train_epochs": (["train", "--epochs", "x"], None),
    "train_epochs_0": (["train", "--epochs", "0"], None),
    "train_batch_size_0": (["train", "--batch-size", "0"], None),
    "train_missing_out": (["train"], None),
    "config_epochs": (["train"], "epochs=x\n"),
    "config_variant": (["train"], "variant=t5\n"),
}


@pytest.mark.parametrize("case", ARGUMENT_ERRORS)
def test_argument_errors_exit_2(case, corpus_dir, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli.C, "load_parallel", lambda *a: pytest.fail("corpus loaded"))
    extra, config = ARGUMENT_ERRORS[case]
    out = tmp_path / "out"
    paths = {
        "simplify": ["--checkpoint", str(tmp_path / "c.bin"), "--input",
                     str(corpus_dir / "test.src"), "--output", str(out)],
        "eval": ["--system", str(corpus_dir / "test.ref.0"),
                 "--eval-stem", str(corpus_dir / "test"), "--out", str(out)],
        "train": train_args(corpus_dir, out)[1:],
    }[extra[0]]
    if case == "train_missing_out":
        i = paths.index("--out")
        del paths[i:i + 2]
    if config is not None:
        (tmp_path / "run.cfg").write_text(config)
        paths += ["--config", str(tmp_path / "run.cfg")]
    assert main([extra[0], *paths, *extra[1:]]) == 2
    message = one_error_line(capsys)
    assert ("run.cfg" in message) == (config is not None)
    assert not out.exists()


PREFIX = struct.Struct("<4sIQ")  # magic, version, header length


def join(header, payload: bytes, version=CHECKPOINT_VERSION, length=None) -> bytes:
    """A checkpoint file from a header (a dict to encode, or raw bytes) and a payload."""
    text = header if isinstance(header, bytes) else json.dumps(header).encode("utf-8")
    return PREFIX.pack(CHECKPOINT_MAGIC, version,
                       len(text) if length is None else length) + text + payload


def split(raw: bytes) -> tuple[dict, bytes]:
    """A checkpoint file's decoded header and its payload bytes."""
    _, _, n = PREFIX.unpack_from(raw)
    return json.loads(raw[PREFIX.size:PREFIX.size + n]), raw[PREFIX.size + n:]


def edited(edit):
    """A corruption that edits the decoded header in place and re-encodes it."""
    def build(header, payload):
        edit(header)
        return join(header, payload)
    return build


def swapped(params: dict, i: int, j: int) -> dict:
    """`params` with its i-th and j-th entries trading places."""
    items = list(params.items())
    items[i], items[j] = items[j], items[i]
    return dict(items)


# A header's params edited in place -> the payload a save of such tensors would write.
def _missing(params, payload):
    return payload[:-8 * params.pop("out.b")[0]]


def _extra(params, payload):
    params["bogus.w"] = [2]
    return payload + bytes(16)


def _wrong_shape(params, payload):
    params["out.b"][0] -= 1
    return payload[:-8]


# id -> (build(header, payload) -> file bytes, text the error must name)
CORRUPT = {
    "unknown_key": (edited(lambda h: h["config"].update(activation="gelu")), "activation"),
    "not_json": (lambda h, p: join(b'{"config": ', p), "not JSON"),
    "missing_key": (edited(lambda h: h["config"].pop("d_model")), "d_model"),
    "wrong_type": (edited(lambda h: h["config"].update(d_model="64")), "d_model"),
    "missing_section": (edited(lambda h: h.pop("history")), "exactly"),
    "extra_section": (edited(lambda h: h.update(variant="bert")), "exactly"),
    "specials": (edited(lambda h: h["vocab"].reverse()), "specials"),
    "duplicate_token": (edited(lambda h: h["vocab"].__setitem__(-1, h["vocab"][4])), "repeats"),
    "n_heads_0": (edited(lambda h: h["config"].update(n_heads=0)), "n_heads"),
    "vocab_longer": (edited(lambda h: h["vocab"].append("zebra")), "vocab_size"),
    "vocab_shorter": (edited(lambda h: h["vocab"].pop()), "vocab_size"),
    "params_reordered": (edited(lambda h: h.update(params=swapped(h["params"], 0, 2))),
                         "enc.tok_emb"),
    "float_shape": (edited(lambda h: h["params"].update(
        {"out.b": [float(d) for d in h["params"]["out.b"]]})), "out.b"),
    "negative_shape": (edited(lambda h: h["params"].update({"out.b": [-1]})), "out.b"),
    "huge_header_length": (lambda h, p: join(h, p, length=2**62), "truncated"),
    "huge_shape": (edited(lambda h: h["params"].update({"out.b": [2**40, 2**40]})), "out.b"),
    "trailing_bytes": (lambda h, p: join(h, p + bytes(8)), "trailing"),
    # The reader stops at the version, so a version 1 prefix stands for a whole v1 file.
    "v1_file": (lambda h, p: join(h, p, version=1), "version 1"),
}


class TestSimplify:
    def test_line_alignment(self, trained_run, corpus_dir, tmp_path):
        out_file = tmp_path / "sys.txt"
        assert main(["simplify", "--checkpoint", str(trained_run / "checkpoint.bin"),
                     "--input", str(corpus_dir / "test.src"),
                     "--output", str(out_file)]) == 0
        n_in = len((corpus_dir / "test.src").read_text().splitlines())
        assert len(out_file.read_text().splitlines()) == n_in

    def test_corpus_words_spelled_like_specials(self, tmp_path):
        """Such words train into a checkpoint that loads: they are unk, not specials."""
        pairs = [("the <unk> cat sat down", "the cat <PAD> sat"),
                 ("a <eos> dog ran <bos> off", "a dog <UNK> ran")]
        (tmp_path / "train.src").write_text("".join(s + "\n" for s, _ in pairs))
        (tmp_path / "train.tgt").write_text("".join(t + "\n" for _, t in pairs))
        write_corpus(tmp_path, "valid", pairs)
        assert main(train_args(tmp_path, tmp_path / "run")) == 0
        out_file = tmp_path / "sys.txt"
        assert main(["simplify", "--checkpoint", str(tmp_path / "run" / "checkpoint.bin"),
                     "--input", str(tmp_path / "valid.src"), "--output", str(out_file)]) == 0
        assert len(out_file.read_text().splitlines()) == len(pairs)

    def test_empty_input(self, trained_run, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        out_file = tmp_path / "out.txt"
        assert main(["simplify", "--checkpoint", str(trained_run / "checkpoint.bin"),
                     "--input", str(empty), "--output", str(out_file)]) == 0
        assert out_file.read_text() == ""

    def test_bad_checkpoint_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"JUNKJUNKJUNK")
        assert main(["simplify", "--checkpoint", str(bad),
                     "--input", str(bad), "--output", str(tmp_path / "o")]) == 2

    def simplify_error(self, ckpt, corpus_dir, tmp_path, capsys) -> str:
        assert main(["simplify", "--checkpoint", str(ckpt), "--input",
                     str(corpus_dir / "test.src"), "--output", str(tmp_path / "o")]) == 2
        return one_error_line(capsys)

    @pytest.mark.parametrize("edit", [_missing, _extra, _wrong_shape],
                             ids=["missing", "extra", "wrong_shape"])
    def test_parameter_set_mismatch_exits_2(self, edit, trained_run, corpus_dir,
                                            tmp_path, capsys):
        header, payload = split((trained_run / "checkpoint.bin").read_bytes())
        payload = edit(header["params"], payload)
        path = tmp_path / "edited.bin"
        path.write_bytes(join(header, payload))
        message = self.simplify_error(path, corpus_dir, tmp_path, capsys)
        assert "bogus.w" in message or "out.b" in message

    @pytest.mark.parametrize("case", CORRUPT)
    def test_corrupt_config_block_exits_2(self, case, trained_run, corpus_dir, tmp_path,
                                          capsys):
        build, named = CORRUPT[case]
        path = tmp_path / "edited.bin"
        path.write_bytes(build(*split((trained_run / "checkpoint.bin").read_bytes())))
        assert named in self.simplify_error(path, corpus_dir, tmp_path, capsys)

    def test_failure_midway_writes_no_output(self, trained_run, corpus_dir, tmp_path,
                                             monkeypatch):
        decoded = []

        def simplify(*args):
            decoded.append(args)
            if len(decoded) == 2:
                raise NonFiniteError("operation produced a non-finite value")
            return "ok"

        monkeypatch.setattr(cli, "simplify", simplify)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        assert main(["simplify", "--checkpoint", str(trained_run / "checkpoint.bin"),
                     "--input", str(corpus_dir / "test.src"),
                     "--output", str(out_dir / "sys.txt")]) == 1
        assert len(decoded) == 2
        assert list(out_dir.iterdir()) == []


@pytest.fixture(scope="module")
def eval_dir(corpus_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("eval") / "run"
    system = tmp_path_factory.mktemp("sys") / "sys.txt"
    system.write_text((corpus_dir / "test.ref.0").read_text())
    assert main(["eval", "--system", str(system),
                 "--eval-stem", str(corpus_dir / "test"),
                 "--out", str(out), "--label", "bert-toy"]) == 0
    return out


class TestEval:
    def test_report_json_schema(self, eval_dir):
        data = json.loads((eval_dir / "report.json").read_text())
        assert set(data) == {"label", "sari", "add", "keep", "delete", "n"}
        assert data["n"] == 8
        for key in ("sari", "add", "keep", "delete"):
            assert 0.0 <= data[key] <= 100.0

    def test_report_text_has_reference_row(self, eval_dir):
        text = (eval_dir / "report.txt").read_text()
        assert "BERT" in text
        assert "46.80" in text and "12.13" in text and "67.16" in text and "61.22" in text

    def test_sentence_scores_and_histogram(self, eval_dir):
        scores = (eval_dir / "sentences.tsv").read_text().splitlines()
        assert len(scores) == 9  # header + 8
        hist = (eval_dir / "histogram.tsv").read_text().splitlines()
        counts = sum(int(line.split("\t")[1]) for line in hist[1:])
        assert counts == 8

    def test_line_count_mismatch_exits_2(self, corpus_dir, tmp_path, capsys):
        short = tmp_path / "short.txt"
        short.write_text("one line\n")
        assert main(["eval", "--system", str(short),
                     "--eval-stem", str(corpus_dir / "test"),
                     "--out", str(tmp_path / "out")]) == 2

    def test_bad_bins_exits_2_before_writing(self, corpus_dir, tmp_path, capsys):
        """10**9 bins would build an 8 GB list; it is rejected before any is built."""
        out = tmp_path / "out"
        for bins in ("0", "10001", str(10**9)):
            assert main(["eval", "--system", str(corpus_dir / "test.ref.0"),
                         "--eval-stem", str(corpus_dir / "test"),
                         "--out", str(out), "--bins", bins]) == 2
            assert "num_bins must lie in [1, 10000]" in one_error_line(capsys)
            assert not out.exists() or not any(out.iterdir())


class TestReport:
    def test_table_sorted_with_literature_rows(self, tmp_path, capsys):
        for name, sari in [("alpha", 30.0), ("beta", 50.0)]:
            d = tmp_path / name
            d.mkdir()
            (d / "report.json").write_text(json.dumps(
                {"label": name, "sari": sari, "add": 1.0, "keep": 2.0,
                 "delete": 3.0, "n": 4}))
        assert main(["report", str(tmp_path / "alpha"), str(tmp_path / "beta"),
                     "--out", str(tmp_path / "cmp")]) == 0
        out = capsys.readouterr().out
        assert out.index("beta") < out.index("alpha")  # sorted by SARI desc
        assert "43.31" in out and "43.30" in out
        assert (tmp_path / "cmp" / "comparison.txt").exists()

    def test_missing_json_skipped_with_warning(self, tmp_path, capsys, caplog):
        d = tmp_path / "empty_run"
        d.mkdir()
        assert main(["report", str(d)]) == 0
        assert "43.30" in capsys.readouterr().out

    @pytest.mark.parametrize("text", [
        json.dumps({"label": "x", "sari": 1.0, "add": 1.0, "keep": 1.0, "n": 1}),
        json.dumps([1, 2]),
        json.dumps({"label": "x", "sari": "1.0", "add": 1.0, "keep": 1.0, "delete": 1.0}),
        json.dumps({"label": 3, "sari": 1.0, "add": 1.0, "keep": 1.0, "delete": 1.0}),
        '{"label": ',
    ], ids=["missing_key", "not_object", "string_score", "number_label", "not_json"])
    def test_bad_json_exits_2_before_writing(self, text, tmp_path, capsys):
        d = tmp_path / "run"
        d.mkdir()
        (d / "report.json").write_text(text)
        assert main(["report", str(d), "--out", str(tmp_path / "cmp")]) == 2
        assert str(d / "report.json") in one_error_line(capsys)
        assert not (tmp_path / "cmp").exists()

    @pytest.mark.parametrize("text", [
        "[" * 200_000,
        '{"label": "x", "sari": 1e999, "add": 1.0, "keep": 1.0, "delete": 1.0}',
        '{"label": "x", "sari": 1.0, "add": NaN, "keep": 1.0, "delete": 1.0}',
        '{"label": "x", "sari": 1.0, "add": 1.0, "keep": 100.5, "delete": 1.0}',
        '{"label": "x", "sari": 1.0, "add": 1.0, "keep": 1.0, "delete": -0.5}',
    ], ids=["deeply_nested", "infinite_score", "nan_score", "score_above_100",
            "score_below_0"])
    def test_hostile_json_exits_2(self, text, tmp_path, capsys):
        d = tmp_path / "run"
        d.mkdir()
        (d / "report.json").write_text(text)
        assert main(["report", str(d)]) == 2
        assert str(d / "report.json") in one_error_line(capsys)


@pytest.mark.parametrize("case", ["train_src", "valid_src", "config", "simplify_input",
                                  "eval_system"])
def test_text_input_that_is_not_utf8_is_named(case, trained_run, corpus_dir, tmp_path,
                                              capsys, monkeypatch):
    """Each text input that is not UTF-8 ends in one `error:` line that names it."""
    monkeypatch.setattr(cli, "train_loop", lambda *a: pytest.fail("train_loop called"))
    write_corpus(tmp_path, "valid", make_toy_pairs(4, seed=1))
    bad = tmp_path / ("valid.src" if case == "valid_src" else "bad.txt")
    bad.write_bytes(b"\xff the cat\n")
    train = ["train", "--train-src", str(corpus_dir / "train.src"),
             "--train-tgt", str(corpus_dir / "train.tgt"),
             "--valid-stem", str(tmp_path / "valid"), "--out", str(tmp_path / "out")]
    argv = {
        "train_src": train[:2] + [str(bad)] + train[3:],
        "valid_src": train,
        "config": train + ["--config", str(bad)],
        "simplify_input": ["simplify", "--checkpoint", str(trained_run / "checkpoint.bin"),
                           "--input", str(bad), "--output", str(tmp_path / "o.txt")],
        "eval_system": ["eval", "--system", str(bad), "--eval-stem", str(corpus_dir / "test"),
                        "--out", str(tmp_path / "out")],
    }[case]
    assert main(argv) == 2
    assert str(bad) in one_error_line(capsys)
    assert not (tmp_path / "out").exists() and not (tmp_path / "o.txt").exists()


_VALUES = st.one_of(st.text(max_size=12), st.integers().map(str), st.floats().map(repr),
                   st.sampled_from(["", "none", "bert", "gpt2+bert", "toy", "paper"]))
_CONFIG_LINES = st.one_of(
    st.builds("{}={}".format, st.sampled_from([*cli.TRAIN_SETTINGS, "out"]) | st.text(max_size=8),
              _VALUES),
    st.text(max_size=24))


@given(st.lists(_CONFIG_LINES, max_size=6))
@settings(max_examples=200, deadline=None)
def test_random_config_file_ends_in_one_error_line(lines):
    """Settings are checked before the corpus is read, and the corpus is missing, so
    whatever the file holds, `train` exits 2 with one `error:` line."""
    with tempfile.TemporaryDirectory() as d:
        config = Path(d) / "run.cfg"
        config.write_text("\n".join(lines), encoding="utf-8")
        stderr = io.StringIO()
        with redirect_stderr(stderr):
            code = main(["train", "--config", str(config), "--out", str(Path(d) / "out"),
                         "--train-src", str(Path(d) / "absent.src"),
                         "--train-tgt", str(Path(d) / "absent.tgt"),
                         "--valid-stem", str(Path(d) / "valid")])
    err = stderr.getvalue().splitlines()
    assert code == 2 and len(err) == 1 and err[0].startswith("error:"), (code, err)


@pytest.mark.parametrize("case", ["simplify_output_is_dir", "simplify_input_is_dir",
                                  "train_out_is_file", "eval_out_is_file",
                                  "report_out_is_file"])
def test_file_system_errors_exit_2(case, trained_run, corpus_dir, tmp_path, capsys,
                                   monkeypatch):
    monkeypatch.setattr(cli, "train_loop", lambda *a: pytest.fail("train_loop called"))
    a_file, a_dir = tmp_path / "file", tmp_path / "dir"
    a_file.write_text("x\n")
    a_dir.mkdir()
    (a_dir / "report.json").write_text(json.dumps(
        {"label": "x", "sari": 1.0, "add": 1.0, "keep": 1.0, "delete": 1.0, "n": 1}))
    ckpt, test_src = str(trained_run / "checkpoint.bin"), str(corpus_dir / "test.src")
    argv = {
        "simplify_output_is_dir": ["simplify", "--checkpoint", ckpt, "--input", test_src,
                                   "--output", str(a_dir)],
        "simplify_input_is_dir": ["simplify", "--checkpoint", ckpt, "--input", str(a_dir),
                                  "--output", str(tmp_path / "o")],
        "train_out_is_file": train_args(corpus_dir, a_file),
        "eval_out_is_file": ["eval", "--system", str(corpus_dir / "test.ref.0"),
                             "--eval-stem", str(corpus_dir / "test"), "--out", str(a_file)],
        "report_out_is_file": ["report", str(a_dir), "--out", str(a_file)],
    }[case]
    assert main(argv) == 2
    assert str(tmp_path) in one_error_line(capsys)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "file"]


class _FillsUp:
    """A file on a disk with room for `room` more bytes, by default half the first write."""

    def __init__(self, f, room=None):
        self.f, self.room = f, room

    def write(self, data):
        if not isinstance(data, str):
            data = memoryview(data).cast("B")
        if self.room is None:
            self.room = len(data) // 2
        if len(data) <= self.room:
            self.room -= len(data)
            return self.f.write(data)
        self.f.write(data[:self.room])
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("case", ["train", "checkpoint", "simplify", "eval", "report"])
def test_write_failing_midway_leaves_no_file(case, trained_run, corpus_dir, tmp_path,
                                             capsys, monkeypatch):
    """The target keeps its old bytes, or stays absent, and no temporary file is left."""
    target = {"train": "history.tsv", "checkpoint": "checkpoint.bin", "simplify": "sys.txt",
              "eval": "report.json", "report": "comparison.txt"}[case]
    out = tmp_path / "out"
    out.mkdir()
    old = room = None
    if case == "checkpoint":
        # A disk that fills halfway through the payload, under an older checkpoint.
        old = (trained_run / "checkpoint.bin").read_bytes()
        (out / target).write_bytes(old)
        _, _, n = PREFIX.unpack_from(old)
        room = len(old) // 2
        assert PREFIX.size + n < room
    staged_write = cli.staged_write

    @contextmanager
    def filling_up(path, mode="w"):
        with staged_write(path, mode) as f:
            yield _FillsUp(f, room) if str(path).endswith(target) else f

    monkeypatch.setattr(cli, "staged_write", filling_up)
    monkeypatch.setattr(train, "staged_write", filling_up)
    argv = {
        "train": train_args(corpus_dir, out, ["--epochs", "1"]),
        "checkpoint": train_args(corpus_dir, out, ["--epochs", "1"]),
        "simplify": ["simplify", "--checkpoint", str(trained_run / "checkpoint.bin"),
                     "--input", str(corpus_dir / "test.src"), "--output", str(out / target)],
        "eval": ["eval", "--system", str(corpus_dir / "test.ref.0"),
                 "--eval-stem", str(corpus_dir / "test"), "--out", str(out)],
        "report": ["report", str(trained_run), "--out", str(out)],
    }[case]
    assert main(argv) == 2
    assert "No space left on device" in one_error_line(capsys)
    left = [p.name for p in out.iterdir()]
    assert not [n for n in left if n.endswith(".tmp")]
    if old is None:
        assert target not in left
    else:
        assert (out / target).read_bytes() == old
