import logging
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sentsimp import corpus as C
from sentsimp.tokenizer import TokenSequence


def write(path, lines):
    path.write_text("".join(line + "\n" for line in lines))


@pytest.mark.parametrize("make", [
    lambda: C.ParallelExample("one", "1"),
    lambda: C.EvalExample("one", ("1", "uno")),
    lambda: TokenSequence((1, 4, 2), truncated=False),
], ids=["ParallelExample", "EvalExample", "TokenSequence"])
def test_records_are_frozen_slotted_values(make):
    record, twin = make(), make()
    assert record == twin and record is not twin
    assert not hasattr(record, "__dict__")
    field = type(record).__slots__[0]
    with pytest.raises(FrozenInstanceError):
        setattr(record, field, getattr(record, field))


class TestLoadParallel:
    def test_identity_alignment(self, tmp_path):
        write(tmp_path / "a.src", ["one", "two", "three"])
        write(tmp_path / "a.tgt", ["1", "2", "3"])
        examples = C.load_parallel(tmp_path / "a.src", tmp_path / "a.tgt")
        assert examples == [C.ParallelExample("one", "1"),
                            C.ParallelExample("two", "2"),
                            C.ParallelExample("three", "3")]

    def test_empty_side_dropped_with_warning(self, tmp_path, caplog):
        write(tmp_path / "a.src", ["one", "", "three"])
        write(tmp_path / "a.tgt", ["1", "2", "3"])
        with caplog.at_level(logging.WARNING):
            examples = C.load_parallel(tmp_path / "a.src", tmp_path / "a.tgt")
        assert len(examples) == 2
        assert any("line 2" in rec.getMessage() for rec in caplog.records)

    def test_line_count_mismatch_names_both_counts(self, tmp_path):
        write(tmp_path / "a.src", ["one", "two"])
        write(tmp_path / "a.tgt", ["1", "2", "3"])
        with pytest.raises(C.CorpusFormatError, match="2.*3"):
            C.load_parallel(tmp_path / "a.src", tmp_path / "a.tgt")

    def test_missing_file_is_io_error(self, tmp_path):
        write(tmp_path / "a.src", ["one"])
        with pytest.raises(OSError):
            C.load_parallel(tmp_path / "a.src", tmp_path / "missing.tgt")

    def test_crlf_and_trailing_whitespace_stripped(self, tmp_path):
        (tmp_path / "a.src").write_bytes(b"one \r\ntwo\r\n")
        write(tmp_path / "a.tgt", ["1", "2"])
        examples = C.load_parallel(tmp_path / "a.src", tmp_path / "a.tgt")
        assert examples[0].source == "one"

    def test_round_trip(self, tmp_path):
        pairs = [("aa bb", "aa"), ("cc dd", "dd")]
        write(tmp_path / "a.src", [s for s, _ in pairs])
        write(tmp_path / "a.tgt", [t for _, t in pairs])
        examples = C.load_parallel(tmp_path / "a.src", tmp_path / "a.tgt")
        write(tmp_path / "b.src", [e.source for e in examples])
        write(tmp_path / "b.tgt", [e.target for e in examples])
        assert C.load_parallel(tmp_path / "b.src", tmp_path / "b.tgt") == examples


class TestLoadEval:
    def test_eight_references(self, tmp_path):
        n = 359
        write(tmp_path / "t.src", [f"src {i}" for i in range(n)])
        refs = []
        for r in range(8):
            path = tmp_path / f"t.ref.{r}"
            write(path, [f"ref {r} {i}" for i in range(n)])
            refs.append(path)
        examples = C.load_eval(tmp_path / "t.src", refs)
        assert len(examples) == 359
        assert all(len(e.references) == 8 for e in examples)
        assert examples[5].references[3] == "ref 3 5"

    def test_single_reference(self, tmp_path):
        write(tmp_path / "t.src", ["a"])
        write(tmp_path / "t.ref.0", ["b"])
        examples = C.load_eval(tmp_path / "t.src", [tmp_path / "t.ref.0"])
        assert examples == [C.EvalExample("a", ("b",))]

    def test_short_reference_file_named_in_error(self, tmp_path):
        write(tmp_path / "t.src", ["a", "b"])
        write(tmp_path / "t.ref.0", ["x", "y"])
        write(tmp_path / "t.ref.1", ["x"])
        with pytest.raises(C.CorpusFormatError, match="ref.1"):
            C.load_eval(tmp_path / "t.src", [tmp_path / "t.ref.0", tmp_path / "t.ref.1"])

    def test_find_eval_files(self, tmp_path):
        write(tmp_path / "t.src", ["a"])
        for r in range(3):
            write(tmp_path / f"t.ref.{r}", ["x"])
        src, refs = C.find_eval_files(tmp_path / "t")
        assert len(refs) == 3

    def test_find_eval_files_missing(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            C.find_eval_files(tmp_path / "nope")


def seqs(k):
    """k tokenized pairs with varying lengths; bos=1, eos=2, content >= 4."""
    return [((1, 4 + i % 3, 2), (1,) + (5,) * (1 + i % 4) + (2,)) for i in range(k)]


class TestMakeBatches:
    def test_batch_sizes(self):
        batches = C.make_batches(seqs(10), 4, pad_id=0, max_len=80)
        assert [b.source_ids.shape[0] for b in batches] == [4, 4, 2]

    def test_same_seed_same_composition(self):
        a = C.make_batches(seqs(10), 4, 0, 80, shuffle_seed=7)
        b = C.make_batches(seqs(10), 4, 0, 80, shuffle_seed=7)
        for x, y in zip(a, b):
            assert np.array_equal(x.source_ids, y.source_ids)
            assert np.array_equal(x.target_in_ids, y.target_in_ids)

    def test_padding_to_longest_row(self):
        pairs = [((1, 4, 2), (1, 5, 2)), ((1, 4, 4, 4, 4, 4, 2), (1, 5, 2))]
        (batch,) = C.make_batches(pairs, 2, pad_id=0, max_len=80)
        assert batch.source_ids.shape == (2, 7)
        assert np.all(batch.source_ids[0, 3:] == 0)
        assert not batch.source_pad_mask[0, 3:].any()

    def test_teacher_forcing_shift(self):
        pairs = [((1, 4, 2), (1, 5, 6, 2))]
        (batch,) = C.make_batches(pairs, 1, pad_id=0, max_len=80)
        assert batch.target_in_ids.tolist() == [[1, 5, 6]]
        assert batch.target_out_ids.tolist() == [[5, 6, 2]]

    def test_empty_input_gives_empty_list(self):
        assert C.make_batches([], 4, 0, 80) == []

    def test_overlong_sequence_rejected(self):
        with pytest.raises(ValueError):
            C.make_batches([((1,) * 81, (1, 2))], 1, 0, 80)

    def test_bad_batch_size_rejected(self):
        with pytest.raises(ValueError):
            C.make_batches(seqs(2), 0, 0, 80)

    def test_rows_hold_their_tokens_then_only_pads(self):
        """Causal attention hides pads by position, which holds only for right padding."""
        pairs = [((1, 4, 5, 6, 2), (1, 7, 2)), ((1, 4, 2), (1, 7, 8, 9, 10, 2)),
                 ((1, 6, 6, 2), (1, 8, 9, 2))]
        (batch,) = C.make_batches(pairs, 3, pad_id=0, max_len=80)
        for i, (src, tgt) in enumerate(pairs):
            for ids, want in ((batch.source_ids, src), (batch.target_in_ids, tgt[:-1]),
                              (batch.target_out_ids, tgt[1:])):
                assert ids[i].tolist() == list(want) + [0] * (ids.shape[1] - len(want))
            assert batch.source_pad_mask[i].tolist() == [
                j < len(src) for j in range(batch.source_ids.shape[1])]

    @given(st.integers(1, 40), st.integers(1, 9),
           st.one_of(st.none(), st.integers(0, 1000)))
    @settings(max_examples=60, deadline=None)
    def test_partition_property(self, n, batch_size, seed):
        pairs = seqs(n)
        batches = C.make_batches(pairs, batch_size, 0, 80, shuffle_seed=seed)
        rows = []
        for b in batches:
            for i in range(b.source_ids.shape[0]):
                src = tuple(b.source_ids[i][b.source_pad_mask[i]])
                tin = tuple(b.target_in_ids[i][b.target_in_ids[i] != 0])
                rows.append((src, tin + (2,)))
        want = sorted((s, t) for s, t in pairs)
        assert sorted(rows) == want

