import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def bench_pairs(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import bench_pairs
    return bench_pairs


def worktrees() -> str:
    return subprocess.run(["git", "-C", str(ROOT), "worktree", "list", "--porcelain"],
                          capture_output=True, text=True, check=True).stdout


def fake_result(value: float) -> dict:
    """A result line as `sentbench/run.py` prints it, every end-to-end metric `value`."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"correct": True, "attempted": 1, "failed": 0,
            "metrics": {m["name"]: {"value": value, "unit": m["unit"]}
                        for m in spec["end_to_end"]}}


def test_pairs_alternate_over_worktrees_and_compare(bench_pairs, tmp_path):
    """Five pairs over seeds 7-8 of two workloads: the side that runs first alternates,
    the seeds repeat from the first, each side runs in a worktree of HEAD that is gone
    afterwards, and `bench_compare.py` reads the file, the change winning every pair."""
    before, calls = worktrees(), []

    def stub(tree, workload, seed, seconds):
        assert (tree / "sentbench" / "run.py").is_file() and tree != ROOT
        assert str(tree) in worktrees()
        calls.append((tree, workload, seed, seconds))
        return fake_result(2.0 if tree.parent.name == "change" else 1.0)

    out = tmp_path / "BENCH_x.json"
    assert bench_pairs.main(["HEAD", "HEAD", "--workload", "train", "--workload", "bigvocab",
                             "--pairs", "5", "--seeds", "7-8", "--seconds", "3",
                             "--out", str(out)], run=stub) == 0
    assert worktrees() == before
    bench = json.loads(out.read_text())
    assert list(bench) == ["parent", "change", "description", "command", "machine",
                           "workloads"]
    assert bench["parent"] == bench["change"] == subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
        capture_output=True, text=True).stdout.strip()
    order = [(s, e, "change" if e else "parent") for s, e in
             ((7, 0), (7, 1), (8, 1), (8, 0), (7, 0), (7, 1), (8, 1), (8, 0), (7, 0), (7, 1))]
    for workload in ("train", "bigvocab"):
        runs = bench["workloads"][workload]
        assert [(r["seed"], r["side"]) for r in runs] == [(s, side) for s, _, side in order]
        assert all(r["result"] == fake_result(2.0 if r["side"] == "change" else 1.0)
                   for r in runs)
    assert [(c[1], c[2], c[0].parent.name, c[3]) for c in calls] == [
        (w, s, side, 3.0) for w in ("train", "bigvocab") for s, _, side in order]
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "bench_compare.py"),
                           str(out)], capture_output=True, text=True, timeout=60, check=True)
    rows = [line.split() for line in done.stdout.splitlines()
            if line.startswith("train_tokens_per_s ")]
    assert [row[-3:] for row in rows] == [["5/5", "no", "ok"]] * 2  # under 10 pairs


def test_worktrees_removed_when_a_run_raises(bench_pairs, tmp_path):
    before = worktrees()

    def stub(tree, workload, seed, seconds):
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        bench_pairs.main(["HEAD", "--workload", "train", "--pairs", "2", "--seeds", "1-1",
                          "--seconds", "1", "--out", str(tmp_path / "b.json")], run=stub)
    assert worktrees() == before and not (tmp_path / "b.json").exists()


def test_unknown_revision_exits_2(bench_pairs, capsys):
    before = worktrees()
    assert bench_pairs.main(["HEAD", "no-such-revision", "--workload", "train", "--pairs",
                             "1", "--seeds", "1-2", "--seconds", "1"],
                            run=lambda *a: pytest.fail("ran")) == 2
    assert capsys.readouterr().err.startswith("error: cannot check out no-such-revision")
    assert worktrees() == before
