import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "byte_check.py"


def worktrees() -> str:
    return subprocess.run(["git", "-C", str(ROOT), "worktree", "list", "--porcelain"],
                          capture_output=True, text=True, check=True).stdout


def test_head_against_the_working_tree():
    """The toy flow of all four variant names, the dropout run and the ragged `gpt2` run
    give the same bytes in a worktree of HEAD and in this checkout, and the worktree is
    gone afterwards."""
    before = worktrees()
    done = subprocess.run([sys.executable, str(SCRIPT), "HEAD"], capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    rows = [line.split() for line in done.stdout.splitlines()]
    assert [row[0] for row in rows] == [f"{v}/{a}" for v in ("bert", "bert_gpt2", "gpt2",
                                                             "gpt2_bert")
                                        for a in ("checkpoint.bin", "history.tsv",
                                                  "greedy.txt", "beam.txt")] + [
        "bert_dropout/checkpoint.bin", "bert_dropout/history.tsv",
        "gpt2_ragged/checkpoint.bin", "gpt2_ragged/history.tsv"]
    assert all(row[1:] == ["same"] for row in rows)
    assert worktrees() == before


def test_unknown_revision_exits_2_and_leaves_no_worktree():
    before = worktrees()
    done = subprocess.run([sys.executable, str(SCRIPT), "no-such-revision"],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2 and not done.stdout
    assert done.stderr.startswith("error: cannot check out no-such-revision")
    assert worktrees() == before


@pytest.mark.parametrize("a, b, at", [(b"abc", b"abc", None), (b"abcd", b"abxd", 2),
                                      (b"ab", b"abc", 2), (b"", b"a", 0)])
def test_first_difference(a, b, at):
    spec = importlib.util.spec_from_file_location("byte_check", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.first_difference(a, b) == at
    assert module.first_difference(b, a) == at
