import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_12_train_ckpt_save_s():
    """The parent's median `ckpt_save_s` on `train` in BENCH_12.json is the middle of its
    five runs, 0.0016598 s; the change wins none of the five pairs, so no gain."""
    before = sorted((ROOT / "sentbench").rglob("*"))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "bench_compare.py"),
                           str(ROOT / "BENCH_12.json")],
                          capture_output=True, text=True, timeout=60, check=True)
    workload = done.stdout.split("\ntrain\n")[1].split("\n\n")[0]
    row = next(line for line in workload.splitlines() if line.startswith("ckpt_save_s "))
    assert row.split()[1:4] == ["0.00166", "[0.001303,", "0.001691]"]
    assert row.split()[-3:] == ["0/5", "no", "ok"]
    assert sorted((ROOT / "sentbench").rglob("*")) == before
