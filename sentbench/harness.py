"""The measured loop shared by every workload, and the result it reports."""

from __future__ import annotations

import gc
import json
import resource
import shutil
import statistics
import time
import traceback
import tracemalloc
from pathlib import Path

from sentsimp import train

from layers import Recorder, merge, per_layer_metrics, uncalled
from workloads import Session, time_to_target


def load_peak_over_param_bytes(ckpt_path: Path) -> float:
    """Peak bytes allocated while loading a checkpoint, over its parameter bytes."""
    tracemalloc.start()
    try:
        ckpt = train.load_checkpoint(ckpt_path)
        loaded = train.model_from_checkpoint(ckpt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / sum(p.data.nbytes for p in loaded.params.values())


def run_workload(workload, seed: int, seconds: float, trace: bool, work: Path,
                 end_to_end: dict[str, str]) -> dict:
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    rec = Recorder()
    s = Session(work, rec)
    try:
        per_layer = _measure(workload, s, seed, seconds, trace)
    except Exception as exc:  # the run still reports, as incorrect
        traceback.print_exc()
        s.check(False, f"{type(exc).__name__}: {exc}")
        per_layer = {}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics: dict[str, tuple[float, str]] = {}
    if trace:
        metrics = per_layer
    else:
        for name, unit in end_to_end.items():
            if name == "peak_rss_mb":
                continue
            value = s.value(name)
            if s.check(value is not None, f"{name} was not measured"):
                metrics[name] = (value, unit)
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    _print_table(workload.name, metrics, s)
    return {
        "correct": s.failed == 0,
        "attempted": s.attempted,
        "failed": s.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _measure(workload, s: Session, seed: int, seconds: float, trace: bool) -> dict:
    rec = s.rec
    workload.prepare(s, seed)

    setup_digests: list[str] = []

    def set_up(traced: bool) -> dict | None:
        """One timed set-up; its output must match the first set-up's."""
        k = len(setup_digests)
        gc.collect()   # so that garbage from the last iteration is not timed here
        if traced:
            rec.start_tracing()
        s.recording = not traced
        start = time.perf_counter()
        out = workload.setup(s, k)
        s.sample("setup_s", time.perf_counter() - start)
        s.recording = True
        setup_digests.append(out)
        if k:
            s.check(out == setup_digests[0], f"set-up {k} output differs from set-up 0 (same seed)")
        return rec.stop_tracing() if traced else None

    set_up(traced=False)
    setup_snap = set_up(traced=trace)

    # Closed loop: the next iteration starts when the previous one ends. In a
    # traced run, odd iterations are traced and even ones are the reference.
    # Set-up runs again, untraced, before each iteration, so that setup_s
    # samples the whole run like the other metrics.
    deadline = time.perf_counter() + seconds
    walls: dict[bool, list[float]] = {False: [], True: []}
    snaps, first, i = [], None, 0
    while True:
        if i:
            set_up(traced=False)
        traced = trace and i % 2 == 1
        if traced:
            rec.start_tracing()
        s.recording = not traced
        start = time.perf_counter()
        out = workload.iteration(s, i)
        walls[traced].append(time.perf_counter() - start)
        if traced:
            snaps.append(rec.stop_tracing())
        s.recording = True
        if i == 0:
            first = out
            workload.check_once(s)
        else:
            s.check(out == first, f"iteration {i} output differs from iteration 0 (same seed)")
        i += 1
        typical = statistics.median(walls[False] + walls[True])
        if time.perf_counter() + 0.5 * typical > deadline and (not trace or snaps):
            break

    target_time = time_to_target(s, workload.target_sari)
    if target_time is not None:
        s.sample("time_to_target_s", target_time)
    print("# traffic " + json.dumps(s.traffic, sort_keys=True))
    print(f"# set-ups s {[round(v, 3) for v in s.values['setup_s']]}")
    print(f"# {i} iterations, wall s untraced {[round(w, 3) for w in walls[False]]}"
          f" traced {[round(w, 3) for w in walls[True]]}")
    if not trace:
        return {}
    merged = merge(setup_snap, snaps)
    for name in uncalled(merged, workload.expected_absent):
        s.check(False, f"traced layer {name} recorded zero calls")
    extra = {
        "load_peak_over_param_bytes": load_peak_over_param_bytes(workload.ckpt),
        "overhead_share": statistics.median(walls[True]) / statistics.median(walls[False]) - 1,
    }
    return per_layer_metrics(merged, extra)


def _print_table(name: str, metrics: dict, s: Session) -> None:
    print(f"# workload {name}: {s.attempted} operations, {s.failed} failed, "
          f"failed_ratio {s.failed / max(1, s.attempted):.4f}")
    for problem in s.problems[:20]:
        print(f"#   FAILED {problem}")
    for key, (value, unit) in metrics.items():
        print(f"#   {key:<48} {value:>14.6g} {unit}")
