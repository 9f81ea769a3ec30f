"""Per-layer tracing from outside the program.

A Tracer replaces every module-level binding of a traced function inside
the ``sentsimp`` package with a timing wrapper, so a caller that did
``from .model import forward`` is traced as well as one that calls
``model.forward``. Spans nest: a span's self time is its duration minus the
time of the traced spans it covers. Only aggregates are kept (calls, total
and self seconds per span name), plus per-call durations where a
percentile is wanted, and counters fed by probes that look at a call's
arguments and result.

Installing the wrappers changes no output: each wrapper calls the original
function with the same arguments and returns its result unchanged.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

PACKAGE = "sentsimp"


class SpanStats:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    def __init__(self):
        self.spans: dict[str, SpanStats] = defaultdict(SpanStats)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.counters: Counter = Counter()
        self._child_time: list[float] = []   # one accumulator per open span
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def wrap(self, fn, name: str, probe=None, keep_samples: bool = False):
        """Return a wrapper that records a span named `name` around fn.

        probe(args, kwargs, result, start, elapsed) runs after the call,
        outside the span's timing, to update counters or events.
        """
        spans, child_time = self.spans, self._child_time
        samples = self.samples[name] if keep_samples else None
        perf = time.perf_counter

        def traced(*args, **kwargs):
            child_time.append(0.0)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                children = child_time.pop()
                stats = spans[name]
                stats.calls += 1
                stats.total += elapsed
                stats.self_time += elapsed - children
                if child_time:
                    child_time[-1] += elapsed
                if samples is not None:
                    samples.append(elapsed)
            if probe is not None:
                probe(args, kwargs, result, start, elapsed)
            return result

        return traced

    # -- installing ------------------------------------------------------

    def install(self, module, attr: str, name: str, probe=None, keep_samples=False):
        """Wrap module.attr and every other binding of the same function."""
        original = getattr(module, attr)
        return self.replace(module, attr, self.wrap(original, name, probe, keep_samples))

    def replace(self, module, attr: str, replacement):
        """Rebind module.attr, and every package binding of the same object."""
        original = getattr(module, attr)
        bound = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, replacement)
                    bound += 1
        if bound == 0:
            raise RuntimeError(f"no binding of {module.__name__}.{attr} to trace")
        return replacement

    def patch_count(self) -> int:
        return len(self._patches)

    def uninstall(self, keep: int = 0) -> None:
        """Undo every rebinding after the first `keep`, newest first."""
        while len(self._patches) > keep:
            mod, key, original = self._patches.pop()
            setattr(mod, key, original)

    # -- reading ---------------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        for values in self.samples.values():
            values.clear()
        self.counters.clear()

    def snapshot(self) -> dict:
        return {
            "spans": {k: (v.calls, v.total, v.self_time) for k, v in self.spans.items()},
            "samples": {k: list(v) for k, v in self.samples.items()},
            "counters": dict(self.counters),
        }
