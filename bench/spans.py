"""In-memory span tracing around calls into dzo's modules.

The tracer replaces module attributes with timing wrappers while it is
active and restores them afterwards, so no file of the program changes.
A span records name, start, end and the index of its parent span; self
time is a span's duration minus the durations of its children.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Keep every SAMPLE_EVERY-th oracle call's first row for the objective check.
SAMPLE_EVERY = 97
MAX_SAMPLES = 64


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent]
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.samples: list[tuple] = []   # (spec, agent, point, value)
        self._oracle_calls = 0
        self._patched: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self.stack.pop()

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)
        return traced

    def wrap_oracle(self, fn):
        """evaluate_rows, split into 2d-point sweeps and 2-point pairs, with
        queries and computed point-tensor bytes counted."""
        tracer = self

        def evaluate_rows(oracle, agents, points):
            points = np.asarray(points)
            b, m, d = points.shape
            name = "oracle.sweep" if m == 2 * d else "oracle.pair" if m == 2 else "oracle.other"
            rec = tracer._open(name)
            try:
                values = fn(oracle, agents, points)
            finally:
                tracer._close(rec)
            tracer.counts["oracle.queries"] += b * m
            tracer.counts["oracle.point_bytes"] += b * m * d * 8
            if tracer._oracle_calls % SAMPLE_EVERY == 0 and len(tracer.samples) < MAX_SAMPLES:
                tracer.samples.append((oracle.spec, int(np.asarray(agents)[0]),
                                       np.array(points[0, 0]), float(values[0, 0])))
            tracer._oracle_calls += 1
            return values
        return evaluate_rows

    def patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def unpatch(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: total time, self time and call count."""
        dur = [end - start for _, start, end, _ in self.spans]
        child = [0.0] * len(self.spans)
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += dur[i]
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (name, _, _, _) in enumerate(self.spans):
            total[name] += dur[i]
            own[name] += dur[i] - child[i]
            calls[name] += 1
        return total, own, calls


def install(tracer: Tracer, dzo) -> None:
    """Wrap the names dzo.algorithms.run looks up, the oracle's batched
    entry point, topology construction and CSV writing."""
    alg = dzo.algorithms
    weights = tracer.wrap(dzo.network.metropolis_weights, "network.metropolis_weights")
    for owner in (dzo.network, alg):
        tracer.patch(owner, "metropolis_weights", weights)
    tracer.patch(dzo.harness, "build_topology",
                 tracer.wrap(dzo.harness.build_topology, "network.build_topology"))
    tracer.patch(dzo.harness, "write_csv", tracer.wrap(dzo.harness.write_csv, "harness.write_csv"))
    for name in alg.ALGORITHMS:
        tracer.patch(alg, f"init_{name}", tracer.wrap(getattr(alg, f"init_{name}"), "algorithms.init"))
        tracer.patch(alg, f"{name}_step",
                     tracer.wrap(getattr(alg, f"{name}_step"), f"algorithms.step.{name}"))
    tracer.patch(alg, "compute_metrics", tracer.wrap(alg.compute_metrics, "metrics.compute"))
    oracle_cls = dzo.oracle.ZerothOrderOracle
    tracer.patch(oracle_cls, "evaluate_rows", tracer.wrap_oracle(oracle_cls.evaluate_rows))
