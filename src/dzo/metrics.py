"""Per-round diagnostics, computed from analytic gradients (never counted)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .algorithms import RunState


@dataclass(frozen=True)
class MetricsRow:
    """One record per synchronous round.

    m is the cumulative number of fresh oracle queries across all agents.
    tracking_err is None for algorithms without a tracker.
    """

    k: int
    m: int
    stat_gap: float
    consensus_err: float
    tracking_err: float | None

    def __post_init__(self) -> None:
        vals = [self.stat_gap, self.consensus_err]
        if self.tracking_err is not None:
            vals.append(self.tracking_err)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"non-finite metrics at round {self.k}")


def compute_metrics(state: "RunState") -> MetricsRow:
    """Stationarity gap ||grad f(xbar)||^2, mean squared consensus error,
    and (for tracked algorithms) mean squared tracker error against
    grad f(xbar), for the objective of the state's oracle."""
    n = state.x.shape[0]
    xbar = state.x.mean(axis=0)
    grad = state.oracle.spec.global_grad(xbar)
    stat_gap = float(grad @ grad)
    dx = (state.x - xbar).ravel()
    consensus = float(dx @ dx) / n
    tracking = None
    if state.s is not None:
        ds = (state.s - grad).ravel()
        tracking = float(ds @ ds) / n
    return MetricsRow(k=state.k, m=state.oracle.total_queries,
                      stat_gap=stat_gap, consensus_err=consensus,
                      tracking_err=tracking)
