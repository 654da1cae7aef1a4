"""Correctness checks applied to every benchmark run.

Each check is computed apart from the program: from closed-form query
accounting, from a re-implementation of the objective families and the
Metropolis weights, or from a property the method must have.  A check
returns a list of failure messages; an empty list means it passed.

Rows are any objects with the attributes ``k``, ``m``, ``stat_gap``,
``consensus_err`` and ``tracking_err`` (``dzo.MetricsRow`` in the
benchmark, plain named tuples in the tests).
"""

from __future__ import annotations

import csv
import math

import numpy as np

CSV_HEADER = ["k", "m", "stat_gap", "consensus_err", "tracking_err"]

# Objective values: |program - reference| <= OBJECTIVE_RTOL * scale, where
# scale sums the magnitudes of the terms, so cancellation between terms
# cannot hide an error.  The program's einsum and the reference's fsum
# differ by a few ulps times d (<= 300), far below this.
OBJECTIVE_RTOL = 1e-12
# Metropolis weights are sums of at most N terms of 1/(1 + degree).
WEIGHT_ATOL = 1e-13
SIGMA_ATOL = 1e-10
# Refresh fraction within this many binomial standard errors of p.
REFRESH_SIGMAS = 5.0


def sweep_init(alg: str, n: int, d: int) -> int:
    """Network-wide queries spent before round 1: one 2d sweep per agent for
    the tracked methods, nothing for dgd2p."""
    return 0 if alg == "dgd2p" else 2 * d * n


def _increments(alg: str, rows, n: int, d: int) -> list[int]:
    ms = [sweep_init(alg, n, d)] + [r.m for r in rows]
    return [b - a for a, b in zip(ms, ms[1:])]


def query_accounting(alg: str, rows, n: int, d: int) -> list[str]:
    """Per-round increase in m: 2N for dgd2p, 2dN for gt2d, and 4N + 2d*r
    with integer r in [0, N] for vrgt in paper_faithful accounting."""
    if not rows:
        return ["no rows"]
    errors = []
    for k, inc in enumerate(_increments(alg, rows, n, d), start=1):
        if alg == "dgd2p":
            ok = inc == 2 * n
        elif alg == "gt2d":
            ok = inc == 2 * d * n
        else:
            extra = inc - 4 * n
            ok = extra >= 0 and extra % (2 * d) == 0 and extra // (2 * d) <= n
        if not ok:
            errors.append(f"{alg} round {k}: m grew by {inc}")
            break
    return errors


def vrgt_refreshes(rows, n: int, d: int) -> list[int]:
    """Snapshot refreshes per round, read off the increase in m."""
    return [(inc - 4 * n) // (2 * d) for inc in _increments("vrgt", rows, n, d)]


def refresh_rate(refreshes: list[int], n: int, p: float) -> list[str]:
    """The refresh fraction over all agent-rounds stays within
    REFRESH_SIGMAS binomial standard errors of p."""
    trials = len(refreshes) * n
    if trials == 0:
        return ["no rounds"]
    frac = sum(refreshes) / trials
    se = math.sqrt(p * (1.0 - p) / trials)
    if abs(frac - p) > REFRESH_SIGMAS * se:
        return [f"refresh fraction {frac:.5f} vs p={p:.5f} (se {se:.2e})"]
    return []


def stop_rule(rows, kind: str, limit: int, init_m: int) -> list[str]:
    """queries: the last m reaches the limit and the previous one does not.
    rounds: exactly `limit` rows."""
    if not rows:
        return ["no rows"]
    if kind == "rounds":
        return [] if len(rows) == limit else [f"{len(rows)} rounds, expected {limit}"]
    prev = rows[-2].m if len(rows) > 1 else init_m
    if rows[-1].m >= limit and prev < limit:
        return []
    return [f"stop at m={rows[-1].m} (previous {prev}) for budget {limit}"]


def row_shape(alg: str, rows) -> list[str]:
    """k runs 1..K, every float is finite, and tracking_err is empty exactly
    for dgd2p."""
    errors = []
    for i, r in enumerate(rows, start=1):
        if r.k != i:
            errors.append(f"row {i} has k={r.k}")
            break
        if (r.tracking_err is None) != (alg == "dgd2p"):
            errors.append(f"row {i}: tracking_err={r.tracking_err!r} for {alg}")
            break
        vals = [r.stat_gap, r.consensus_err] + ([] if r.tracking_err is None else [r.tracking_err])
        if not all(math.isfinite(v) for v in vals):
            errors.append(f"row {i} has a non-finite value")
            break
    return errors


def _sigmoid(t: float) -> float:
    if t >= 0.0:
        return 1.0 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return e / (1.0 + e)


def reference_value(spec, agent: int, x) -> tuple[float, float]:
    """f_agent(x) from the spec's arrays, and the magnitude scale its
    tolerance is taken against."""
    x = [float(v) for v in x]
    if spec.kind == "benchmark":
        t = math.fsum(z * xi for z, xi in zip(spec.zeta[agent], x)) + float(spec.v[agent])
        a_term = float(spec.alpha[agent]) * _sigmoid(t)
        b_term = float(spec.beta[agent]) * math.log1p(math.fsum(xi * xi for xi in x))
        return a_term + b_term, abs(a_term) + abs(b_term)
    if spec.kind == "quadratic":
        diff = [xi - s for xi, s in zip(x, spec.shift[agent])]
        q = spec.quad[agent]
        terms = [0.5 * diff[i] * float(q[i, j]) * diff[j]
                 for i in range(len(diff)) for j in range(len(diff))]
        return math.fsum(terms), math.fsum(abs(t) for t in terms)
    raise ValueError(f"no reference for objective kind {spec.kind!r}")


def objective_values(spec, agents, points, values) -> list[str]:
    """Program values for (agent, point) samples against the reference."""
    errors = []
    for a, x, val in zip(agents, points, values):
        ref, scale = reference_value(spec, int(a), x)
        if not abs(float(val) - ref) <= OBJECTIVE_RTOL * scale + 1e-300:
            errors.append(f"agent {int(a)}: value {float(val)!r} vs reference {ref!r}")
            break
    return errors


def reference_weights(n: int, edges) -> np.ndarray:
    """Metropolis weights rebuilt from the edge list: 1/(1 + max(deg_i, deg_j))
    on each edge, the diagonal taking the remainder of each row."""
    deg = [0] * n
    for i, j in edges:
        deg[i] += 1
        deg[j] += 1
    w = np.zeros((n, n))
    for i, j in edges:
        w[i, j] = w[j, i] = 1.0 / (1.0 + max(deg[i], deg[j]))
    for i in range(n):
        w[i, i] = 1.0 - math.fsum(w[i])
    return w


def mixing_matrix(n: int, edges, w, sigma: float) -> list[str]:
    """The program's W and sigma against W rebuilt from the edges and
    sigma = max |eigenvalue| of W - 11^T/N from eigvalsh."""
    ref = reference_weights(n, edges)
    w = np.asarray(w, dtype=float)
    errors = []
    if w.shape != ref.shape:
        return [f"W has shape {w.shape}, expected {ref.shape}"]
    err = float(np.max(np.abs(w - ref)))
    if not err <= WEIGHT_ATOL:
        errors.append(f"W differs from the Metropolis rebuild by {err:.3e}")
    ref_sigma = float(np.max(np.abs(np.linalg.eigvalsh(ref - 1.0 / n))))
    if not abs(sigma - ref_sigma) <= SIGMA_ATOL:
        errors.append(f"sigma {sigma!r} vs eigvalsh {ref_sigma!r}")
    return errors


def gap_order(finals: dict[str, float], order: list[str]) -> list[str]:
    """Final stat_gap strictly increasing along `order`."""
    vals = [finals[a] for a in order]
    if all(a < b for a, b in zip(vals, vals[1:])):
        return []
    return ["final stat_gap order " + " < ".join(order) + " broken: "
            + ", ".join(f"{a}={finals[a]:.3e}" for a in order)]


def gap_below(rows, limit: float) -> list[str]:
    final = rows[-1].stat_gap
    return [] if final < limit else [f"final stat_gap {final:.3e} not below {limit:.1e}"]


def gap_falls(rows, factor: float) -> list[str]:
    """stat_gap falls from round 1 to the last round by at least `factor`."""
    first, final = rows[0].stat_gap, rows[-1].stat_gap
    if final <= first / factor:
        return []
    return [f"stat_gap fell only from {first:.3e} to {final:.3e}"]


def csv_matches(path, rows) -> list[str]:
    """The CSV, parsed with the csv module, holds the rows exactly: 17
    significant digits round-trip every double."""
    with open(path, newline="") as fh:
        table = list(csv.reader(fh))
    if not table or table[0] != CSV_HEADER:
        return [f"{path}: bad header"]
    body = table[1:]
    if len(body) != len(rows):
        return [f"{path}: {len(body)} rows, expected {len(rows)}"]
    for rec, r in zip(body, rows):
        if len(rec) != 5:
            return [f"{path}: row k={r.k} has {len(rec)} fields"]
        if r.tracking_err is None:
            track_ok = rec[4] == ""
        else:
            track_ok = rec[4] != "" and float(rec[4]) == r.tracking_err
        if not (track_ok and int(rec[0]) == r.k and int(rec[1]) == r.m
                and float(rec[2]) == r.stat_gap and float(rec[3]) == r.consensus_err):
            return [f"{path}: row k={r.k} reads {rec}"]
    return []
