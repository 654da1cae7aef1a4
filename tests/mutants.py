"""Mutant catalogue: exact text substitutions in the program that tier-1
must notice.

Run from anywhere in the checkout (pytest does not collect this file):

    python tests/mutants.py

Every old text must occur exactly once in its file, so the table cannot go
stale unnoticed.  Per row, the script copies what tier-1 reads (src/,
tests/, scripts/, bench/, pyproject.toml and README.md) into a temporary
directory and applies one substitution.  There it runs the row's recorded
killing test first; only if that test does not fail does it run the tier-1
subset outside ``slow``, stopping at the first failure.  Either way a row
is killed only when a test fails, and hypothesis runs on a fixed seed.
The unmutated copy runs first and must pass the whole subset.  Each line
reports killed or survived, the time taken, the first failing test, and
whether the recorded test was the one that failed; a row whose recorded
test no longer kills it says so, naming the test to record instead.

The exit status is 1 when an old text does not occur exactly once, the
unmutated copy fails, or a mutant survives, else 0.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "scripts", "bench", "pyproject.toml", "README.md")
PYTEST = ("-m", "pytest", "-x", "-q", "-m", "not slow", "-p", "no:cacheprovider",
          "--hypothesis-seed=0")


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str
    old: str
    new: str
    killer: str = ""   # the test that killed it when last run; run before the rest


ALG, NET, THEORY, ORACLE, EST = ("src/dzo/algorithms.py", "src/dzo/network.py",
                                 "src/dzo/theory.py", "src/dzo/oracle.py",
                                 "src/dzo/estimators.py")
HETEROGENEOUS = "x0 = x0_scale * rng_init.standard_normal((spec.n_agents, spec.dim))"

MUTANTS = (
    Mutant("transposed heterogeneous start", ALG, HETEROGENEOUS,
           "x0 = x0_scale * rng_init.standard_normal((spec.dim, spec.n_agents)).T",
           "tests/test_differential.py::test_run_matches_per_agent_replay"),
    Mutant("heterogeneous start ignores x0_scale", ALG, HETEROGENEOUS,
           "x0 = rng_init.standard_normal((spec.n_agents, spec.dim))",
           "tests/test_differential.py::test_run_matches_per_agent_replay"),
    Mutant("dgd2p step at k + 1", ALG, "eta = schedule.step_size_at(state.k)",
           "eta = schedule.step_size_at(state.k + 1)",
           "tests/test_differential.py::test_run_matches_per_agent_replay"),
    Mutant("tracked step at k + 1", ALG, "alpha = schedule.step_size_at(state.k)",
           "alpha = schedule.step_size_at(state.k + 1)",
           "tests/test_differential.py::test_run_matches_per_agent_replay"),
    Mutant("combine-then-adapt", ALG, "x_new = w.apply(state.x - alpha * state.s)",
           "x_new = w.apply(state.x) - alpha * state.s",
           "tests/test_algorithms.py::test_vrgt_p1_equals_fresh_sweep_tracking"),
    Mutant("run without its x0_scale check", ALG, "if not np.isfinite(x0_scale):",
           "if False:",
           "tests/test_algorithms.py::test_run_validation"),
    Mutant("refresh at the old iterate", ALG,
           "snap.capture_rows(state.oracle, hit, x[hit], u)",
           "snap.capture_rows(state.oracle, hit, state.x[hit], u)",
           "tests/test_algorithms.py::test_vrgt_p1_equals_fresh_sweep_tracking"),
    Mutant("refresh at 1.2p", ALG, "state.rng.random(n) < state.p",
           "state.rng.random(n) < 1.2 * state.p",
           "tests/test_acceptance.py::test_criterion_06_query_accounting"),
    Mutant("Metropolis weight with min degree", NET, "np.maximum(deg[i], deg[j])",
           "np.minimum(deg[i], deg[j])",
           "tests/test_differential.py::test_run_matches_per_agent_replay"),
    Mutant("Metropolis weight with summed degree", NET, "np.maximum(deg[i], deg[j])",
           "(deg[i] + deg[j])",
           "tests/test_differential.py::test_run_matches_per_agent_replay"),
    Mutant("ELL padding weight 1", NET, "wts = np.zeros((n, 1, k))",
           "wts = np.ones((n, 1, k))",
           "tests/test_differential.py::test_run_matches_per_agent_replay"),
    Mutant("weight checks skip the last row block", NET,
           "for r in range(0, len(w), _ROW_BLOCK):",
           "for r in range(0, len(w) - _ROW_BLOCK, _ROW_BLOCK):",
           "tests/test_network.py::test_mixing_matrix_rejects_bad_inputs"),
    Mutant("symmetry check reads column block 0 for every row block", NET,
           "w[:, r:r + _ROW_BLOCK].T", "w[:, :len(block)].T",
           "tests/test_differential.py::test_run_matches_per_agent_replay"),
    Mutant("caller's weight array kept without a copy", NET,
           "np.array(self.w, dtype=float)", "np.asarray(self.w, dtype=float)",
           "tests/test_network.py::test_caller_array_is_copied"),
    Mutant("sigma keeps the all-ones eigenvalue", NET,
           "eig = np.delete(eig, np.argmin(np.abs(eig - 1.0)))", "pass",
           "tests/test_cli.py::test_selftest"),
    Mutant("Erdos-Renyi draw skips the last row block", NET,
           "for r in range(0, n, _ROW_BLOCK):", "for r in range(0, n - _ROW_BLOCK, _ROW_BLOCK):",
           "tests/test_network.py"),
    Mutant("Erdos-Renyi rows without their block offset", NET, "i += r", "i += 0",
           "tests/test_golden.py::test_golden_trajectory[bignet_dgd2p]"),
    Mutant("apply without its row check", NET,
           "if x.ndim != 2 or x.shape[0] != self.n_agents:", "if x.ndim != 2:",
           "tests/test_network.py::test_mix_shape_mismatch"),
    Mutant("stencil without its lower coordinate bound", ORACLE,
           "coords.min() < 0 or coords.max() >= d", "coords.max() >= d",
           "tests/test_estimators.py::test_coordinate_examples"),
    Mutant("stencil without its radius-count check", ORACLE,
           "if self.u.shape[0] not in (1, n):", "if False:",
           "tests/test_estimators.py::"
           "test_coord_pair_rejects_a_malformed_stencil_before_any_query"),
    Mutant("benchmark stencil without its u^2 term", ORACLE,
           "st.x)[:, None] + st.u * st.u", "st.x)[:, None]",
           "tests/test_acceptance.py::test_criterion_11_determinism"),
    Mutant("quadratic stencil with its linear term's sign swapped", ORACLE,
           "st.pm(base, st.take(dq))", "st.pm(base, -st.take(dq))",
           "tests/test_algorithms.py::test_gt2d_tracks_exact_mean_gradient_on_quadratic"),
    Mutant("stencil reads row 0's coordinates for every row", ORACLE,
           "np.take(a, self.coords + np.arange", "np.take(a, self.coords[:1] + np.arange",
           "tests/test_algorithms.py::test_vrgt_round_matches_per_agent_estimators[cached]"),
    Mutant("stencil charged one query per coordinate", ORACLE,
           "self.shape = (n, 2 * coords.shape[1], d)", "self.shape = (n, coords.shape[1], d)",
           "tests/test_acceptance.py::test_criterion_06_query_accounting"),
    Mutant("contraction matrix 17 sqrt(d) alpha_l as 16", THEORY,
           "[17.0 * np.sqrt(d) * alpha_l + mix2,", "[16.0 * np.sqrt(d) * alpha_l + mix2,",
           "tests/test_theory.py::test_contraction_matrix_and_certificate_pinned[point0]"),
    Mutant("certificate weight 3 as 2.9", THEORY,
           "pi = np.array([(1.0 - sigma**2) / d, 3.0, 1.0])",
           "pi = np.array([(1.0 - sigma**2) / d, 2.9, 1.0])",
           "tests/test_theory.py::test_contraction_matrix_and_certificate_pinned[point0]"),
    Mutant("p = 1/d limit 264 as 263", THEORY, "(264.0 * _SQRT29 * d**1.5)",
           "(263.0 * _SQRT29 * d**1.5)",
           "tests/test_theory.py::test_inv_dim_limit_terms"),
    Mutant("contraction_step_limit without its input check", THEORY,
           '(1-sigma^2)^3 / (12 sqrt(29) d^{5/2})."""\n    _check(sigma, d)\n',
           '(1-sigma^2)^3 / (12 sqrt(29) d^{5/2})."""\n',
           "tests/test_theory.py::test_inputs_validation"),
    Mutant("L check without finiteness", THEORY, "if not 0.0 < L < np.inf:", "if L <= 0.0:",
           "tests/test_cli.py::test_verify_rejects_bad_input_before_printing"),
    Mutant("variance limit check without finiteness", THEORY,
           "if not (0 < d < np.inf and all(0.0 <= v < np.inf for v in dists)):",
           "if d <= 0 or min(dists) < 0:",
           "tests/test_theory.py::test_variance_limit_values"),
    Mutant("benchmark smoothness 6 sqrt(3) as 4", ORACLE,
           "zz / (6.0 * np.sqrt(3.0))", "zz / 4.0",
           "tests/test_cli.py::test_stepsize_tables_script"),
    Mutant("benchmark smoothness 2|beta| as |beta|", ORACLE,
           "+ 2.0 * np.abs(self.beta)", "+ np.abs(self.beta)",
           "tests/test_cli.py::test_stepsize_tables_script"),
    Mutant("quadratic smoothness from the smallest eigenvalue", ORACLE,
           "float(eig[:, -1].max())", "float(eig[:, 0].max())",
           "tests/test_oracle.py::test_quadratic_smoothness_is_largest_eigenvalue[50x64]"),
    Mutant("quadratic draw with I/2 as 0.4 I", ORACLE,
           "/ d + 0.5 * np.eye(d)", "/ d + 0.4 * np.eye(d)",
           "tests/test_golden.py::test_golden_trajectory[bignet_dgd2p]"),
    Mutant("consensus sum back through BLAS", ALG,
           "consensus = np.square(dev, out=dev).reshape(rounds, -1).sum(axis=1) / n",
           "consensus = np.matmul(dev.reshape(rounds, 1, -1),"
           " dev.reshape(rounds, -1, 1))[:, 0, 0] / n",
           "tests/test_golden.py::test_replay_does_not_depend_on_blas_threads"),
    Mutant("stack reads the previous round's state", ALG, "self.x[i] = state.x",
           "self.x[i] = self.x[i - 1]",
           "tests/test_algorithms.py::test_dgd2p_descends_on_quadratic"),
    Mutant("every-agent path charges 1 query, not m", ORACLE,
           "self.query_count += shape[1]", "self.query_count += 1",
           "tests/test_estimators.py::test_refresh_semantics"),
    Mutant("prefetch normalises over the wrong axis", EST, "axis=-1, keepdims=True",
           "axis=1, keepdims=True",
           "tests/test_algorithms.py::test_dgd2p_single_agent_linear"),
    Mutant("fallback keeps the advanced generator state", EST,
           "rng.bit_generator.state = state", "pass",
           "tests/test_directions.py::test_zero_row_block_falls_back_to_sphere"),
    Mutant("closing the stream drops the in-flight draw", EST,
           "        except GeneratorExit:\n            pending.result()\n",
           "        except GeneratorExit:\n",
           "tests/test_directions.py::test_unused_block_error_surfaces_from_run"),
    Mutant("an unused block's error masks the run's own", ALG,
           "with contextlib.suppress(Exception):", "with contextlib.nullcontext():",
           "tests/test_directions.py::test_unused_block_error_does_not_mask_the_run_error"),
    Mutant("snapshot refresh keeps the old held values", EST,
           "self.full[rows], self.values[rows] = _stencil(", "self.full[rows], _ = _stencil(",
           "tests/test_estimators.py::"
           "test_snapshot_pair_after_a_subset_refresh_is_the_stored_sweep[benchmark]"),
    Mutant("held values charged to no agent's counter", ORACLE,
           "self.query_count += shape[1]", "self.query_count += shape[1] * (held is None)",
           "tests/test_estimators.py::"
           "test_held_values_are_a_fresh_evaluation_at_every_round[benchmark-paper_faithful]"),
    Mutant("paper_faithful charges 1 query per row, not 2", EST,
           "oracle.evaluate_rows(rows, Stencil(snap.x_tilde, snap.u_tilde, np.asarray(l)[:, None],\n"
           "                                           snap.values[rows, :, l]))",
           "oracle.evaluate_rows(rows, snap.x_tilde[:, None])",
           "tests/test_acceptance.py::test_criterion_06_query_accounting"),
)


def stale() -> list[str]:
    """One message per mutant whose old text does not occur exactly once."""
    counts = ((m, (REPO / m.file).read_text().count(m.old)) for m in MUTANTS)
    return [f"{m.name}: old text occurs {n} times in {m.file}" for m, n in counts if n != 1]


def pytest(root: Path, *tests: str) -> tuple[int, str]:
    """Run the non-slow tests (all, or those named) in the copy at root.
    Returns (pytest's exit status, first failing test or '')."""
    proc = subprocess.run([sys.executable, *PYTEST, *tests], cwd=root, capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(root / "src")))
    first = next((line.split()[1] for line in proc.stdout.splitlines()
                  if line.startswith(("FAILED ", "ERROR "))), "")
    return proc.returncode, first


def run_copy(mutant: Mutant | None) -> tuple[bool, str, float, str]:
    """Copy the checkout, apply mutant (None: no change) and run its recorded
    killing test, then, unless that test failed, the whole non-slow subset.
    Returns (passed, first failing test or '', seconds, note on the recorded test)."""
    with tempfile.TemporaryDirectory(prefix="dzo-mutant-") as tmp:
        root = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in COPIED:
            if (REPO / name).is_dir():
                shutil.copytree(REPO / name, root / name, ignore=ignore)
            else:
                shutil.copy2(REPO / name, root / name)
        start, note = time.perf_counter(), ""
        if mutant is not None:
            path = root / mutant.file
            path.write_text(path.read_text().replace(mutant.old, mutant.new))
            if mutant.killer:
                status, first = pytest(root, mutant.killer)
                if status != 0 and first:   # a test failed or errored
                    return False, first, time.perf_counter() - start, "(recorded test)"
                note = f"(recorded test {mutant.killer} did not fail)"
        status, first = pytest(root)
        took = time.perf_counter() - start
    if mutant is not None and status != 0 and not note:
        note = "(no recorded test)"
    return status == 0, first, took, note


def main() -> int:
    problems = stale()
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    start = time.perf_counter()
    passed, first, took, _ = run_copy(None)
    print(f"{'passed' if passed else 'FAILED':9} {took:6.1f}s  unmutated copy  {first}")
    if not passed:
        return 1
    survived = 0
    for m in MUTANTS:
        passed, first, took, note = run_copy(m)
        survived += passed
        print(f"{'survived' if passed else 'killed':9} {took:6.1f}s  {m.name}  {first}  {note}",
              flush=True)
    print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} killed "
          f"in {time.perf_counter() - start:.0f}s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
