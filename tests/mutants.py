"""Mutant catalogue: exact text substitutions in the program that tier-1
must notice.

Run from anywhere in the checkout (pytest does not collect this file):

    python tests/mutants.py

Every old text must occur exactly once in its file, so the table cannot go
stale unnoticed.  Per run, the script copies what tier-1 reads (src/,
tests/, scripts/, bench/, pyproject.toml and README.md) into a temporary
directory, applies one substitution and runs the tier-1 subset outside
``slow`` there, stopping at the first failure, with hypothesis on a fixed
seed.  The unmutated copy runs first and must pass.  Each line reports
killed or survived, the time taken and the first failing test.

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


ALG, NET, EST, THEORY, ORACLE = ("src/dzo/algorithms.py", "src/dzo/network.py",
                                 "src/dzo/estimators.py", "src/dzo/theory.py",
                                 "src/dzo/oracle.py")
HETEROGENEOUS = "x0 = x0_scale * rng_init.standard_normal((spec.n_agents, spec.dim))"

MUTANTS = (
    Mutant("transposed heterogeneous start", ALG, HETEROGENEOUS,
           "x0 = x0_scale * rng_init.standard_normal((spec.dim, spec.n_agents)).T"),
    Mutant("heterogeneous start ignores x0_scale", ALG, HETEROGENEOUS,
           "x0 = rng_init.standard_normal((spec.n_agents, spec.dim))"),
    Mutant("dgd2p step at k + 1", ALG, "eta = schedule.step_size_at(state.k)",
           "eta = schedule.step_size_at(state.k + 1)"),
    Mutant("tracked step at k + 1", ALG, "alpha = schedule.step_size_at(state.k)",
           "alpha = schedule.step_size_at(state.k + 1)"),
    Mutant("combine-then-adapt", ALG, "x_new = w.apply(state.x - alpha * state.s)",
           "x_new = w.apply(state.x) - alpha * state.s"),
    Mutant("refresh at the old iterate", ALG,
           "snap.capture_rows(state.oracle, hit, x[hit], u)",
           "snap.capture_rows(state.oracle, hit, state.x[hit], u)"),
    Mutant("refresh at 1.2p", ALG, "state.rng.random(n) < state.p",
           "state.rng.random(n) < 1.2 * state.p"),
    Mutant("Metropolis weight with min degree", NET, "np.maximum(deg[i], deg[j])",
           "np.minimum(deg[i], deg[j])"),
    Mutant("Metropolis weight with summed degree", NET, "np.maximum(deg[i], deg[j])",
           "(deg[i] + deg[j])"),
    Mutant("ELL padding weight 1", NET, "wts = np.zeros((n, 1, k))",
           "wts = np.ones((n, 1, k))"),
    Mutant("apply without its row check", NET,
           "if x.ndim != 2 or x.shape[0] != self.n_agents:", "if x.ndim != 2:"),
    Mutant("coord_pair without its range check", EST,
           "if l.size and (l.min() < 0 or l.max() >= x.shape[1]):", "if False:"),
    Mutant("stencil block not refilled", EST, "pts[:k] = x[b, None, :]",
           "pts[:k] = x[b, None, :] if lo == 0 else pts[:k]"),
    Mutant("stencil block one row long", EST, "b = slice(lo, lo + k)",
           "b = slice(lo, lo + k + 1)"),
    Mutant("contraction matrix 17 sqrt(d) alpha_l as 16", THEORY,
           "[17.0 * np.sqrt(d) * alpha_l + mix2,", "[16.0 * np.sqrt(d) * alpha_l + mix2,"),
    Mutant("certificate weight 3 as 2.9", THEORY,
           "pi = np.array([(1.0 - sigma**2) / d, 3.0, 1.0])",
           "pi = np.array([(1.0 - sigma**2) / d, 2.9, 1.0])"),
    Mutant("p = 1/d limit 264 as 263", THEORY, "(264.0 * _SQRT29 * d**1.5)",
           "(263.0 * _SQRT29 * d**1.5)"),
    Mutant("contraction_step_limit without its input check", THEORY,
           '(1-sigma^2)^3 / (12 sqrt(29) d^{5/2})."""\n    _check(sigma, d)\n',
           '(1-sigma^2)^3 / (12 sqrt(29) d^{5/2})."""\n'),
    Mutant("L check without finiteness", THEORY, "if not 0.0 < L < np.inf:", "if L <= 0.0:"),
    Mutant("variance limit check without finiteness", THEORY,
           "if not (0 < d < np.inf and all(0.0 <= v < np.inf for v in dists)):",
           "if d <= 0 or min(dists) < 0:"),
    Mutant("smoothness safety factor 1.5 as 1.4", ORACLE,
           "return 1.5 * worst", "return 1.4 * worst"),
    Mutant("quadratic draw with I/2 as 0.4 I", ORACLE,
           "/ d + 0.5 * np.eye(d)", "/ d + 0.4 * np.eye(d)"),
    Mutant("consensus sum back through BLAS", ALG,
           "consensus = float(np.square(dx, out=dx).sum()) / n",
           "consensus = float(dx.ravel() @ dx.ravel()) / n"),
)


def stale() -> list[str]:
    """One message per mutant whose old text does not occur exactly once."""
    counts = ((m, (REPO / m.file).read_text().count(m.old)) for m in MUTANTS)
    return [f"{m.name}: old text occurs {n} times in {m.file}" for m, n in counts if n != 1]


def run_copy(mutant: Mutant | None) -> tuple[bool, str, float]:
    """Copy the checkout, apply mutant (None: no change) and run the tests.
    Returns (passed, first failing test or '', seconds)."""
    with tempfile.TemporaryDirectory(prefix="dzo-mutant-") as tmp:
        root = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in COPIED:
            if (REPO / name).is_dir():
                shutil.copytree(REPO / name, root / name, ignore=ignore)
            else:
                shutil.copy2(REPO / name, root / name)
        if mutant is not None:
            path = root / mutant.file
            path.write_text(path.read_text().replace(mutant.old, mutant.new))
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, *PYTEST], cwd=root, capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=str(root / "src")))
        took = time.perf_counter() - start
    first = next((line.split()[1] for line in proc.stdout.splitlines()
                  if line.startswith(("FAILED ", "ERROR "))), "")
    return proc.returncode == 0, first, took


def main() -> int:
    problems = stale()
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    passed, first, took = run_copy(None)
    print(f"{'passed' if passed else 'FAILED':9} {took:6.1f}s  unmutated copy  {first}")
    if not passed:
        return 1
    survived = 0
    for m in MUTANTS:
        passed, first, took = run_copy(m)
        survived += passed
        print(f"{'survived' if passed else 'killed':9} {took:6.1f}s  {m.name}  {first}",
              flush=True)
    print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
