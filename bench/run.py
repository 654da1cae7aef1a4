#!/usr/bin/env python3
"""Benchmark the dzo simulator end to end (untraced) or per module (traced).

    python3 bench/run.py --workload fig1|highdim|bignet --seed N \\
        --seconds S --trace 0|1

Run from the root of a source checkout; dzo is imported from ./src.  Each
repetition builds the workload's topologies, mixing matrices and
objectives, runs every config to its stop rule and writes its CSV and
.config sidecar under .bench_out/.  Repetitions continue while another
fits in --seconds.  Every algorithm run is checked (see checks.py) and
counts as one attempted operation, failed if any check fails.

The last line on stdout is one JSON object: correct, attempted, failed
and metrics.  With --trace 0 the metrics are end to end (wall_s, setup_s,
queries_per_s, peak_rss_mb); with --trace 1 untraced and traced
repetitions alternate and the metrics are per layer.  The environment,
per-repetition samples and check results go to
.bench_out/<workload>/seed<N>-trace<T>/result.json, and the traced run's
spans to spans.json beside it.  Each invocation clears and writes only its
own directory there.
"""

import os

# Pin BLAS to one thread before numpy loads; threadpoolctl is not
# available, so this goes through the environment.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

IMPORT_SAMPLES = 5
IMPORT_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
               "t = time.perf_counter(); import dzo; print(time.perf_counter() - t)")
MIX_SECONDS = 0.3
MIX_BATCH = 20
OBJECTIVE_SAMPLES = (8, 4)   # agents x points per agent, fresh oracle
ALGS = ("dgd2p", "gt2d", "vrgt")
WORKLOADS = ("fig1", "highdim", "bignet")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def import_seconds() -> float:
    """Median time of `import dzo` in fresh interpreters."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run([sys.executable, "-c", IMPORT_CODE, str(SRC)], cwd=ROOT,
                             capture_output=True, text=True, check=True, timeout=120)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def git_sha():
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_sha": git_sha(),
    }


@dataclass
class Run:
    cfg: object
    rows: list
    path: Path
    topo: object
    w: object
    spec: object
    seconds: float
    queries_traced: int | None = None
    samples: list = field(default_factory=list)


@dataclass
class Rep:
    setup_s: float
    wall_s: float
    run_s: float
    runs: list
    tracer: object = None

    @property
    def queries(self) -> int:
        return sum(r.rows[-1].m for r in self.runs)


def build(dzo, cfgs):
    """Every distinct topology, its mixing matrix and every objective."""
    topos, weights, specs, out = {}, {}, {}, []
    for cfg in cfgs:
        tk = (cfg.topology_kind, cfg.topology_n, cfg.topology_seed, cfg.topology_prob)
        ok = (cfg.objective_kind, cfg.topology_n, cfg.objective_dim, cfg.objective_seed)
        if tk not in topos:
            topos[tk] = cfg.build_topology()
            weights[tk] = dzo.network.metropolis_weights(topos[tk])
        if ok not in specs:
            specs[ok] = cfg.build_objective()
        out.append((topos[tk], weights[tk], specs[ok]))
    return out


def run_rep(dzo, cfgs, out_dir: Path, tracer=None) -> Rep:
    t0 = perf_counter()
    built = build(dzo, cfgs)
    setup_s = perf_counter() - t0
    runs, run_s = [], 0.0
    for cfg, (topo, w, spec) in zip(cfgs, built):
        span = tracer.span(f"run.{cfg.algorithm}") if tracer else nullcontext()
        q0 = tracer.counts["oracle.queries"] if tracer else 0
        s0 = len(tracer.samples) if tracer else 0
        t = perf_counter()
        with span:
            rows = dzo.algorithms.run(
                cfg.algorithm, topo, spec, cfg.build_schedule(),
                dzo.algorithms.StopRule(cfg.stop_kind, cfg.stop_limit), seed=cfg.seed,
                p=cfg.p, counting_mode=cfg.counting_mode, x0_scale=cfg.x0_scale,
                heterogeneous_x0=cfg.x0_mode == "heterogeneous")
        seconds = perf_counter() - t
        run_s += seconds
        # What harness.run_experiment does after run_config.
        path = dzo.harness.write_csv(rows, out_dir / cfg.out)
        path.with_suffix(path.suffix + ".config").write_text(
            dzo.harness.config_to_text(cfg), newline="\n")
        run = Run(cfg, rows, path, topo, w, spec, seconds)
        if tracer:
            run.queries_traced = tracer.counts["oracle.queries"] - q0
            run.samples = tracer.samples[s0:]
        runs.append(run)
    return Rep(setup_s, perf_counter() - t0, run_s, runs, tracer)


def check_rep(dzo, workload, rep: Rep, rng, replay_dir: Path | None) -> list[list[str]]:
    """Failures per run of one repetition."""
    failures = []
    weight_errors = {}
    for run in rep.runs:
        cfg, rows = run.cfg, run.rows
        alg, n, d = cfg.algorithm, cfg.topology_n, cfg.objective_dim
        errs = checks.row_shape(alg, rows) + checks.query_accounting(alg, rows, n, d)
        if alg == "vrgt" and not errs:
            errs += checks.refresh_rate(checks.vrgt_refreshes(rows, n, d), n, cfg.p)
        errs += checks.stop_rule(rows, cfg.stop_kind, cfg.stop_limit, checks.sweep_init(alg, n, d))
        if id(run.w) not in weight_errors:
            weight_errors[id(run.w)] = checks.mixing_matrix(n, run.topo.edges, run.w.w, run.w.sigma)
        errs += weight_errors[id(run.w)]
        na, npts = OBJECTIVE_SAMPLES
        agents = rng.integers(0, n, size=na)
        points = rng.standard_normal((na, npts, d)) * cfg.x0_scale
        values = dzo.oracle.ZerothOrderOracle(run.spec).evaluate_rows(agents, points)
        errs += checks.objective_values(run.spec, np.repeat(agents, npts),
                                        points.reshape(-1, d), values.ravel())
        if run.samples:
            _, s_agents, s_points, s_values = zip(*run.samples)
            errs += checks.objective_values(run.spec, s_agents, s_points, s_values)
        if run.queries_traced is not None and run.queries_traced != rows[-1].m:
            errs.append(f"oracle charged {run.queries_traced} queries, final m {rows[-1].m}")
        errs += checks.csv_matches(run.path, rows)
        if replay_dir is not None and alg == workloads.REPLAY[workload]:
            replay_cfg = dzo.harness.load_config(run.path.with_suffix(run.path.suffix + ".config"))
            replayed = dzo.harness.run_experiment(replay_cfg, out_dir=replay_dir)
            if replayed.read_bytes() != run.path.read_bytes():
                errs.append("replaying the .config sidecar gave a different CSV")
        failures.append(errs)
    props = workloads.properties(workload, {r.cfg.algorithm: r.rows for r in rep.runs})
    for run, errs in zip(rep.runs, failures):
        errs += props.get(run.cfg.algorithm, [])
    return failures


def mix_us(dzo, rep: Rep, rng) -> float:
    """Median time of one dzo.mix call on the workload's W and an (N, d) state."""
    run = rep.runs[0]
    x = rng.standard_normal((run.cfg.topology_n, run.cfg.objective_dim))
    batches = []
    deadline = perf_counter() + MIX_SECONDS
    while perf_counter() < deadline or len(batches) < 5:
        t = perf_counter()
        for _ in range(MIX_BATCH):
            dzo.network.mix(run.w, x)
        batches.append((perf_counter() - t) / MIX_BATCH)
    return statistics.median(batches) * 1e6


def layer_metrics(rep: Rep) -> dict:
    total, own, calls = rep.tracer.totals()
    out = {
        "network.build_topology_s": (total["network.build_topology"], "s"),
        "network.metropolis_weights_s": (total["network.metropolis_weights"], "s"),
        "oracle.sweep_s": (total["oracle.sweep"], "s"),
        "oracle.sweep_calls": (calls["oracle.sweep"], "count"),
        "oracle.pair_s": (total["oracle.pair"], "s"),
        "oracle.pair_calls": (calls["oracle.pair"], "count"),
        "oracle.queries": (rep.tracer.counts["oracle.queries"], "queries"),
        "oracle.point_bytes": (rep.tracer.counts["oracle.point_bytes"], "bytes_computed"),
        "algorithms.init_s": (total["algorithms.init"], "s"),
    }
    for alg in ALGS:
        out[f"algorithms.step_s.{alg}"] = (total[f"algorithms.step.{alg}"], "s")
        out[f"algorithms.step_self_s.{alg}"] = (own[f"algorithms.step.{alg}"], "s")
    out["algorithms.rounds"] = (sum(calls[f"algorithms.step.{a}"] for a in ALGS), "count")
    out["algorithms.refreshes"] = (sum(
        sum(checks.vrgt_refreshes(r.rows, r.cfg.topology_n, r.cfg.objective_dim))
        for r in rep.runs if r.cfg.algorithm == "vrgt"), "count")
    out["metrics.compute_s"] = (total["metrics.compute"], "s")
    out["metrics.compute_calls"] = (calls["metrics.compute"], "count")
    out["harness.write_csv_s"] = (total["harness.write_csv"], "s")
    out["harness.csv_bytes"] = (sum(r.path.stat().st_size for r in rep.runs), "bytes")
    return out


def summary(rep: Rep) -> dict:
    return {"traced": rep.tracer is not None, "setup_s": rep.setup_s, "wall_s": rep.wall_s,
            "run_s": rep.run_s, "queries": rep.queries,
            "rounds": {r.cfg.algorithm: len(r.rows) for r in rep.runs},
            "run_s_by_alg": {r.cfg.algorithm: r.seconds for r in rep.runs},
            "final_stat_gap": {r.cfg.algorithm: r.rows[-1].stat_gap for r in rep.runs}}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dzo" / "__init__.py").is_file():
        print(f"error: no dzo sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    import_s = import_seconds()
    sys.path.insert(0, str(SRC))
    import dzo
    if Path(dzo.__file__).resolve().parent != (SRC / "dzo").resolve():
        print(f"error: imported dzo from {dzo.__file__}, not {SRC}", file=sys.stderr)
        return 2

    cfgs = workloads.configs(args.workload, args.seed)
    out_dir = OUT / args.workload / f"seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    rng = np.random.default_rng([args.seed, WORKLOADS.index(args.workload)])

    # Finished repetitions keep only their summary, so peak RSS reflects one
    # repetition whatever their number.
    reps, layers, failures = [], [], []
    last = None
    start = perf_counter()
    cost = 0.0
    while not reps or perf_counter() - start + cost <= args.seconds:
        t = perf_counter()
        for with_trace in ((False, True) if args.trace else (False,)):
            gc.collect()   # start every repetition from the same heap
            tracer = None
            if with_trace:
                tracer = spans.Tracer()
                spans.install(tracer, dzo)
            try:
                rep = run_rep(dzo, cfgs, out_dir / "runs", tracer)
            finally:
                if tracer:
                    tracer.unpatch()
            replay_dir = out_dir / "replay" if not reps else None
            failures += check_rep(dzo, args.workload, rep, rng, replay_dir)
            reps.append(summary(rep))
            if tracer:
                layers.append(layer_metrics(rep))
                last = rep
            del rep
        cost = perf_counter() - t
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    plain = [r for r in reps if not r["traced"]]
    if args.trace:
        metrics = {k: (statistics.median(d[k][0] for d in layers), layers[0][k][1])
                   for k in layers[0]}
        metrics["network.mix_us"] = (mix_us(dzo, last, rng), "us")
        metrics["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for r in reps if r["traced"])
            - statistics.median(r["wall_s"] for r in plain), "s")
    else:
        metrics = {
            "wall_s": (import_s + statistics.median(r["wall_s"] for r in plain), "s"),
            "setup_s": (import_s + statistics.median(r["setup_s"] for r in plain), "s"),
            "queries_per_s": (statistics.median(r["queries"] / r["run_s"] for r in plain),
                              "queries/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    attempted = len(failures)
    failed = sum(1 for errs in failures if errs)
    env = environment()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "import_s": import_s, "reps": reps,
        "failures": [errs for errs in failures if errs],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (out_dir / "result.json").write_text(
        json.dumps(record, indent=1) + "\n")
    if args.trace:
        (out_dir / "spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent"], "spans": last.tracer.spans}))

    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}", file=sys.stderr)
    print(f"{args.workload} runs attempted={attempted} failed={failed}", file=sys.stderr)
    for errs in record["failures"]:
        print("  FAILED: " + "; ".join(errs), file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
