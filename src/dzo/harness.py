"""Experiment configuration, CSV persistence, and comparison suites.

Config files are INI text with typed sections (documented in the README):

    [topology]  kind, n, seed, prob (erdos_renyi only)
    [objective] kind, dim, seed
    [algorithm] name, step_size, p (vrgt), counting_mode (vrgt)
    [schedule]  u0, u_decay, step_decay
    [stop]      kind (rounds | queries), limit
    [run]       seed, x0_scale, x0_mode (shared | heterogeneous), out

``ExperimentConfig`` checks every value when it is built, so a bad file
fails at load: each through its consumer's check (``check_topology``,
``FAMILIES``, ``check_policy``, ``Schedule``, ...) where there is one.

The CSV contract: header ``k,m,stat_gap,consensus_err,tracking_err``, 17
significant digits, LF line endings, empty tracking field when the
algorithm has no tracker.  ``m`` counts fresh oracle queries summed over
all agents.  Each run writes a normalized config echo next to its CSV so
any result can be replayed bit for bit.

Comparison suites mirror the three standard experiment families:

* fig1 -- the tracked variance-reduced method (p=0.1) against both
  baselines on the 50-agent, 64-dimensional benchmark, shared query axis;
* fig2 -- refresh-probability sweep p in {0.2, 0.5, 0.8, 1.0};
* fig3 -- dimension sweep d in {30, 100, 200, 300} with the refresh
  probability lowered as min(0.1, 8/d).

Suite budgets are per-agent sampling numbers (the natural x-axis for
cross-algorithm comparisons); the stop rule they compile to multiplies by
the number of agents, since MetricsRow.m counts queries network-wide.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, replace
from pathlib import Path

from .algorithms import ALGORITHMS, MetricsRow, Schedule, StopRule, run
from .estimators import check_policy
from .network import Topology, build_topology, check_topology
from .oracle import FAMILIES, ObjectiveSpec

SUITES = ("fig1", "fig2", "fig3")
CSV_HEADER = "k,m,stat_gap,consensus_err,tracking_err"
X0_MODES = ("shared", "heterogeneous")

_SUITE_AGENTS = 50


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one run, file-round-trippable."""

    topology_kind: str
    topology_n: int
    topology_seed: int
    objective_kind: str
    objective_dim: int
    objective_seed: int
    algorithm: str
    step_size: float
    stop_kind: str
    stop_limit: int
    seed: int
    topology_prob: float | None = None
    p: float = 0.1
    counting_mode: str = "paper_faithful"
    u0: float = 3.0
    u_decay: float = 0.75
    step_decay: float = 0.0
    x0_scale: float = 1.0
    x0_mode: str = "shared"
    out: str = "run.csv"

    def __post_init__(self) -> None:
        check_topology(self.topology_kind, self.topology_n, self.topology_prob)
        if self.objective_kind not in FAMILIES:
            raise ValueError(f"unknown objective kind {self.objective_kind!r}")
        if self.objective_dim < 1:
            raise ValueError(f"objective dim must be at least 1, got {self.objective_dim}")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        # Checked for every algorithm, though only vrgt reads them, so no
        # config carries a value its sidecar would drop.
        check_policy(self.p, self.counting_mode)
        self.build_schedule()  # Schedule validates
        StopRule(self.stop_kind, self.stop_limit)  # validates
        for name in ("topology_seed", "objective_seed", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")
        if not math.isfinite(self.x0_scale):
            raise ValueError(f"x0_scale must be finite, got {self.x0_scale}")
        if self.x0_mode not in X0_MODES:
            raise ValueError(f"x0_mode must be one of {X0_MODES}, got {self.x0_mode!r}")

    def build_topology(self) -> Topology:
        return build_topology(self.topology_kind, self.topology_n,
                              seed=self.topology_seed, prob=self.topology_prob)

    def build_objective(self) -> ObjectiveSpec:
        return FAMILIES[self.objective_kind](self.topology_n, self.objective_dim,
                                             seed=self.objective_seed)

    def build_schedule(self) -> Schedule:
        return Schedule(step_size=self.step_size, step_decay=self.step_decay,
                        u0=self.u0, u_decay=self.u_decay)


# The INI layout in file order: (section, key, ExperimentConfig field, parse).
# The writer omits prob when it is None and p/counting_mode outside vrgt; the
# reader requires every key but the optional ones, which take the defaults,
# and rejects any key the layout does not list for its section.  Values are
# literal: no interpolation, so a `%` reads back as written.
_LAYOUT = (
    ("topology", "kind", "topology_kind", str),
    ("topology", "n", "topology_n", int),
    ("topology", "seed", "topology_seed", int),
    ("topology", "prob", "topology_prob", float),
    ("objective", "kind", "objective_kind", str),
    ("objective", "dim", "objective_dim", int),
    ("objective", "seed", "objective_seed", int),
    ("algorithm", "name", "algorithm", str),
    ("algorithm", "step_size", "step_size", float),
    ("algorithm", "p", "p", float),
    ("algorithm", "counting_mode", "counting_mode", str),
    ("schedule", "u0", "u0", float),
    ("schedule", "u_decay", "u_decay", float),
    ("schedule", "step_decay", "step_decay", float),
    ("stop", "kind", "stop_kind", str),
    ("stop", "limit", "stop_limit", int),
    ("run", "seed", "seed", int),
    ("run", "x0_scale", "x0_scale", float),
    ("run", "x0_mode", "x0_mode", str),
    ("run", "out", "out", str),
)
_OPTIONAL = frozenset({"topology_prob", "p", "counting_mode", "step_decay",
                       "x0_scale", "x0_mode", "out"})


def config_to_text(cfg: ExperimentConfig) -> str:
    """Normalized INI rendering; floats use repr so parsing round-trips."""
    sections: dict[str, dict[str, str]] = {}
    for section, key, field, parse in _LAYOUT:
        value = getattr(cfg, field)
        if value is None or (field in ("p", "counting_mode") and cfg.algorithm != "vrgt"):
            continue
        sections.setdefault(section, {})[key] = repr(value) if parse is float else str(value)
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_dict(sections)
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def config_from_text(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
        known = {(section, key) for section, key, *_ in _LAYOUT}
        for section in parser.sections():
            for key in parser[section]:
                if (section, key) not in known:
                    raise ValueError(f"unknown key {key!r} in [{section}]")
        sections = {section: parser[section] for section, *_ in _LAYOUT}
        return ExperimentConfig(**{
            field: parse(sections[section][key])
            for section, key, field, parse in _LAYOUT
            if field not in _OPTIONAL or key in sections[section]
        })
    except (KeyError, ValueError, configparser.Error) as err:
        raise ValueError(f"malformed experiment config: {err}") from err


def load_config(path: str | Path) -> ExperimentConfig:
    return config_from_text(Path(path).read_text())


def _fmt(value: float) -> str:
    return "%.17g" % value


def rows_to_csv(rows: list[MetricsRow]) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        tracking = "" if r.tracking_err is None else _fmt(r.tracking_err)
        lines.append(f"{r.k},{r.m},{_fmt(r.stat_gap)},{_fmt(r.consensus_err)},{tracking}")
    return "\n".join(lines) + "\n"


def write_csv(rows: list[MetricsRow], path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(rows_to_csv(rows))
    return path


def run_config(cfg: ExperimentConfig) -> list[MetricsRow]:
    """Execute a config in memory and return its rows."""
    return run(algorithm=cfg.algorithm,
               topology=cfg.build_topology(),
               spec=cfg.build_objective(),
               schedule=cfg.build_schedule(),
               stop=StopRule(cfg.stop_kind, cfg.stop_limit),
               seed=cfg.seed,
               p=cfg.p,
               counting_mode=cfg.counting_mode,
               x0_scale=cfg.x0_scale,
               heterogeneous_x0=cfg.x0_mode == "heterogeneous")


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path | None = None) -> Path:
    """Run a config and persist its CSV plus a config echo sidecar.

    The sidecar (``<out>.config``) is the normalized config; feeding it back
    through ``run_experiment`` reproduces the CSV byte for byte.
    """
    rows = run_config(cfg)
    out = Path(cfg.out)
    if out_dir is not None and not out.is_absolute():
        out = Path(out_dir) / out
    path = write_csv(rows, out)
    sidecar = path.with_suffix(path.suffix + ".config")
    with open(sidecar, "w", newline="\n") as fh:
        fh.write(config_to_text(cfg))
    return path


def suite_configs(suite: str, seed: int, budget: int) -> list[ExperimentConfig]:
    """Configs for one comparison suite.

    ``budget`` is the per-agent sampling number; every config in a suite
    shares the same seed (hence the same objective draw, topology, and
    initial point) and the same query axis.
    """
    if suite not in SUITES:
        raise ValueError(f"suite must be one of {SUITES}, got {suite!r}")
    if budget < 1:
        raise ValueError("budget must be positive")
    base = ExperimentConfig(
        topology_kind="erdos_renyi", topology_n=_SUITE_AGENTS, topology_seed=seed,
        topology_prob=0.2, objective_kind="benchmark", objective_dim=64, objective_seed=seed,
        algorithm="vrgt", step_size=0.02, stop_kind="queries",
        stop_limit=budget * _SUITE_AGENTS, seed=seed, x0_scale=0.25,
    )
    if suite == "fig1":
        return [replace(base, algorithm=name, out=f"fig1_{name}.csv")
                for name in ("vrgt", "dgd2p", "gt2d")]
    if suite == "fig2":
        return [replace(base, p=p, out=f"fig2_vrgt_p{p:g}.csv") for p in (0.2, 0.5, 0.8, 1.0)]
    return [replace(base, objective_dim=d, p=min(0.1, 8.0 / d), out=f"fig3_vrgt_d{d}.csv")
            for d in (30, 100, 200, 300)]


def run_comparison(suite: str, seed: int, budget: int,
                   out_dir: str | Path = ".") -> list[Path]:
    """Run a whole suite and return its CSV paths (sidecars alongside)."""
    return [run_experiment(cfg, out_dir=out_dir) for cfg in suite_configs(suite, seed, budget)]
