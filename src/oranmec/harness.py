"""Experiment runner: wire configs into envs and agents, write metrics.

``load_experiment_config`` turns a yaml experiment file into the objects a
run uses.  ``config.read_section`` reads each section into the dataclass
whose fields are its keys, so a misspelt key raises ``ConfigError``: the top
level into ``ExperimentConfig``, ``topology`` into ``TopologyConfig`` (its
``waxman`` into ``Waxman``), built and routed once at load, ``flavors``,
``workload`` and ``utilization`` into ``Flavors``, ``Workload`` and
``UtilizationSection`` (whose ``params`` are ``UtilizationModel``'s affine
fields and override the ``platform``'s values key by key), and ``reward``
and ``agent`` into ``RewardConfig`` and ``AgentConfig``.  A value that one
of these refuses is named by its key path, as ``agent.lr must be positive
and finite, got 0.0``.  The top-level ``n_services`` counts the MEC classes;
a class is inelastic exactly when ``reward.delay_threshold`` has a key for
it.
``run_experiment`` trains each seed's ``seeded_run`` and writes:

  * ``episodes_seed<S>_<mode>.csv``: one record per episode,
  * ``steps_seed<S>_<mode>.csv``: per-slot reward and cost aggregates,
  * ``checkpoint_seed<S>_<mode>.npz``: final network/posterior state.

``run_oracle`` exhaustively scores every action of a (single-BS) space as a
stationary policy and reports the best as an ``Action``, and
``compare_runs`` summarizes metric files against each other (mean of the
last 20% of episodes plus an episodes-to-convergence estimate: the first
episode whose trailing 10-episode moving average lands within 5% of the
final mean).
"""
from __future__ import annotations

import csv
import dataclasses
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .agents import AgentConfig, make_agent, run_training
from .config import ConfigError, read_section
from .env import (
    DEFAULT_FLAVORS,
    ORACLE_LIMIT,
    Action,
    ActionLayout,
    CostBreakdown,
    OranMecEnv,
    RewardConfig,
    State,
    enumerate_actions,
)
from .topology import Topology, build_topology
from .workload import (
    PLATFORMS,
    SLOTS_PER_DAY,
    UtilizationModel,
    constant_demands,
    load_trace,
    synth_demands,
)

logger = logging.getLogger("oranmec.harness")

# libyaml's safe loader parses a config about ten times faster than the
# pure-Python one and builds the same dicts; the pure-Python one serves where
# libyaml is absent.
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

EPISODE_FIELDS = (
    "episode", "total_reward", "mean_reward", "penalty_total",
    "reconfig_total", "routing_total", "elastic_delay_total",
    *CostBreakdown._ITEMS, "is_convergence_episode",
)

STEP_FIELDS = (
    "episode", "step", "reward", "J", "D",
    "penalty_total", "reconfig_total", "routing_total",
)


@dataclass(frozen=True)
class Flavors:
    """Reference-core flavor ladders: ``bbu`` for the DU and CU hosts, ``mec``
    one per MEC class (empty: ``bbu`` for every class)."""

    bbu: tuple[int, ...] = DEFAULT_FLAVORS
    mec: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        # a negative rung would be a negative compute charge, a repeated one
        # two indices for one value, and an empty ladder leaves no choice
        ladders = {"bbu": self.bbu, **{f"mec[{c}]": m for c, m in enumerate(self.mec)}}
        for name, ladder in ladders.items():
            if not ladder or min(ladder) < 0 or len(set(ladder)) < len(ladder):
                raise ValueError(f"{name} needs one or more distinct nonnegative rungs, got {ladder}")


@dataclass(frozen=True)
class Workload:
    """Demand source: ``synthetic`` diurnal demands (drawn from the experiment
    seed if ``seed`` is absent), a ``constant`` rate or a ``trace`` file."""

    source: str = "synthetic"
    seed: int | None = None
    peak_gbps: float = 4.0
    legacy_gbps: float = 1.0
    mec_gbps: tuple[float, ...] | None = None   # None: 0.5 per class
    path: str | None = None

    def __post_init__(self):
        if self.source not in ("synthetic", "constant", "trace"):
            raise ValueError(f"source must be synthetic, constant or trace, got {self.source!r}")
        if self.seed is not None and self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        rates = {"peak_gbps": self.peak_gbps, "legacy_gbps": self.legacy_gbps}
        rates.update((f"mec_gbps[{c}]", v) for c, v in enumerate(self.mec_gbps or ()))
        for name, value in rates.items():
            if not 0.0 <= value < math.inf:     # NaN fails too
                raise ValueError(f"{name} must be nonnegative and finite, got {value}")
        if self.source == "trace" and self.path is None:
            raise ValueError("source trace needs a workload.path")


@dataclass(frozen=True)
class UtilizationSection:
    """The utilization model's section: the stock ``platform`` (a key of
    ``workload.PLATFORMS``), the ``noise_std`` of its Gaussian noise, and
    ``params``, ``UtilizationModel`` fields that override the platform's
    values key by key."""

    platform: str = "A"
    noise_std: float = 0.0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.platform not in PLATFORMS:
            raise ValueError(f"platform must be {' or '.join(PLATFORMS)}, got {self.platform!r}")
        if not 0.0 <= self.noise_std < math.inf:   # NaN fails too
            raise ValueError(f"noise_std must be nonnegative and finite, got {self.noise_std}")

    def build(self, n_services: int) -> UtilizationModel:
        """The section's model for ``n_services`` MEC classes; a value the
        model refuses raises ``ConfigError`` naming ``utilization.params.<key>``."""
        return read_section(UtilizationModel, {**PLATFORMS[self.platform], **self.params},
                            "utilization.params", noise_std=self.noise_std, n_services=n_services)


@dataclass
class ExperimentConfig:
    topology: Topology
    workload: Workload = field(default_factory=Workload)
    utilization: UtilizationSection = field(default_factory=UtilizationSection)
    reward: RewardConfig = field(default_factory=RewardConfig)
    agent: AgentConfig = field(default_factory=AgentConfig)
    flavors: Flavors = field(default_factory=Flavors)
    n_services: int = 2
    episodes: int = 1
    episode_slots: int = SLOTS_PER_DAY
    seeds: list[int] = field(default_factory=lambda: [0])
    out_dir: Path = Path("results")

    def __post_init__(self):
        if self.episodes <= 0:
            raise ConfigError("episodes must be positive")
        if not self.seeds or min(self.seeds) < 0:
            raise ConfigError(f"seeds must be nonempty and nonnegative, got {self.seeds}")
        if self.episode_slots < 1:
            raise ConfigError(f"episode_slots must be positive, got {self.episode_slots}")
        if self.workload.source == "synthetic" and self.episodes * self.episode_slots % SLOTS_PER_DAY:
            raise ConfigError(     # synth_demands draws whole days
                f"workload.source synthetic needs episodes x episode_slots to be a multiple "
                f"of {SLOTS_PER_DAY}, got {self.episodes} x {self.episode_slots}"
            )
        n = self.n_services
        if n < 1:
            raise ConfigError(f"n_services must be positive, got {n}")
        mec = self.workload.mec_gbps
        if mec is not None and len(mec) != n:
            raise ConfigError(f"workload.mec_gbps has {len(mec)} rates for {n} services")
        if self.flavors.mec and len(self.flavors.mec) != n:
            raise ConfigError(f"flavors.mec has {len(self.flavors.mec)} ladders for {n} services")
        stray = [c for c in self.reward.delay_threshold if not 1 <= c <= n]
        if stray:
            raise ConfigError(f"reward.delay_threshold names classes {stray} outside 1..{n}")
        self.utilization.build(n)       # refuses unusable values at load, not at build_env


def load_experiment_config(path) -> ExperimentConfig:
    path = Path(path)
    try:
        with open(path) as fh:
            raw = yaml.load(fh, Loader=YAML_LOADER)
        if not isinstance(raw, dict):
            raise ConfigError("top level must be a mapping")
        if "topology" not in raw:
            raise ConfigError("missing topology section")
        topology = build_topology(raw.pop("topology"))
        return read_section(ExperimentConfig, raw, topology=topology)
    except (AttributeError, KeyError, OSError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def build_env(cfg: ExperimentConfig, util_seed: int | None = None) -> OranMecEnv:
    """The env of ``cfg``: its topology, flavors and reward, and the model of
    its ``utilization`` section for ``cfg.n_services`` classes.

    ``util_seed`` is unused: the env draws its utilization noise at
    ``reset``, from the episode's noise seed.  The keyword stays because
    ``perfbench/workloads.py`` passes it.
    """
    layout = ActionLayout.from_topology(
        cfg.topology, n_services=cfg.n_services,
        bbu_flavors=cfg.flavors.bbu, mec_flavors=cfg.flavors.mec,
    )
    return OranMecEnv(cfg.topology, layout, cfg.utilization.build(cfg.n_services), cfg.reward)


def make_demand_provider(cfg: ExperimentConfig, seed: int):
    """``provider(e)`` returns episode e's ``(slots, n_bs, 1 + C)`` demand
    array, a read-only view into the configured source's array."""
    wl = cfg.workload
    slots = cfg.episode_slots
    n_bs = len(cfg.topology.ru_ids)
    n_services = cfg.n_services
    if wl.source == "constant":
        mec = (0.5,) * n_services if wl.mec_gbps is None else wl.mec_gbps
        episode = constant_demands(slots, n_bs, wl.legacy_gbps, mec)
        return lambda e: episode
    if wl.source == "trace":
        sequence = load_trace(wl.path, n_bs=n_bs, n_services=n_services)
        if len(sequence) < cfg.episodes * slots:
            raise ConfigError(
                f"trace holds {len(sequence)} slots, the experiment needs "
                f"{cfg.episodes * slots}"
            )
    else:
        sequence = synth_demands(
            seed if wl.seed is None else wl.seed,
            cfg.episodes * slots, n_bs, n_services, wl.peak_gbps,
        )
    return lambda e: sequence[e * slots:(e + 1) * slots]


def _tail_mean(mean_rewards: list[float]) -> float:
    """Mean over the last 20% of episodes, at least one."""
    return float(np.mean(mean_rewards[-max(1, math.ceil(0.2 * len(mean_rewards))):]))


def _convergence_episode(mean_rewards: list[float]) -> int:
    """First episode whose trailing 10-episode moving average is within 5%
    of ``_tail_mean`` (1-based)."""
    n = len(mean_rewards)
    final = _tail_mean(mean_rewards)
    band = 0.05 * abs(final)
    for e in range(1, n + 1):
        window = mean_rewards[max(0, e - 10):e]
        if abs(float(np.mean(window)) - final) <= band:
            return e
    return n


def write_episode_csv(path, records) -> None:
    convergence_episode = _convergence_episode([r.mean_reward for r in records])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(EPISODE_FIELDS)
        for r in records:
            writer.writerow([
                r.episode, repr(r.total_reward), repr(r.mean_reward),
                repr(r.penalty_total), repr(r.reconfig_total),
                repr(r.routing_total), repr(r.elastic_delay_total),
                *(repr(r.cost_sums.get(k, 0.0)) for k in CostBreakdown._ITEMS),
                int(r.episode + 1 == convergence_episode),
            ])


def write_step_csv(path, steps) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(STEP_FIELDS)
        for s in steps:
            writer.writerow([
                s.episode, s.step, repr(s.reward), repr(s.total_cost),
                repr(s.elastic_delay), repr(s.penalty_total),
                repr(s.reconfig_total), repr(s.routing_total),
            ])


def derived_seeds(seed: int) -> tuple[int, int, int]:
    """The three seeds that experiment seed ``seed`` spawns.  The first seeds
    nothing (the env draws its noise per episode) but is still spawned, so
    the other two keep their values.  The second seeds the agent; episode
    e's utilization-noise seed is the third plus e."""
    return tuple(int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(3))


def seeded_run(cfg: ExperimentConfig, seed: int, **agent_changes):
    """Experiment seed ``seed``'s run, as ``run_experiment`` trains it: the
    env, the agent of ``cfg.agent`` with ``agent_changes``, the demand
    provider and the episode-noise seed base, seeded by ``derived_seeds``."""
    _, agent_seed, episode_seed = derived_seeds(seed)
    env = build_env(cfg)
    agent_cfg = dataclasses.replace(cfg.agent, seed=agent_seed, **agent_changes)
    agent = make_agent(env.layout, env.state_dim, agent_cfg)
    return env, agent, make_demand_provider(cfg, seed), episode_seed


def run_experiment(cfg: ExperimentConfig) -> list[Path]:
    """Execute the experiment per seed; returns the written file paths.
    ``out_dir`` is made once a seed's run is built, so a refused set-up
    leaves none behind."""
    written: list[Path] = []
    for seed in cfg.seeds:
        env, agent, provider, episode_seed = seeded_run(cfg, seed)
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        result = run_training(
            env, agent, provider, cfg.episodes, episode_seed_base=episode_seed
        )
        tag = f"seed{seed}_{agent.config.mode}"
        ep_path = cfg.out_dir / f"episodes_{tag}.csv"
        st_path = cfg.out_dir / f"steps_{tag}.csv"
        ck_path = cfg.out_dir / f"checkpoint_{tag}.npz"
        write_episode_csv(ep_path, result.episodes)
        write_step_csv(st_path, result.steps)
        agent.save_checkpoint(ck_path)
        written += [ep_path, st_path, ck_path]
        logger.info("seed %d done: %s", seed, ep_path)
    return written


# -- exhaustive stationary oracle -------------------------------------------

@dataclass
class OracleResult:
    action: Action
    mean_reward: float
    n_evaluated: int


def run_oracle(cfg: ExperimentConfig, limit: int = ORACLE_LIMIT) -> OracleResult:
    """Score every action, each an index row of ``enumerate_actions``, as a
    stationary policy over one episode and return the best by average
    reward, decoded into an ``Action``.

    The demands pass ``OranMecEnv.ingest`` as in training, so demands above
    the cell-rate cap are scored clipped.  Reconfiguration charges appear
    only in the first slot (the change away from the initial configuration);
    with stationary demands and a noise-free utilization model each later
    slot costs the same, which the evaluation exploits.  Under utilization
    noise the env is reset once with the noise seed that ``run_experiment``
    gives episode 0 of the first seed, and every action is priced on that
    one episode's noise, so actions are compared on equal terms and the
    result is reproducible.
    """
    env = build_env(cfg)
    actions = enumerate_actions(env.layout, limit=limit)    # refuses before any demand is built
    demands = env.ingest(make_demand_provider(cfg, cfg.seeds[0])(0))
    noisy = env.util.noise_std != 0.0
    noise_seed = derived_seeds(cfg.seeds[0])[2] if noisy else None    # ~50 us: only if used
    first = env.reset(demands, noise_seed)      # every action's slot 0
    stationary = not noisy and bool(np.all(demands == demands[0]))
    T = len(demands)
    steady_demand = demands[1 % T]
    best_action = None
    best_reward = -math.inf
    count = 0
    for action in actions:
        count += 1
        if stationary:
            r0 = env.compute_costs(first, action).reward
            steady = env.compute_costs(State(1, steady_demand, action), action).reward
            avg = (r0 + (T - 1) * steady) / T
        else:
            total = env.compute_costs(first, action).reward
            for t in range(1, T):
                total += env.compute_costs(State(t, demands[t], action), action).reward
            avg = total / T
        if avg > best_reward:
            best_reward = avg
            best_action = action
    logger.info("oracle evaluated %d actions, best mean reward %.4f", count, best_reward)
    return OracleResult(env.layout.indices_to_action(best_action), best_reward, count)


# -- run comparison -----------------------------------------------------------

@dataclass
class RunSummary:
    path: Path
    mean_reward_last20: float
    convergence_episode: int
    pct_vs_first: float


def read_episode_csv(path) -> list[dict[str, str]]:
    """Rows of an episode metric file as written: column name to raw text."""
    with open(path, newline="") as fh:
        return [dict(row) for row in csv.DictReader(fh)]


def _read_mean_rewards(path: Path) -> list[float]:
    """The ``mean_reward`` column of an episode file; a cell that does not
    parse raises a ValueError naming the file, the line and the column, and
    a file without rows one naming the file."""
    series = []
    for line, row in enumerate(read_episode_csv(path), start=2):  # line 1: header
        text = row.get("mean_reward")
        try:
            series.append(float(text))
        except (TypeError, ValueError):
            raise ValueError(
                f"{path}, line {line}, column 'mean_reward': {text!r} is not a number"
            ) from None
    if not series:
        raise ValueError(f"{path}: no episode rows")
    return series


def compare_runs(paths) -> list[RunSummary]:
    """Summarize runs: mean episodic reward over the last 20% of episodes,
    episodes-to-convergence, and signed percent difference versus the first
    run, positive when a run's mean reward is higher.  Against a first run
    whose mean is 0 that difference is an infinity of the same sign, or 0
    for an equal mean."""
    paths = [Path(p) for p in paths]
    if len(paths) < 2:
        raise ValueError("need at least two metric files to compare")
    series = [_read_mean_rewards(p) for p in paths]
    lengths = {len(s) for s in series}
    if len(lengths) != 1:
        raise ValueError(f"episode counts differ across files: {sorted(lengths)}")
    means = [_tail_mean(s) for s in series]
    base = means[0]
    pcts = [100.0 * (m - base) / abs(base) if base else math.copysign(math.inf, m) if m else 0.0
            for m in means]
    return [RunSummary(*row) for row in zip(paths, means, map(_convergence_episode, series), pcts)]


def format_comparison(summaries: list[RunSummary]) -> str:
    lines = [f"{'run':<40} {'mean(last 20%)':>16} {'converged@':>11} {'vs first':>9}"]
    for s in summaries:
        lines.append(
            f"{s.path.name:<40} {s.mean_reward_last20:>16.4f} "
            f"{s.convergence_episode:>11d} {s.pct_vs_first:>+8.2f}%"
        )
    return "\n".join(lines)
