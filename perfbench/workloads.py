"""The benchmark's workloads, driven through oranmec's public API the way
``harness.run_experiment`` and ``harness.run_oracle`` drive it.

An operation is one training episode or one oracle pass.  A training
workload sets up ``SETUP_REPEATS`` times (config path to a ready env and
agent), keeps the last set-up, and runs ``agents.run_training`` once over
its warm-up and timed episodes, so the schedule counters run exactly as in
``oranmec run``.  The work in a run is fixed by the workload and
``--seconds`` (never by how fast the code is), so both sides of a
comparison do the same work.  ``toy-oracle`` repeats whole oracle passes
until ``--seconds`` have passed.

A traced run first repeats the untraced measurement, for the tracing
overhead, then measures again on a fresh set-up with spans on.
"""
from __future__ import annotations

import dataclasses
import logging
import math
import resource
import statistics
import traceback
from time import perf_counter

import numpy as np
from oranmec import agents, harness
from oranmec.env import Action

import layers
from tracer import Tracer, replaced

SETUP_REPEATS = 15

# toy.yaml's exhaustive oracle, as ``oranmec oracle --config configs/toy.yaml``
# prints it
ORACLE_ACTIONS = 8192
ORACLE_BEST = -22.635619555555554
ORACLE_ACTION = Action(
    split=("S1",), du_server=(2,), cu_server=(4,), du_flavor=(1,),
    cu_flavor=(1,), mec_flavor=((1, 3),), mec_at_cu=((1, 1),),
)

# The toy Bayes agent's gap after the full schedule was 0.7-19.3% over
# seeds 0-29 (median 2.6%); an untrained policy is about 560% away.  The gate
# catches a run that stopped learning, not a weaker seed.
GAP_GATE_PCT = 100.0


@dataclasses.dataclass(frozen=True)
class Training:
    config: str
    mode: str
    warmup: int                 # untimed episodes before the window
    episode_s: float | None     # nominal seconds per timed episode (2-vCPU
                                # Xeon VM, one BLAS thread); None runs the
                                # config's full schedule


@dataclasses.dataclass(frozen=True)
class Oracle:
    config: str


WORKLOADS = {
    "toy-bayes": Training("configs/toy.yaml", "bayes", warmup=0, episode_s=None),
    "default-bayes": Training("configs/default.yaml", "bayes", warmup=1, episode_s=13.0),
    "toy-egreedy": Training("configs/toy.yaml", "egreedy", warmup=1, episode_s=0.8),
    "toy-oracle": Oracle("configs/toy.yaml"),
}

# at least 2 timed episodes (288 slots) so op_ms_p95 has 14 samples beyond it
MIN_TIMED_EPISODES = 2


@dataclasses.dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = dataclasses.field(default_factory=list)
    metrics: dict[str, float] = dataclasses.field(default_factory=dict)
    record: dict = dataclasses.field(default_factory=dict)

    def check(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)


def default_seed(root, name: str) -> int:
    return harness.load_experiment_config(root / WORKLOADS[name].config).seeds[0]


def run(root, name: str, seed: int, seconds: float, trace: bool, episodes: int | None = None) -> Outcome:
    """Run workload ``name``; ``episodes`` overrides the timed episode count
    (for quick checks).  ``seed`` is the experiment seed of a training
    workload; toy-oracle has no random input (constant demand, noise-free
    utilization)."""
    spec = WORKLOADS[name]
    path = root / spec.config
    if isinstance(spec, Oracle):
        out = _run_oracle(path, seconds, trace)
    else:
        out = _run_training(spec, path, seed, seconds, trace, episodes)
    if not trace:
        out.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


# -- training ----------------------------------------------------------------

def setup_training(path, mode: str, seed: int):
    """Config path to a ready env and agent, seeded as ``run_experiment``."""
    cfg = harness.load_experiment_config(path)
    ss = np.random.SeedSequence(seed)
    util_seed, agent_seed, episode_seed = (int(s.generate_state(1)[0]) for s in ss.spawn(3))
    env = harness.build_env(cfg, util_seed=util_seed)
    agent_cfg = dataclasses.replace(cfg.agent, mode=mode, seed=agent_seed)
    agent = agents.make_agent(env.layout, env.state_dim, agent_cfg)
    provider = harness.make_demand_provider(cfg, seed)
    return cfg, env, agent, provider, episode_seed


def _timed_setups(make, tracer: Tracer | None, repeats: int = SETUP_REPEATS):
    """``repeats`` set-ups; returns the last and the median time."""
    times = []
    with replaced(harness, "build_env", _maybe_wrap(tracer, "harness.build_env", harness.build_env)), \
            replaced(agents, "make_agent", _maybe_wrap(tracer, "agents.make_agent", agents.make_agent)):
        for _ in range(repeats):
            made = None     # free the previous set-up before timing the next
            start = perf_counter()
            made = make()
            times.append(perf_counter() - start)
    return made, statistics.median(times)


def _maybe_wrap(tracer, name, fn):
    return fn if tracer is None else tracer.wrap(name, fn)


@dataclasses.dataclass
class _Pass:
    result: agents.TrainingResult | None
    stamps: list[float]     # perf_counter at each env.step call
    end: float
    episodes_started: int
    error: str | None


def train(setup, n_episodes: int, tracer: Tracer | None = None) -> _Pass:
    """``agents.run_training`` over ``n_episodes``, stamping every env.step."""
    _, env, agent, provider, episode_seed = setup
    if tracer is not None:
        _instrument(tracer, env, agent)
    stamps: list[float] = []
    started = [0]
    step = env.step

    def stamped_step(action):
        stamps.append(perf_counter())
        return step(action)

    def counted_provider(e):
        started[0] += 1
        return provider(e)

    env.step = stamped_step
    blr = _maybe_wrap(tracer, "agents.blr_posterior", agents.blr_posterior)
    result = error = None
    with replaced(agents, "blr_posterior", blr):
        try:
            result = agents.run_training(
                env, agent, counted_provider, n_episodes, episode_seed_base=episode_seed
            )
        except Exception:
            error = traceback.format_exc()
        end = perf_counter()
    return _Pass(result, stamps, end, started[0], error)


def _instrument(tracer: Tracer, env, agent) -> None:
    """Span every public callable a training slot goes through; network
    spans note the batch rows they ran on."""
    def forward(kind):
        return lambda args, _: (kind, np.atleast_2d(args[0]).shape[0])

    def backward(kind):
        return lambda args, _: (kind, args[0][0].shape[0])

    for net, name in ((agent.net, "neural.forward_online"), (agent.target_net, "neural.forward_target")):
        tracer.patch(net, "features", name, forward("features"))
        if net.with_heads:
            tracer.patch(net, "q_values", name, forward("q_values"))
    tracer.patch(agent.net, "backward_from_features", "neural.backward", backward("features"))
    if agent.net.with_heads:
        tracer.patch(agent.net, "backward_from_q", "neural.backward", backward("q_values"))
    tracer.patch(agent.adam, "step", "neural.adam")
    tracer.patch(agent.buffer, "sample", "agents.ReplayBuffer.sample")
    tracer.patch(agent.buffer, "chronological", "agents.ReplayBuffer.chronological")
    for method in ("select_action", "compute_targets", "store", "sync_target"):
        tracer.patch(agent, method, f"agents.{method}")
    tracer.patch(agent, "train_step", "agents.train_step", lambda a, r: r is None)
    if isinstance(agent, agents.BayesAgent):
        tracer.patch(agent, "update_posteriors", "agents.update_posteriors")
        tracer.patch(agent, "resample", "agents.resample")
    for method in ("step", "encode_state", "compute_costs"):
        tracer.patch(env, method, f"env.{method}")


class _JitterCount(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        if "jitter" in record.getMessage():
            self.count += 1


def _check_episodes(out: Outcome, done: _Pass, n_episodes: int, slots: int) -> None:
    if done.error is not None:
        out.problems.append(done.error)
        # the episode in progress and any never started count as failed
        ok_before = max(0, done.episodes_started - 1)
        out.attempted += n_episodes
        out.failed += n_episodes - ok_before
        return
    rewards: dict[int, list[float]] = {}
    for s in done.result.steps:
        rewards.setdefault(s.episode, []).append(s.reward)
    for e, rec in enumerate(done.result.episodes):
        r = rewards.get(e, [])
        fields = [rec.total_reward, rec.mean_reward, rec.penalty_total, rec.reconfig_total,
                  rec.routing_total, rec.elastic_delay_total, *rec.cost_sums.values()]
        if rec.mean_loss is not None:
            fields.append(rec.mean_loss)
        out.check(
            len(r) == slots and all(math.isfinite(x) for x in r + fields),
            f"episode {e}: {len(r)} of {slots} slots, or a non-finite reward or record",
        )


def _window(done: _Pass, skip: int) -> tuple[float, list[float]]:
    """Window start and per-slot wall times of the timed slots: the time
    from each env.step call to the next, the last one to the loop's end."""
    timed = done.stamps[skip:]
    if not timed:
        return done.end, []
    ends = timed[1:] + [done.end]
    return timed[0], [b - a for a, b in zip(timed, ends)]


def _latency_metrics(out: Outcome, busy_s: float, intervals: list[float]) -> None:
    n = len(intervals)
    out.metrics["ops_per_s"] = n / busy_s if n else 0.0
    p50, p95 = np.percentile(intervals, [50, 95]) * 1e3 if n else (0.0, 0.0)
    out.metrics["op_ms_p50"] = float(p50)
    out.metrics["op_ms_p95"] = float(p95)
    out.record["samples"] = {"op_ms_p50": n, "op_ms_p95": n}


def _run_training(spec: Training, path, seed, seconds, trace, episodes) -> Outcome:
    out = Outcome()
    schedule = harness.load_experiment_config(path).episodes
    if episodes is not None:
        timed = episodes
    elif spec.episode_s is None:
        timed = schedule
    else:
        timed = max(MIN_TIMED_EPISODES, round(seconds / spec.episode_s))
    timed = min(timed, schedule - spec.warmup)
    n_episodes = spec.warmup + timed
    out.record["plan"] = {"warmup_episodes": spec.warmup, "timed_episodes": timed}

    tracer = Tracer() if trace else None
    setup, setup_s = _timed_setups(lambda: setup_training(path, spec.mode, seed), tracer)
    cfg = setup[0]
    skip = spec.warmup * cfg.episode_slots

    done = train(setup, n_episodes)
    _check_episodes(out, done, n_episodes, cfg.episode_slots)
    start, intervals = _window(done, skip)
    _latency_metrics(out, done.end - start, intervals)
    if spec.episode_s is None and episodes is None and done.result is not None:
        _quality(out, path, done.result)

    if not trace:
        out.metrics["setup_s"] = setup_s
        return out

    untraced_rate = out.metrics["ops_per_s"]
    setup, _ = _timed_setups(lambda: setup_training(path, spec.mode, seed), tracer, repeats=1)
    jitter = _JitterCount()
    logging.getLogger("oranmec.agents").addHandler(jitter)
    try:
        traced = train(setup, n_episodes, tracer)
    finally:
        logging.getLogger("oranmec.agents").removeHandler(jitter)
    _check_episodes(out, traced, n_episodes, cfg.episode_slots)
    if done.result is not None and traced.result is not None:
        same = [s.reward for s in done.result.steps] == [s.reward for s in traced.result.steps]
        if not same:
            out.problems.append("traced run's rewards differ from the untraced run's")
    start, intervals = _window(traced, skip)
    agent = setup[2]
    out.metrics = layers.per_layer(
        tracer, start, traced.end - start, max(1, len(intervals)), untraced_rate,
        arch=agent.net.arch(), n_params=sum(p.size for p in agent.net.parameters()),
        jitter=jitter.count,
    )
    return out


def _quality(out: Outcome, path, result: agents.TrainingResult) -> None:
    """Gap of the last 20% of episodes to the exhaustive oracle's best, as
    ``harness.compare_runs`` takes the tail."""
    cfg = harness.load_experiment_config(path)
    best, _, _ = _oracle_pass(out, cfg, [])
    means = [r.mean_reward for r in result.episodes]
    tail = max(1, math.ceil(0.2 * len(means)))
    gap = 100.0 * (best - float(np.mean(means[-tail:]))) / abs(best)
    out.record["oracle_gap_pct"] = gap
    if not gap <= GAP_GATE_PCT:
        out.problems.append(f"oracle gap {gap:.2f}% above the {GAP_GATE_PCT}% gate")


# -- oracle --------------------------------------------------------------------

def setup_oracle(path):
    """Config path to a built env."""
    cfg = harness.load_experiment_config(path)
    return cfg, harness.build_env(cfg)


def _oracle_pass(out: Outcome, cfg, stamps: list[float], tracer: Tracer | None = None):
    """One ``harness.run_oracle`` pass, stamping each scored action; returns
    the best reward and the pass's start and end."""
    build = harness.build_env

    def stamped_build(cfg_, util_seed=None):
        env = build(cfg_, util_seed=util_seed)
        if tracer is not None:
            tracer.patch(env, "compute_costs", "env.compute_costs")
        costs = env.compute_costs

        def stamped_costs(state, action):
            if state.t == 0:     # the first of an action's evaluations
                stamps.append(perf_counter())
            return costs(state, action)

        env.compute_costs = stamped_costs
        return env

    oracle = _maybe_wrap(tracer, "harness.run_oracle", harness.run_oracle)
    with replaced(harness, "build_env", stamped_build):
        start = perf_counter()
        try:
            res = oracle(cfg)
        except Exception:
            out.check(False, traceback.format_exc())
            return math.nan, start, perf_counter()
        end = perf_counter()
    out.check(
        res.n_evaluated == ORACLE_ACTIONS and res.mean_reward == ORACLE_BEST
        and res.action == ORACLE_ACTION,
        f"oracle pass: {res.n_evaluated} actions, best {res.mean_reward!r} at {res.action}",
    )
    return res.mean_reward, start, end


def _oracle_passes(out: Outcome, cfg, seconds: float, tracer: Tracer | None = None):
    """Whole passes until ``seconds`` have passed; returns the summed pass
    time and the per-action wall times."""
    intervals: list[float] = []
    busy = 0.0
    first = perf_counter()
    while busy == 0.0 or perf_counter() - first < seconds:
        stamps: list[float] = []
        _, start, end = _oracle_pass(out, cfg, stamps, tracer)
        busy += end - start
        intervals += [b - a for a, b in zip(stamps, stamps[1:] + [end])]
    return busy, intervals


def _run_oracle(path, seconds, trace) -> Outcome:
    out = Outcome()
    tracer = Tracer() if trace else None
    (cfg, _), setup_s = _timed_setups(lambda: setup_oracle(path), tracer)
    busy, intervals = _oracle_passes(out, cfg, seconds)
    _latency_metrics(out, busy, intervals)
    if not trace:
        out.metrics["setup_s"] = setup_s
        return out
    start = perf_counter()
    busy, traced = _oracle_passes(out, cfg, seconds, tracer)
    out.metrics = layers.per_layer(
        tracer, start, busy, max(1, len(traced)), out.metrics["ops_per_s"]
    )
    return out
