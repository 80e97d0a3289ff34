"""Metric names, units and the per-layer figures derived from a trace.

``END_TO_END`` and ``PER_LAYER`` mirror ``BENCHMARK.json`` (the self-test
checks that they agree).  Each per-layer entry also names the end-to-end
metric and workloads it is expected to move, so a later change can state its
prediction against it.  Every ``*.ms_per_slot`` figure is self time (the
span minus its child spans) per timed operation: a training slot, or one
scored joint action on ``toy-oracle``.  A layer a workload never calls reads
0.
"""
from __future__ import annotations

import statistics

# name, unit, better, bound.  The timing bounds are wide because on a shared
# 2-vCPU Xeon VM the machine's own speed drifts over minutes: the same fixed
# matmul loop took 0.19-0.34 s.  Peak RSS repeats to within 2%.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_ms_p50", "ms", "lower", 0.25),
    ("op_ms_p95", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

_NET = "ops_per_s and op_ms_p50: most on default-bayes, then toy-egreedy, least on toy-bayes"
_POSTERIOR = "ops_per_s on toy-bayes; no change on default-bayes and toy-egreedy; oracle gap must hold"
_REPLAY = "ops_per_s on all training workloads; peak_rss_mb on default-bayes"
_AGENT = "op_ms_p50 on every training workload"
_ENV = "ops_per_s on toy-oracle; below 1% of a slot on training workloads"
_SETUP = "setup_s on every workload"
_TRACE = "none: explains the traced slot time"

# name, unit, better, expected to move
PER_LAYER = (
    ("neural.forward_online.ms_per_slot", "ms", "lower", _NET),
    ("neural.forward_target.ms_per_slot", "ms", "lower", _NET),
    ("neural.backward.ms_per_slot", "ms", "lower", _NET),
    ("neural.adam.ms_per_slot", "ms", "lower", _NET),
    ("neural.forward_online.calls_per_slot", "calls", "lower", _NET),
    ("neural.gflop_per_slot", "GFLOP", "lower", _NET),
    ("neural.gflops", "GFLOP/s", "higher", _NET),
    ("neural.adam.gb_per_s", "GB/s", "higher", _NET),
    ("agents.update_posteriors.ms_per_slot", "ms", "lower", _POSTERIOR),
    ("agents.ReplayBuffer.chronological.ms_per_slot", "ms", "lower", _POSTERIOR),
    ("agents.blr_posterior.ms_per_slot", "ms", "lower", _POSTERIOR),
    ("agents.blr_posterior.calls_per_refresh", "calls", "lower", _POSTERIOR),
    ("agents.posterior_jitter.count", "count", "lower", _POSTERIOR),
    ("agents.ReplayBuffer.sample.ms_per_slot", "ms", "lower", _REPLAY),
    ("agents.store.ms_per_slot", "ms", "lower", _REPLAY),
    ("agents.select_action.ms_per_slot", "ms", "lower", _AGENT),
    ("agents.compute_targets.ms_per_slot", "ms", "lower", _AGENT),
    ("agents.train_step.ms_per_slot", "ms", "lower", _AGENT),
    ("agents.train_step.skipped_ratio", "ratio", "lower", _AGENT),
    ("agents.sync_target.ms_per_slot", "ms", "lower", _AGENT),
    ("agents.resample.ms_per_slot", "ms", "lower", _AGENT),
    ("env.step.ms_per_slot", "ms", "lower", _ENV),
    ("env.encode_state.ms_per_slot", "ms", "lower", _ENV),
    ("env.compute_costs.us_per_call", "us", "lower", _ENV),
    ("env.compute_costs.calls_per_op", "calls", "lower", _ENV),
    ("harness.oracle_enumerate.us_per_action", "us", "lower", _ENV),
    ("harness.build_env.ms", "ms", "lower", _SETUP),
    ("agents.make_agent.ms", "ms", "lower", _SETUP),
    ("trace.op_ms", "ms", "lower", _TRACE),
    ("trace.unattributed_ms_per_slot", "ms", "lower", _TRACE),
    ("trace.overhead_pct", "%", "lower", _TRACE),
)

# spans whose self time is reported as ``<name>.ms_per_slot``
_MS_PER_SLOT = (
    "neural.forward_online", "neural.forward_target", "neural.backward",
    "neural.adam", "agents.update_posteriors", "agents.ReplayBuffer.chronological",
    "agents.blr_posterior", "agents.ReplayBuffer.sample", "agents.store",
    "agents.select_action", "agents.compute_targets", "agents.train_step",
    "agents.sync_target", "agents.resample", "env.step", "env.encode_state",
)

# Adam reads parameter, gradient and both moments and writes back three.
_ADAM_BYTES_PER_PARAM = 7 * 8


def matmul_flop_per_row(arch: dict) -> dict[str, float]:
    """Multiply-add FLOPs per batch row of each forward kind, from shapes:
    ``features`` is trunk plus branch feature heads, ``q_values`` adds only
    the Q heads on top.  Backward does twice the forward's matmul work."""
    widths = [arch["state_dim"], *arch["trunk_widths"]]
    trunk = sum(a * b for a, b in zip(widths, widths[1:]))
    branches = len(arch["branch_sizes"]) * widths[-1] * arch["feature_dim"]
    heads = arch["feature_dim"] * sum(arch["branch_sizes"]) if arch["with_heads"] else 0
    return {"features": 2.0 * (trunk + branches), "q_values": 2.0 * heads}


def per_layer(
    tracer, window_start: float, window_s: float, n_ops: int,
    untraced_ops_per_s: float, arch: dict | None = None, n_params: int = 0,
    jitter: int = 0,
) -> dict[str, float]:
    """Per-layer figures from the spans of one traced window.

    Spans that start before ``window_start`` belong to set-up; only
    ``harness.build_env`` and ``agents.make_agent`` are read from those.
    """
    spans = tracer.spans
    self_s = tracer.self_times()
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    outer: dict[str, int] = {}
    covered = 0.0
    flop = 0.0
    skipped = 0
    per_row = matmul_flop_per_row(arch) if arch else {}
    setup: dict[str, list[float]] = {"harness.build_env": [], "agents.make_agent": []}
    for span, own in zip(spans, self_s):
        name = span.name
        if span.start < window_start:
            if name in setup:
                setup[name].append(span.end - span.start)
            continue
        total[name] = total.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1
        if span.parent < 0:
            covered += span.end - span.start
        elif spans[span.parent].name != name:
            outer[name] = outer.get(name, 0) + 1
        if name == "agents.train_step":
            skipped += bool(span.note)
        elif span.note is not None and name.startswith("neural."):
            kind, rows = span.note
            flop += per_row[kind] * rows * (2 if name == "neural.backward" else 1)

    def ms(name):
        return 1e3 * total.get(name, 0.0) / n_ops

    def ratio(num, den):
        return num / den if den else 0.0

    net_s = sum(total.get(n, 0.0) for n in (
        "neural.forward_online", "neural.forward_target", "neural.backward"))
    traced_ops_per_s = n_ops / window_s
    out = {f"{name}.ms_per_slot": ms(name) for name in _MS_PER_SLOT}
    out.update({
        "neural.forward_online.calls_per_slot": ratio(
            outer.get("neural.forward_online", 0), n_ops),
        "neural.gflop_per_slot": flop / 1e9 / n_ops,
        "neural.gflops": ratio(flop / 1e9, net_s),
        "neural.adam.gb_per_s": ratio(
            calls.get("neural.adam", 0) * n_params * _ADAM_BYTES_PER_PARAM / 1e9,
            total.get("neural.adam", 0.0)),
        "agents.blr_posterior.calls_per_refresh": ratio(
            calls.get("agents.blr_posterior", 0), calls.get("agents.update_posteriors", 0)),
        "agents.posterior_jitter.count": float(jitter),
        "agents.train_step.skipped_ratio": ratio(skipped, calls.get("agents.train_step", 0)),
        "env.compute_costs.us_per_call": 1e6 * ratio(
            total.get("env.compute_costs", 0.0), calls.get("env.compute_costs", 0)),
        "env.compute_costs.calls_per_op": calls.get("env.compute_costs", 0) / n_ops,
        "harness.oracle_enumerate.us_per_action": 1e6 * total.get("harness.run_oracle", 0.0) / n_ops,
        "harness.build_env.ms": 1e3 * _median(setup["harness.build_env"]),
        "agents.make_agent.ms": 1e3 * _median(setup["agents.make_agent"]),
        "trace.op_ms": 1e3 * window_s / n_ops,
        "trace.unattributed_ms_per_slot": 1e3 * (window_s - covered) / n_ops,
        "trace.overhead_pct": 100.0 * (untraced_ops_per_s / traced_ops_per_s - 1.0),
    })
    return out


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0
