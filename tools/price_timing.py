"""Time ``OranMecEnv.compute_costs`` and fingerprint its bits on both shipped configs.

Run from the repository root on two trees, alternating, and compare the output:

    PYTHONPATH=src python3 tools/price_timing.py

For ``toy.yaml`` and ``default.yaml`` it draws 200 random (slot, previous
row, row) triples from ``default_rng(2312)`` over seed 0's first episode,
as ``tests/test_env_costs.py``'s ``TestCostDigest`` draws them.  It prices
all 200 twenty-five times and prints one line per config:

    toy.yaml us_per_call 18.52 digest <sha256>

``us_per_call`` is the median over the 25 repeats of a repeat's time per
call, in microseconds, on whatever host runs it.  One repeat is only a few
milliseconds of work, so one burst of load on a shared host moves a whole
repeat; the median of 25 moves less than that of 5.  ``digest`` is the sha256
of every ``CostBreakdown`` field written as ``float.hex``, one per line, in
``TestCostDigest._digest``'s format.  So one run per tree compares the bits
of the cost model; the host also drifts between runs, so compare times over
several alternating runs per tree.
"""
from __future__ import annotations

import hashlib
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from oranmec import harness
from oranmec.env import State

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
PAIRS = 200
REPEATS = 25


def digest(breakdowns) -> str:
    """sha256 of every field of ``breakdowns`` written as ``float.hex``."""
    lines = (float.hex(v) for c in breakdowns for v in c.as_dict().values())
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def measure(config: str) -> str:
    """``config``'s output line: median µs per call and the digest."""
    cfg = harness.load_experiment_config(CONFIGS / config)
    env = harness.build_env(cfg)
    demands = env.ingest(harness.make_demand_provider(cfg, cfg.seeds[0])(0))
    sizes = env.layout.branch_sizes()
    rng = np.random.default_rng(2312)
    pairs = []
    for _ in range(PAIRS):
        t = int(rng.integers(len(demands)))
        prev = tuple(rng.integers(sizes).tolist())
        action = tuple(rng.integers(sizes).tolist())
        pairs.append((State(t, demands[t], prev), action))
    times = []
    for _ in range(REPEATS):
        start = perf_counter()
        costs = [env.compute_costs(state, action) for state, action in pairs]
        times.append((perf_counter() - start) / PAIRS)
    return f"{config} us_per_call {1e6 * statistics.median(times):.2f} digest {digest(costs)}"


def main() -> int:
    for config in ("toy.yaml", "default.yaml"):
        print(measure(config))
    return 0


if __name__ == "__main__":
    sys.exit(main())
