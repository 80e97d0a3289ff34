"""Measure the memory and time of one posterior refresh on a synthetic ring.

Run from the repository root, one ring size per process (the high-water
mark is the process's own):

    PYTHONPATH=src python3 tools/refresh_peak.py 1440
    PYTHONPATH=src python3 tools/refresh_peak.py 7200

It builds ``default.yaml``'s Bayes agent for seed 0 with
``harness.seeded_run``, pushes ``rows`` random transitions (uniform states,
uniform sub-actions, normal rewards, none terminal) through ``agent.store``
and runs one ``update_posteriors`` under ``tracemalloc``.  It prints the refresh's
``tracemalloc`` peak, its wall time (traced), the process's resident
high-water mark before and after it, and the sha256 of the refit posterior
means and sampling factors, so two trees can be compared bit for bit.  BLAS
runs on one thread, as the benchmark runs it.
"""
from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"       # before numpy is first imported

import argparse  # noqa: E402
import hashlib  # noqa: E402
import resource  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from oranmec import harness  # noqa: E402

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def high_water_mb() -> float:
    """The process's resident high-water mark (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rows", type=int, nargs="?", default=1440, help="ring rows")
    args = parser.parse_args(argv)
    if args.rows < 2:
        parser.error("need at least 2 rows: no refresh runs on a one-row ring")

    cfg = harness.load_experiment_config(CONFIGS / "default.yaml")
    env, agent, _, _ = harness.seeded_run(cfg, 0, mode="bayes")
    rng = np.random.default_rng(0)
    sizes = np.array(env.layout.branch_sizes())
    for _ in range(args.rows):
        agent.store(
            rng.uniform(size=env.state_dim), rng.integers(sizes), float(rng.normal()),
            rng.uniform(size=env.state_dim), False,
        )

    before = high_water_mb()
    tracemalloc.start()
    start = perf_counter()
    agent.update_posteriors()
    wall = perf_counter() - start
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    after = high_water_mb()

    post = agent.posterior
    print(
        f"rows {args.rows} tracemalloc_peak_mib {peak / 2**20:.1f} wall_s {wall:.2f} "
        f"high_water_mb {before:.1f} -> {after:.1f} "
        f"posterior_mu {hashlib.sha256(post.mu.tobytes()).hexdigest()[:16]} "
        f"posterior_scale {hashlib.sha256(post.scale.tobytes()).hexdigest()[:16]}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
