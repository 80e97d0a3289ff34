"""Self-test of the benchmark; run from the repository root:

    python3 perfbench/selftest.py

It checks that the metric names, units and directions in ``layers.py`` are
those of ``BENCHMARK.json``; runs every workload shortened, untraced and
traced, and checks each prints every metric of its kind with its unit; and
checks that the toy-bayes workload trains exactly what ``oranmec run`` trains:
its per-episode rewards are byte-equal to the ``harness.run_experiment``
metric file for the same config and seed.
"""
from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import layers
import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
QUICK = ["--seconds", "1", "--episodes", "1"]


def check_spec() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ours = [{"name": n, "unit": u, "better": b, "bound": x} for n, u, b, x in layers.END_TO_END]
    assert bench["end_to_end"] == ours, "end_to_end metrics differ from layers.END_TO_END"
    ours = [{"name": n, "unit": u, "better": b} for n, u, b, _ in layers.PER_LAYER]
    assert bench["per_layer"] == ours, "per_layer metrics differ from layers.PER_LAYER"
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)


def check_workloads() -> None:
    for name in run.WORKLOAD_NAMES:
        for trace, specs in ((0, layers.END_TO_END), (1, layers.PER_LAYER)):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--trace", str(trace), *QUICK],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            expected = {n: u for n, u, *_ in specs}
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            assert got == expected, f"{name} trace {trace}: {sorted(set(got) ^ set(expected))}"
            for metric, m in result["metrics"].items():
                assert isinstance(m["value"], float) and math.isfinite(m["value"]), metric
            print(f"ok  {name} trace {trace}: {len(got)} metrics")


def check_same_as_run_experiment(episodes: int = 3) -> None:
    """Byte-equal per-episode rewards: benchmark versus ``oranmec run``."""
    from oranmec import harness

    import workloads

    path = ROOT / workloads.WORKLOADS["toy-bayes"].config
    seed = workloads.default_seed(ROOT, "toy-bayes")
    done = workloads.train(workloads.setup_training(path, "bayes", seed), episodes)
    assert done.error is None, done.error
    ours = [(repr(r.total_reward), repr(r.mean_reward)) for r in done.result.episodes]

    cfg = harness.load_experiment_config(path)
    cfg.episodes = episodes
    cfg.seeds = [seed]
    with tempfile.TemporaryDirectory() as tmp:
        cfg.out_dir = Path(tmp)
        episode_csv = next(p for p in harness.run_experiment(cfg) if p.name.startswith("episodes_"))
        rows = harness.read_episode_csv(episode_csv)
    theirs = [(row["total_reward"], row["mean_reward"]) for row in rows]
    assert ours == theirs, f"benchmark {ours} != run_experiment {theirs}"
    print(f"ok  toy-bayes rewards byte-equal to run_experiment over {episodes} episodes")


def main() -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(run.BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    check_spec()
    print("ok  metric names, units and directions match BENCHMARK.json")
    check_same_as_run_experiment()
    check_workloads()
    return 0


if __name__ == "__main__":
    sys.exit(main())
