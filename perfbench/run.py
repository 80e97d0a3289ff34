"""Outside-in benchmark of oranmec's training loop and exhaustive oracle.

Run from the repository root, one workload per process:

    python3 perfbench/run.py --workload toy-bayes --seed 7 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones (see ``layers.py`` and ``BENCHMARK.json``).  ``--seed`` replaces the
config's experiment seed; without it the config's first seed is used.
``--episodes`` shortens a training workload for quick checks.  ``all`` runs
every workload in its own process and prints a table.

The load is a closed loop in one process: one Python thread, with the BLAS
libraries fixed to ``BLAS_THREADS`` threads so both sides of a comparison run
the same way.  The line before the last on standard output records the
software and hardware the figures came from; the last line is the result:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import itertools
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

BLAS_THREADS = 1
ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("toy-bayes", "default-bayes", "toy-egreedy", "toy-oracle")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--episodes", type=int, help="timed training episodes (quick checks)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not (ROOT / "src" / "oranmec" / "__init__.py").is_file():
        print(f"error: no oranmec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    import layers       # imports numpy: after the thread count is fixed
    import workloads

    seed = args.seed if args.seed is not None else workloads.default_seed(ROOT, args.workload)
    out = workloads.run(ROOT, args.workload, seed, args.seconds, bool(args.trace), args.episodes)
    specs = layers.PER_LAYER if args.trace else layers.END_TO_END
    if set(out.metrics) != {name for name, *_ in specs}:
        raise RuntimeError(f"metric set {sorted(out.metrics)} does not match the spec")
    for problem in out.problems:
        print(problem, file=sys.stderr)
    print(json.dumps({"record": {
        "workload": args.workload, "seed": seed, "seconds": args.seconds,
        "trace": args.trace, **out.record, **environment(),
    }}))
    print(json.dumps({
        "correct": out.failed == 0 and not out.problems,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            name: {"value": out.metrics[name], "unit": unit} for name, unit, *_ in specs
        },
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; prints each metric with its unit."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        if args.episodes is not None:
            cmd += ["--episodes", str(args.episodes)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        res = results[name] = json.loads(lines[-1])
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}  {lines[-2]}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:<48} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def environment() -> dict:
    import numpy
    import scipy

    return {
        **_git(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(numpy, scipy),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
    }


def _git() -> dict:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, env=env,
                                capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return {"git_rev": None, "git_dirty": None}
    if rev.returncode != 0:
        return {"git_rev": None, "git_dirty": None}
    return {"git_rev": rev.stdout.strip(), "git_dirty": bool(status.stdout.strip())}


def _blas(*packages) -> list[dict]:
    """Name, version and thread count of each OpenBLAS the packages bundle."""
    found = []
    for pkg in packages:
        libs = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(glob.glob(str(libs / "*openblas*.so*"))):
            lib = ctypes.CDLL(path)
            for prefix, suffix in itertools.product(("scipy_openblas_", "openblas_"), ("64_", "")):
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                if config is not None and threads is not None:
                    config.restype = ctypes.c_char_p
                    found.append({"package": pkg.__name__, "config": config().decode(),
                                  "threads": threads()})
                    break
    return found


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


if __name__ == "__main__":
    sys.exit(main())
