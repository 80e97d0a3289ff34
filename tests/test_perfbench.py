"""The benchmark still runs against ``src/``: each toy workload of
``perfbench/run.py``, shortened and traced (a traced run makes the untraced
pass too), exits 0 with a correct result and no failed operation.  The
benchmark reaches into ``src/`` by name (the spans it patches, ``Action``,
``build_env``'s keywords, the record fields it reads), so a rename there
fails here and not only in ``perfbench/selftest.py``.  And the toy-bayes
workload trains what ``oranmec run`` trains, so a change to the seeding of
either fails here rather than silently making the benchmark time another run."""
import json
import os
import subprocess
import sys

import pytest

from tests.conftest import CONFIG_DIR

ROOT = CONFIG_DIR.parent


@pytest.mark.parametrize("workload", ["toy-bayes", "toy-egreedy", "toy-oracle"])
def test_workload_runs_correct(workload):
    # run.py records scipy's version and OpenBLAS build in its record line
    pytest.importorskip("scipy")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--trace", "1",
         "--seconds", "1", "--episodes", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"], out.stderr
    assert result["failed"] == 0
    assert result["attempted"] > 0


def test_toy_bayes_trains_what_run_experiment_trains():
    # selftest's byte-equality check of per-episode rewards, in a process of
    # its own with perfbench and src importable
    path = os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")])
    out = subprocess.run(
        [sys.executable, "-c", "import selftest; selftest.check_same_as_run_experiment()"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("ok  toy-bayes rewards byte-equal to run_experiment"), out.stdout
