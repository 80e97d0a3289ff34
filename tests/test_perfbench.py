"""The benchmark still runs against ``src/``: each toy workload of
``perfbench/run.py``, shortened and traced (a traced run makes the untraced
pass too), exits 0 with a correct result and no failed operation.  The
benchmark reaches into ``src/`` by name (the spans it patches, ``Action``,
``build_env``'s keywords, the record fields it reads), so a rename there
fails here and not only in ``perfbench/selftest.py``."""
import json
import subprocess
import sys

import pytest

from tests.conftest import CONFIG_DIR

ROOT = CONFIG_DIR.parent

# run.py records scipy's version and OpenBLAS build in its record line
pytest.importorskip("scipy")


@pytest.mark.parametrize("workload", ["toy-bayes", "toy-egreedy", "toy-oracle"])
def test_workload_runs_correct(workload):
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
