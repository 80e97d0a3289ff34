"""The measuring tools run end to end: ``tools/identity.py``,
``tools/refresh_peak.py`` and ``tools/price_timing.py`` exit 0 and print
their fingerprint lines."""
import os
import re
import subprocess
import sys

from tests.conftest import CONFIG_DIR

ROOT = CONFIG_DIR.parent


def run_tool(*argv: str) -> str:
    out = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_identity_prints_the_toy_oracle_best():
    assert run_tool("tools/identity.py", "toy-oracle") == (
        "toy-oracle best -22.635619555555554 at Action(split=('S1',), du_server=(2,), "
        "cu_server=(4,), du_flavor=(1,), cu_flavor=(1,), mec_flavor=((1, 3),), "
        "mec_at_cu=((1, 1),))\n"
    )


def test_refresh_peak_prints_memory_time_and_posterior_hashes():
    line = run_tool("tools/refresh_peak.py", "64")
    assert re.fullmatch(
        r"rows 64 tracemalloc_peak_mib \d+\.\d wall_s \d+\.\d\d "
        r"high_water_mb \d+\.\d -> \d+\.\d "
        r"posterior_mu [0-9a-f]{16} posterior_scale [0-9a-f]{16}\n",
        line,
    ), line


def test_price_timing_prints_time_and_digest_per_config():
    out = run_tool("tools/price_timing.py")
    assert re.fullmatch(
        r"toy\.yaml us_per_call \d+\.\d\d digest [0-9a-f]{64}\n"
        r"default\.yaml us_per_call \d+\.\d\d digest [0-9a-f]{64}\n",
        out,
    ), out
