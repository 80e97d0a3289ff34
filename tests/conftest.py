import dataclasses
import os
from pathlib import Path

# One BLAS thread, as the benchmark runs: the small GEMMs of the toy nets only
# lose from a second thread.  Set before numpy is first imported.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np
import pytest

from oranmec.env import ActionLayout, OranMecEnv
from oranmec.harness import ExperimentConfig, build_env, load_experiment_config
from oranmec.topology import build_topology
from oranmec.workload import UtilizationModel

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# Five-node cluster: one RU, two far-edge DU hosts, one CU host, the core.
# Server 3 is reachable only over a slow fronthaul link and server 3's
# compute is deliberately tiny so capacity/delay violations are reachable.
COST_TOPOLOGY = {
    "nodes": [
        {"id": 0, "kind": "epc"},
        {"id": 1, "kind": "ru"},
        {"id": 2, "kind": "du_server"},
        {"id": 3, "kind": "du_server"},
        {"id": 4, "kind": "cu_server"},
    ],
    "links": [
        {"src": 1, "dst": 2, "capacity_gbps": 50.0, "delay_ms": 0.125, "weight": 0.01},
        {"src": 1, "dst": 3, "capacity_gbps": 50.0, "delay_ms": 0.5, "weight": 0.03},
        {"src": 2, "dst": 4, "capacity_gbps": 50.0, "delay_ms": 0.0625, "weight": 0.01},
        {"src": 3, "dst": 4, "capacity_gbps": 50.0, "delay_ms": 0.0625, "weight": 0.02},
        {"src": 4, "dst": 0, "capacity_gbps": 50.0, "delay_ms": 0.03125, "weight": 0.01},
    ],
    "du_servers": [2, 3],
    "cu_servers": [4],
    "capacity_rc": {2: 20, 3: 4, 4: 100},
    "server_rate": {2: 1.0, 3: 2.0, 4: 1.0},
}

def chain_config():
    # RU(1) - server(2) - EPC(0); server doubles as DU and CU host
    return {
        "nodes": [
            {"id": 0, "kind": "epc"},
            {"id": 1, "kind": "ru"},
            {"id": 2, "kind": "du_server"},
        ],
        "links": [
            {"src": 1, "dst": 2, "capacity_gbps": 10, "delay_ms": 0.1, "weight": 0.05},
            {"src": 2, "dst": 0, "capacity_gbps": 10, "delay_ms": 0.2, "weight": 0.05},
        ],
        "du_servers": [2],
        "cu_servers": [2],
        "capacity_rc": {2: 20},
    }


def row(layout, **values):
    """A one-BS index row from branch values named as in
    ``layout.per_bs_domains()``: ``split``, ``du_server``, ``cu_server``,
    ``du_flavor``, ``cu_flavor``, then ``mec_flavor_<c>`` and ``mec_at_cu_<c>``
    per MEC class c."""
    return tuple(dom.index(values[name]) for name, dom in layout.per_bs_domains())


def make_cost_env(
    bbu_base=0.5,
    bbu_slope=1.5,
    mec_base=0.2,
    mec_slope=1.0,
    n_services=2,
    reward=None,
    topology=None,
):
    topo = build_topology(topology or COST_TOPOLOGY)
    layout = ActionLayout.from_topology(topo, n_services=n_services)
    util = UtilizationModel(
        bbu_base=bbu_base,
        bbu_slope=bbu_slope,
        mec_base=mec_base,
        mec_slope=mec_slope,
        n_services=n_services,
    )
    return OranMecEnv(topo, layout, util, reward)


def load_toy(**changes) -> ExperimentConfig:
    """``configs/toy.yaml`` as ``oranmec run`` loads it, with top-level ``changes``."""
    return dataclasses.replace(load_experiment_config(CONFIG_DIR / "toy.yaml"), **changes)


def make_toy_env():
    """The noise-free environment of ``configs/toy.yaml``."""
    return build_env(load_toy())


def toy_agent_config(seed, **changes):
    """``configs/toy.yaml``'s agent settings with ``seed`` and ``changes``."""
    return dataclasses.replace(load_toy().agent, seed=seed, **changes)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
