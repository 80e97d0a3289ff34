import itertools
import math

import numpy as np
import pytest

from oranmec.topology import (
    RoutingInfeasibleError,
    TopologyError,
    build_topology,
)
from tests.conftest import COST_TOPOLOGY, chain_config


def brute_force_shortest(links, src, dst):
    """Enumerate every simple path and return (best weight, best delay)."""
    adj = {}
    for l in links:
        adj.setdefault(l["src"], []).append((l["dst"], l["weight"], l["delay_ms"]))
        adj.setdefault(l["dst"], []).append((l["src"], l["weight"], l["delay_ms"]))
    best = None

    def walk(node, seen, weight, delay):
        nonlocal best
        if node == dst:
            if best is None or weight < best[0]:
                best = (weight, delay)
            return
        for nbr, w, d in adj.get(node, ()):
            if nbr not in seen:
                walk(nbr, seen | {nbr}, weight + w, delay + d)

    walk(src, {src}, 0.0, 0.0)
    return best


def link_sums(links, path):
    """(weight, delay) of ``path`` summed over the config's link table."""
    table = {frozenset((l["src"], l["dst"])): l for l in links}
    hops = [table[frozenset(hop)] for hop in zip(path, path[1:])]
    return sum(l["weight"] for l in hops), sum(l["delay_ms"] for l in hops)


class TestBuild:
    def test_chain_single_path(self):
        topo = build_topology(chain_config())
        entry = topo.path_entry(1, 2, 2)
        assert entry.fh_path == (1, 2)
        assert entry.fh_delay_ms == 0.1
        assert entry.mh_path == (2,)
        assert entry.mh_delay_ms == 0.0      # DU and CU co-located
        assert entry.bh_path == (2, 0)
        assert entry.bh_delay_ms == 0.2

    def test_capacity_must_be_positive(self):
        cfg = chain_config()
        cfg["links"][0]["capacity_gbps"] = 0.0
        with pytest.raises(TopologyError):
            build_topology(cfg)

    def test_server_capacity_must_be_positive(self):
        cfg = chain_config()
        cfg["capacity_rc"] = {2: -3}
        with pytest.raises(TopologyError):
            build_topology(cfg)

    @pytest.mark.parametrize("key, value, text", [
        ("capacity_rc", math.nan, "server 2 needs a positive finite capacity, got nan"),
        ("capacity_rc", math.inf, "server 2 needs a positive finite capacity, got inf"),
        ("server_rate", -1.0, "server 2 needs a nonnegative finite rate, got -1.0"),
        ("server_rate", math.nan, "server 2 needs a nonnegative finite rate, got nan"),
        ("server_rate", math.inf, "server 2 needs a nonnegative finite rate, got inf"),
    ], ids=["nan-capacity", "inf-capacity", "negative-rate", "nan-rate", "inf-rate"])
    def test_unusable_server_number_rejected(self, key, value, text):
        cfg = chain_config()
        cfg[key] = {2: value}
        with pytest.raises(TopologyError, match=text):
            build_topology(cfg)

    def test_zero_server_rate_accepted(self):
        cfg = chain_config()
        cfg["server_rate"] = {2: 0.0}
        assert build_topology(cfg).server_rate[2] == 0.0

    @pytest.mark.parametrize("key, value, text", [
        ("capacity_gbps", math.nan, "capacity must be > 0 and finite, got nan"),
        ("capacity_gbps", math.inf, "capacity must be > 0 and finite, got inf"),
        ("delay_ms", math.nan, "needs a finite nonnegative delay and weight, got nan and 0.05"),
        ("delay_ms", math.inf, "needs a finite nonnegative delay and weight, got inf and 0.05"),
        ("weight", math.nan, "needs a finite nonnegative delay and weight, got 0.2 and nan"),
        ("weight", math.inf, "needs a finite nonnegative delay and weight, got 0.2 and inf"),
    ], ids=["nan-capacity", "inf-capacity", "nan-delay", "inf-delay", "nan-weight", "inf-weight"])
    def test_non_finite_link_number_rejected(self, key, value, text):
        cfg = chain_config()
        cfg["links"][1][key] = value
        with pytest.raises(TopologyError, match=f"link 2-0 {text}"):
            build_topology(cfg)

    def test_single_epc_with_id_zero(self):
        cfg = chain_config()
        cfg["nodes"][0]["kind"] = "router"
        with pytest.raises(TopologyError):
            build_topology(cfg)

    def test_disconnected_ru_rejected(self):
        cfg = chain_config()
        cfg["links"] = cfg["links"][1:]      # drop the RU link
        with pytest.raises(TopologyError):
            build_topology(cfg)

    def test_rebuild_identical(self):
        a = build_topology(COST_TOPOLOGY)
        b = build_topology(COST_TOPOLOGY)
        assert a.links == b.links
        assert a.paths == b.paths


class TestShortestPaths:
    def test_min_weight_wins(self):
        cfg = {
            "nodes": [
                {"id": 0, "kind": "epc"},
                {"id": 1, "kind": "ru"},
                {"id": 2, "kind": "du_server"},
                {"id": 3, "kind": "router"},
                {"id": 4, "kind": "cu_server"},
            ],
            "links": [
                {"src": 1, "dst": 2, "capacity_gbps": 10, "delay_ms": 0.1, "weight": 0.3},
                {"src": 1, "dst": 3, "capacity_gbps": 10, "delay_ms": 0.1, "weight": 0.1},
                {"src": 3, "dst": 2, "capacity_gbps": 10, "delay_ms": 0.1, "weight": 0.1},
                {"src": 2, "dst": 4, "capacity_gbps": 10, "delay_ms": 0.1, "weight": 0.1},
                {"src": 4, "dst": 0, "capacity_gbps": 10, "delay_ms": 0.1, "weight": 0.1},
            ],
            "du_servers": [2],
            "cu_servers": [4],
        }
        topo = build_topology(cfg)
        entry = topo.path_entry(1, 2, 4)
        assert entry.fh_path == (1, 3, 2)    # weight 0.2 beats direct 0.3

    def test_lexicographic_tie_break(self):
        # two equal-weight RU->server routes via routers 3 and 4
        cfg = {
            "nodes": [
                {"id": 0, "kind": "epc"},
                {"id": 1, "kind": "ru"},
                {"id": 2, "kind": "du_server"},
                {"id": 3, "kind": "router"},
                {"id": 4, "kind": "router"},
                {"id": 5, "kind": "cu_server"},
            ],
            "links": [
                {"src": 1, "dst": 3, "capacity_gbps": 10, "delay_ms": 0.1, "weight": 0.1},
                {"src": 3, "dst": 2, "capacity_gbps": 10, "delay_ms": 0.1, "weight": 0.1},
                {"src": 1, "dst": 4, "capacity_gbps": 10, "delay_ms": 0.1, "weight": 0.1},
                {"src": 4, "dst": 2, "capacity_gbps": 10, "delay_ms": 0.1, "weight": 0.1},
                {"src": 2, "dst": 5, "capacity_gbps": 10, "delay_ms": 0.1, "weight": 0.1},
                {"src": 5, "dst": 0, "capacity_gbps": 10, "delay_ms": 0.1, "weight": 0.1},
            ],
            "du_servers": [2],
            "cu_servers": [5],
        }
        topo = build_topology(cfg)
        assert topo.path_entry(1, 2, 5).fh_path == (1, 3, 2)

    def test_matches_brute_force_on_random_graphs(self):
        rng = np.random.default_rng(42)
        for trial in range(20):
            n = 10
            links = []
            for i, j in itertools.combinations(range(n), 2):
                if rng.uniform() < 0.4:
                    links.append({
                        "src": i, "dst": j, "capacity_gbps": 10.0,
                        "delay_ms": float(rng.uniform(0.0, 0.1)),
                        "weight": float(rng.uniform(0.0, 0.1)),
                    })
            cfg = {
                "nodes": [
                    {"id": 0, "kind": "epc"},
                    {"id": 1, "kind": "ru"},
                    {"id": 2, "kind": "du_server"},
                    {"id": 3, "kind": "cu_server"},
                ] + [{"id": i, "kind": "router"} for i in range(4, n)],
                "links": links,
                "du_servers": [2],
                "cu_servers": [3],
            }
            try:
                topo = build_topology(cfg)
            except TopologyError:
                continue                      # disconnected draw
            entry = topo.path_entry(1, 2, 3)
            for path, (src, dst) in (
                (entry.fh_path, (1, 2)),
                (entry.mh_path, (2, 3)),
                (entry.bh_path, (3, 0)),
            ):
                weight, delay = brute_force_shortest(links, src, dst)
                got_weight, got_delay = link_sums(links, path)
                assert got_weight == pytest.approx(weight, abs=1e-12)
                assert got_delay == pytest.approx(delay, abs=1e-12)

    def test_stored_delay_is_link_sum(self):
        topo = build_topology(COST_TOPOLOGY)
        links = COST_TOPOLOGY["links"]
        for entry in topo.paths.values():
            for path, delay in (
                (entry.fh_path, entry.fh_delay_ms),
                (entry.mh_path, entry.mh_delay_ms),
                (entry.bh_path, entry.bh_delay_ms),
            ):
                assert delay == pytest.approx(link_sums(links, path)[1], abs=1e-12)

    def test_unknown_servers_rejected(self):
        topo = build_topology(COST_TOPOLOGY)
        with pytest.raises(TopologyError):
            topo.path_entry(1, 4, 4)    # 4 is a CU host, not DU


class TestWaxman:
    WAXMAN = {"waxman": {"n": 14, "alpha": 0.5, "beta": 0.1, "seed": 5,
                         "n_du": 4, "n_cu": 2, "n_ru": 4}}

    def test_deterministic_per_seed(self):
        a = build_topology(self.WAXMAN)
        b = build_topology(self.WAXMAN)
        assert a.links == b.links
        assert a.paths == b.paths

    def test_seed_changes_graph(self):
        other = {"waxman": {**self.WAXMAN["waxman"], "seed": 6}}
        assert build_topology(self.WAXMAN).links != build_topology(other).links

    def test_default_cluster_shape(self):
        topo = build_topology(self.WAXMAN)
        assert len(topo.du_servers) == 4
        assert len(topo.cu_servers) == 2
        assert len(topo.ru_ids) == 4
        assert topo.capacity_rc[topo.du_servers[0]] == 20.0
        assert topo.capacity_rc[topo.cu_servers[0]] == 100.0

    def test_link_attributes_in_range(self):
        topo = build_topology(self.WAXMAN)
        for link in topo.links:
            assert 0.0 <= link.delay_ms <= 0.1
            assert 30.0 <= link.capacity_gbps <= 160.0
            assert 0.0 <= link.weight <= 0.1


def test_dijkstra_unreachable_raises():
    from oranmec.topology import _adjacency, _dijkstra
    adj = _adjacency(())
    with pytest.raises(RoutingInfeasibleError):
        _dijkstra(adj, 0, 1)
