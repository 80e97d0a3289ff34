import hashlib
import itertools
import math

import numpy as np
import pytest

from oranmec import harness, topology
from oranmec.topology import (
    RoutingInfeasibleError,
    TopologyError,
    build_topology,
)
from tests.conftest import CONFIG_DIR, COST_TOPOLOGY, chain_config


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
        fh, mh, bh = topo.fronthaul[(1, 2)], topo.midhaul[(2, 2)], topo.backhaul[2]
        assert fh.path == (1, 2)
        assert fh.delay_ms == 0.1
        assert mh.path == (2,)
        assert mh.delay_ms == 0.0      # DU and CU co-located
        assert bh.path == (2, 0)
        assert bh.delay_ms == 0.2
        assert topo.route_delays(1, 2, 2) == (0.1, 0.0)

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
        assert (a.fronthaul, a.midhaul, a.backhaul) == (b.fronthaul, b.midhaul, b.backhaul)

    def test_each_segment_route_is_searched_once(self, monkeypatch):
        # default.yaml: 4 RUs x 4 DU hosts + 4 DU x 2 CU hosts + 2 CU hosts
        calls = []
        search = topology._dijkstra
        monkeypatch.setattr(topology, "_dijkstra", lambda *a: calls.append(a[1:]) or search(*a))
        topo = harness.load_experiment_config(CONFIG_DIR / "default.yaml").topology
        assert len(calls) == len(set(calls)) == 4 * 4 + 4 * 2 + 2
        assert sorted(topo.fronthaul) == list(itertools.product(topo.ru_ids, topo.du_servers))
        assert sorted(topo.midhaul) == list(itertools.product(topo.du_servers, topo.cu_servers))
        assert sorted(topo.backhaul) == list(topo.cu_servers)


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
        assert topo.fronthaul[(1, 2)].path == (1, 3, 2)    # weight 0.2 beats direct 0.3

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
        assert topo.fronthaul[(1, 2)].path == (1, 3, 2)

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
            for route, (src, dst) in (
                (topo.fronthaul[(1, 2)], (1, 2)),
                (topo.midhaul[(2, 3)], (2, 3)),
                (topo.backhaul[3], (3, 0)),
            ):
                weight, delay = brute_force_shortest(links, src, dst)
                got_weight, got_delay = link_sums(links, route.path)
                assert got_weight == pytest.approx(weight, abs=1e-12)
                assert got_delay == pytest.approx(delay, abs=1e-12)

    def test_stored_delay_is_link_sum(self):
        topo = build_topology(COST_TOPOLOGY)
        links = COST_TOPOLOGY["links"]
        routes = [*topo.fronthaul.values(), *topo.midhaul.values(), *topo.backhaul.values()]
        for route in routes:
            assert route.delay_ms == pytest.approx(link_sums(links, route.path)[1], abs=1e-12)

    def test_unknown_servers_rejected(self):
        topo = build_topology(COST_TOPOLOGY)
        with pytest.raises(TopologyError, match="node 4 is not a DU server"):
            topo.route_delays(1, 4, 4)    # 4 is a CU host, not DU
        with pytest.raises(TopologyError, match="node 2 is not a CU server"):
            topo.route_delays(1, 2, 2)
        with pytest.raises(TopologyError, match="node 2 is not an RU"):
            topo.route_delays(2, 2, 4)


class TestRouteDigest:
    """``default.yaml``'s links and the (FH, MH) delays of every (RU, DU, CU)
    choice pinned bit for bit: the sha256 of each link's fields and each
    delay pair written as ``float.hex``, one per line.  The digest was taken
    when a route was still searched once per (RU, DU, CU) triple."""

    DEFAULT_DIGEST = "b2ddc836ef476cdca97fc44b487dd1942ad52e081ef8849fed4b27a00534f5a2"

    def test_default_links_and_route_delays(self):
        topo = harness.load_experiment_config(CONFIG_DIR / "default.yaml").topology
        lines = [
            f"{l.src} {l.dst} {l.capacity_gbps.hex()} {l.delay_ms.hex()} {l.weight.hex()}"
            for l in topo.links
        ]
        for ru, du, cu in itertools.product(topo.ru_ids, topo.du_servers, topo.cu_servers):
            fh, mh = topo.route_delays(ru, du, cu)
            lines.append(f"{ru} {du} {cu} {fh.hex()} {mh.hex()}")
        assert len(lines) == 13 + 4 * 4 * 2
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == self.DEFAULT_DIGEST


class TestWaxman:
    WAXMAN = {"waxman": {"n": 14, "alpha": 0.5, "beta": 0.1, "seed": 5,
                         "n_du": 4, "n_cu": 2, "n_ru": 4}}

    def test_deterministic_per_seed(self):
        a = build_topology(self.WAXMAN)
        b = build_topology(self.WAXMAN)
        assert a.links == b.links
        assert (a.fronthaul, a.midhaul, a.backhaul) == (b.fronthaul, b.midhaul, b.backhaul)

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
