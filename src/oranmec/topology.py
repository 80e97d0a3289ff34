"""Network graph for the O-RAN/MEC cluster and its precomputed routes.

The physical plant is a small graph of radio units, DU/CU hosting servers,
routers and one core gateway (EPC, always node 0).  Links carry a capacity
(Gbps), a propagation delay (ms) and a routing weight; routing minimizes
total weight while deadline checks use delay, which is why the two are
separate fields.

A route belongs to one segment, and the constructor searches each once: the
min-weight fronthaul per (RU, DU host) pair, midhaul per (DU host, CU host)
pair and backhaul per CU host (to the EPC), each stored as a ``Route`` with
its delay.  A placement choice (RU, DU host, CU host) reads its fronthaul and
midhaul delays through ``Topology.route_delays``.  Topologies are immutable
after construction and safe to share across workers.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from enum import Enum
from heapq import heappop, heappush

import numpy as np

from .config import read_section

logger = logging.getLogger("oranmec.topology")

EPC_ID = 0

#: Link attribute ranges used by the synthetic (Waxman) generator:
#: delay 0..0.1 ms, capacity 30..160 Gbps, weight 0..0.1.
WAXMAN_DELAY_RANGE_MS = (0.0, 0.1)
WAXMAN_CAPACITY_RANGE_GBPS = (30.0, 160.0)
WAXMAN_WEIGHT_RANGE = (0.0, 0.1)

#: Default server compute capacities (reference cores): far-edge DU hosts
#: are small, centralized CU hosts are large.
DEFAULT_DU_CAPACITY_RC = 20.0
DEFAULT_CU_CAPACITY_RC = 100.0
DEFAULT_SERVER_RATE = 1.0


class TopologyError(ValueError):
    """Invalid or unusable topology description."""


class RoutingInfeasibleError(TopologyError):
    """No path exists between two endpoints that must be connected."""


class NodeKind(str, Enum):
    RU = "ru"
    DU_SERVER = "du_server"
    CU_SERVER = "cu_server"
    ROUTER = "router"
    EPC = "epc"


@dataclass(frozen=True)
class Node:
    id: int
    kind: NodeKind


@dataclass(frozen=True)
class Link:
    src: int
    dst: int
    capacity_gbps: float
    delay_ms: float
    weight: float | None = None     # None: the delay

    def __post_init__(self):
        if self.weight is None:
            object.__setattr__(self, "weight", self.delay_ms)


@dataclass(frozen=True)
class Route:
    """A min-weight route: its node-id sequence and the sum of its links'
    delays.  A single-node route (DU and CU on one host) has zero delay."""

    path: tuple[int, ...]
    delay_ms: float


@dataclass(frozen=True)
class Topology:
    nodes: tuple[Node, ...]
    links: tuple[Link, ...]
    du_servers: tuple[int, ...]
    cu_servers: tuple[int, ...]
    capacity_rc: dict[int, float]
    server_rate: dict[int, float]
    ru_ids: tuple[int, ...]
    fronthaul: dict[tuple[int, int], Route] = field(repr=False)     # (RU, DU host)
    midhaul: dict[tuple[int, int], Route] = field(repr=False)       # (DU host, CU host)
    backhaul: dict[int, Route] = field(repr=False)                  # CU host to the EPC

    def route_delays(self, ru: int, du: int, cu: int) -> tuple[float, float]:
        """Fronthaul and midhaul delays (ms) of one placement choice."""
        if du not in self.du_servers:
            raise TopologyError(f"node {du} is not a DU server")
        if cu not in self.cu_servers:
            raise TopologyError(f"node {cu} is not a CU server")
        if ru not in self.ru_ids:
            raise TopologyError(f"node {ru} is not an RU")
        return self.fronthaul[(ru, du)].delay_ms, self.midhaul[(du, cu)].delay_ms


def _adjacency(links: tuple[Link, ...]) -> dict[int, list[tuple[int, float, float]]]:
    """Undirected adjacency: node -> [(neighbor, weight, delay)]."""
    adj: dict[int, list[tuple[int, float, float]]] = {}
    for link in links:
        adj.setdefault(link.src, []).append((link.dst, link.weight, link.delay_ms))
        adj.setdefault(link.dst, []).append((link.src, link.weight, link.delay_ms))
    return adj


def _dijkstra(adj: dict[int, list[tuple[int, float, float]]], src: int, dst: int) -> Route:
    """Min-weight route from src to dst.

    Ties on total weight break toward the lexicographically smallest node
    sequence, which the heap ordering on (weight, path) gives for free.
    """
    heap: list[tuple[float, tuple[int, ...], float]] = [(0.0, (src,), 0.0)]
    settled: set[int] = set()
    while heap:
        weight, path, delay = heappop(heap)
        node = path[-1]
        if node in settled:
            continue
        settled.add(node)
        if node == dst:
            return Route(path, delay)
        for nbr, w, d in adj.get(node, ()):
            if nbr not in settled:
                heappush(heap, (weight + w, path + (nbr,), delay + d))
    raise RoutingInfeasibleError(f"no path from node {src} to node {dst}")


def _validate(
    nodes: list[Node],
    links: list[Link],
    du_servers: list[int],
    cu_servers: list[int],
    capacity_rc: dict[int, float],
    server_rate: dict[int, float],
) -> None:
    """Raise ``TopologyError`` on a topology the cost model cannot use,
    naming the node, link or server; every number must be finite."""
    ids = [n.id for n in nodes]
    if len(set(ids)) != len(ids):
        raise TopologyError("duplicate node ids")
    id_set = set(ids)
    epcs = [n.id for n in nodes if n.kind is NodeKind.EPC]
    if epcs != [EPC_ID]:
        raise TopologyError(f"exactly one EPC with id {EPC_ID} required, got {epcs}")
    for link in links:
        if link.src not in id_set or link.dst not in id_set:
            raise TopologyError(f"link {link.src}-{link.dst} references unknown node")
        if not 0 < link.capacity_gbps < math.inf:
            raise TopologyError(
                f"link {link.src}-{link.dst} capacity must be > 0 and finite, got {link.capacity_gbps}"
            )
        if not (0 <= link.delay_ms < math.inf and 0 <= link.weight < math.inf):
            raise TopologyError(
                f"link {link.src}-{link.dst} needs a finite nonnegative delay and weight, "
                f"got {link.delay_ms} and {link.weight}"
            )
    for s in set(du_servers) | set(cu_servers):
        if s not in id_set:
            raise TopologyError(f"server {s} is not a node")
        if not 0 < capacity_rc[s] < math.inf:
            raise TopologyError(f"server {s} needs a positive finite capacity, got {capacity_rc[s]}")
        if not 0 <= server_rate[s] < math.inf:
            raise TopologyError(f"server {s} needs a nonnegative finite rate, got {server_rate[s]}")


def _waxman_links(
    n: int, alpha: float, beta: float, rng: np.random.Generator
) -> list[tuple[int, int]]:
    """Random geometric edge set: nodes uniform in the unit square, edge
    probability alpha * exp(-d / (beta * d_max)).

    The raw model can leave components disconnected (it usually does for
    strong distance control); each stranded component is then attached to
    the growing connected part by its geometrically shortest candidate
    link, deterministically; one union-find tracks the components.
    """
    pos = rng.uniform(0.0, 1.0, size=(n, 2))
    d_max = math.sqrt(2.0)
    dist = np.hypot(pos[:, 0:1] - pos[:, 0], pos[:, 1:2] - pos[:, 1])
    edges: set[tuple[int, int]] = set()
    for i in range(n):
        for j in range(i + 1, n):
            if rng.uniform() < alpha * math.exp(-dist[i, j] / (beta * d_max)):
                edges.add((i, j))

    parent = list(range(n))

    def root(u: int) -> int:
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    for i, j in edges:
        parent[root(i)] = root(j)
    while True:
        hub = root(0)
        outside = [i for i in range(n) if root(i) != hub]
        if not outside:
            return sorted(edges)
        connected = [j for j in range(n) if root(j) == hub]
        _, i, j = min((dist[i, j], i, j) for i in outside for j in connected)
        edges.add((min(i, j), max(i, j)))
        parent[root(i)] = hub


@dataclass(frozen=True)
class Waxman:
    """Keys of ``waxman:``, a synthetic graph of ``n`` nodes: the EPC, then
    DU, CU and RU nodes, routers after, linked by the Waxman model."""

    seed: int
    n: int = 15
    alpha: float = 0.5
    beta: float = 0.1
    n_du: int = 4
    n_cu: int = 2
    n_ru: int = 4

    def __post_init__(self):
        if self.seed < 0:
            raise TopologyError(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True)
class TopologyConfig:
    """Keys of a topology: an explicit graph or ``waxman``."""

    nodes: tuple[Node, ...] = ()
    links: tuple[Link, ...] = ()
    du_servers: tuple[int, ...] = ()
    cu_servers: tuple[int, ...] = ()
    capacity_rc: dict[int, float] = field(default_factory=dict)     # per-server overrides
    server_rate: dict[int, float] = field(default_factory=dict)
    waxman: Waxman | None = None


def _build_waxman(w: Waxman) -> tuple[list[Node], list[Link], list[int], list[int]]:
    n, n_du, n_cu, n_ru = w.n, w.n_du, w.n_cu, w.n_ru
    if n < 1 + n_du + n_cu + n_ru:
        raise TopologyError(
            f"waxman n={n} too small for 1 EPC + {n_du} DU + {n_cu} CU + {n_ru} RU"
        )

    du = list(range(1, 1 + n_du))
    cu = list(range(1 + n_du, 1 + n_du + n_cu))
    ru = list(range(1 + n_du + n_cu, 1 + n_du + n_cu + n_ru))
    kinds = {EPC_ID: NodeKind.EPC, **dict.fromkeys(du, NodeKind.DU_SERVER),
             **dict.fromkeys(cu, NodeKind.CU_SERVER), **dict.fromkeys(ru, NodeKind.RU)}
    nodes = [Node(i, kinds.get(i, NodeKind.ROUTER)) for i in range(n)]

    rng = np.random.default_rng(w.seed)
    edges = _waxman_links(n, w.alpha, w.beta, rng)
    links = []
    for u, v in edges:
        delay = float(rng.uniform(*WAXMAN_DELAY_RANGE_MS))
        cap = float(rng.uniform(*WAXMAN_CAPACITY_RANGE_GBPS))
        weight = float(rng.uniform(*WAXMAN_WEIGHT_RANGE))
        links.append(Link(u, v, cap, delay, weight))
    return nodes, links, du, cu


def build_topology(config: dict) -> Topology:
    """Build and validate a topology from the keys of ``TopologyConfig``,
    searching each fronthaul, midhaul and backhaul route once.  The MEC host
    of a BS is always its DU or CU server."""
    spec = read_section(TopologyConfig, config, "topology")
    if spec.waxman is not None:
        nodes, links, du_servers, cu_servers = _build_waxman(spec.waxman)
    else:
        nodes, links = spec.nodes, spec.links
        du_servers, cu_servers = spec.du_servers, spec.cu_servers
    for kind, servers in (("du", du_servers), ("cu", cu_servers)):
        if not servers:     # the action places each BS's DU and CU on a server
            key = f"waxman.n_{kind}" if spec.waxman is not None else f"{kind}_servers"
            raise TopologyError(f"topology.{key} leaves no {kind.upper()} server; each BS needs one")

    capacity_rc = {     # a host of both a DU and a CU is sized as a DU host
        **dict.fromkeys(cu_servers, DEFAULT_CU_CAPACITY_RC),
        **dict.fromkeys(du_servers, DEFAULT_DU_CAPACITY_RC),
        **spec.capacity_rc,
    }
    servers = {*du_servers, *cu_servers}
    server_rate = {**dict.fromkeys(servers, DEFAULT_SERVER_RATE), **spec.server_rate}

    _validate(nodes, links, du_servers, cu_servers, capacity_rc, server_rate)

    ru_ids = tuple(sorted(n.id for n in nodes if n.kind is NodeKind.RU))
    if not ru_ids:
        raise TopologyError("topology has no RUs")

    adj = _adjacency(tuple(links))
    du_servers, cu_servers = tuple(sorted(du_servers)), tuple(sorted(cu_servers))
    fronthaul = {}
    for ru in ru_ids:
        for du in du_servers:
            try:
                fronthaul[(ru, du)] = _dijkstra(adj, ru, du)
            except RoutingInfeasibleError as exc:
                raise TopologyError(f"RU {ru} cannot reach DU server {du}: {exc}") from exc

    return Topology(
        nodes=tuple(nodes),
        links=tuple(links),
        du_servers=du_servers,
        cu_servers=cu_servers,
        capacity_rc=capacity_rc,
        server_rate=server_rate,
        ru_ids=ru_ids,
        fronthaul=fronthaul,
        midhaul={(du, cu): _dijkstra(adj, du, cu) for du in du_servers for cu in cu_servers},
        backhaul={cu: _dijkstra(adj, cu, EPC_ID) for cu in cu_servers},
    )
