"""Network graph for the O-RAN/MEC cluster and its precomputed routes.

The physical plant is a small graph of radio units, DU/CU hosting servers,
routers and one core gateway (EPC, always node 0).  Links carry a capacity
(Gbps), a propagation delay (ms) and a routing weight; routing minimizes
total weight while deadline checks use delay, which is why the two are
separate fields.

For every (RU, DU server, CU server) combination the constructor stores the
min-weight fronthaul (RU to DU), midhaul (DU to CU) and backhaul (CU to EPC)
paths with their delays, so action evaluation later is one lookup through
``Topology.path_entry``.  Topologies are immutable after construction and
safe to share across workers.
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
class PathEntry:
    """Stored routes for one (RU, DU server, CU server) combination.

    Paths are node-id sequences; a single-node path (DU == CU midhaul) has
    zero delay.  Delays are the sums of the member links' delays.
    """

    fh_path: tuple[int, ...]
    mh_path: tuple[int, ...]
    bh_path: tuple[int, ...]
    fh_delay_ms: float
    mh_delay_ms: float
    bh_delay_ms: float


@dataclass(frozen=True)
class Topology:
    nodes: tuple[Node, ...]
    links: tuple[Link, ...]
    du_servers: tuple[int, ...]
    cu_servers: tuple[int, ...]
    capacity_rc: dict[int, float]
    server_rate: dict[int, float]
    ru_ids: tuple[int, ...]
    paths: dict[tuple[int, int, int], PathEntry] = field(repr=False)

    def path_entry(self, ru: int, du: int, cu: int) -> PathEntry:
        """Stored shortest FH/MH/BH paths for one placement choice."""
        if du not in self.du_servers:
            raise TopologyError(f"node {du} is not a DU server")
        if cu not in self.cu_servers:
            raise TopologyError(f"node {cu} is not a CU server")
        try:
            return self.paths[(ru, du, cu)]
        except KeyError:
            raise RoutingInfeasibleError(
                f"no stored route for RU {ru} via DU {du} / CU {cu}"
            ) from None


def _adjacency(links: tuple[Link, ...]) -> dict[int, list[tuple[int, float, float]]]:
    """Undirected adjacency: node -> [(neighbor, weight, delay)]."""
    adj: dict[int, list[tuple[int, float, float]]] = {}
    for link in links:
        adj.setdefault(link.src, []).append((link.dst, link.weight, link.delay_ms))
        adj.setdefault(link.dst, []).append((link.src, link.weight, link.delay_ms))
    return adj


def _dijkstra(
    adj: dict[int, list[tuple[int, float, float]]], src: int, dst: int
) -> tuple[tuple[int, ...], float, float]:
    """Min-weight path from src to dst with its weight and delay.

    Ties on total weight break toward the lexicographically smallest node
    sequence, which the heap ordering on (weight, path) gives for free.
    """
    if src == dst:
        return (src,), 0.0, 0.0
    heap: list[tuple[float, tuple[int, ...], float]] = [(0.0, (src,), 0.0)]
    settled: set[int] = set()
    while heap:
        weight, path, delay = heappop(heap)
        node = path[-1]
        if node in settled:
            continue
        settled.add(node)
        if node == dst:
            return path, weight, delay
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
    link, deterministically.
    """
    pos = rng.uniform(0.0, 1.0, size=(n, 2))
    d_max = math.sqrt(2.0)
    dist = np.hypot(pos[:, 0:1] - pos[:, 0], pos[:, 1:2] - pos[:, 1])
    edges: set[tuple[int, int]] = set()
    for i in range(n):
        for j in range(i + 1, n):
            if rng.uniform() < alpha * math.exp(-dist[i, j] / (beta * d_max)):
                edges.add((i, j))

    def component(start: int) -> set[int]:
        seen = {start}
        frontier = [start]
        while frontier:
            u = frontier.pop()
            for a, b in edges:
                for v in ((b,) if a == u else (a,) if b == u else ()):
                    if v not in seen:
                        seen.add(v)
                        frontier.append(v)
        return seen

    connected = component(0)
    while len(connected) < n:
        outside = sorted(set(range(n)) - connected)
        best = min(
            ((dist[i, j], i, j) for i in outside for j in sorted(connected)),
            key=lambda t: (t[0], t[1], t[2]),
        )
        edges.add((min(best[1], best[2]), max(best[1], best[2])))
        connected |= component(best[1])
    return sorted(edges)


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
    precomputing all placement routes.  The MEC host of a BS is always its DU
    or CU server."""
    spec = read_section(TopologyConfig, config, "topology")
    if spec.waxman is not None:
        nodes, links, du_servers, cu_servers = _build_waxman(spec.waxman)
    else:
        nodes, links = spec.nodes, spec.links
        du_servers, cu_servers = spec.du_servers, spec.cu_servers

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
    paths: dict[tuple[int, int, int], PathEntry] = {}
    for ru in ru_ids:
        for du in sorted(du_servers):
            try:
                fh_path, _, fh_delay = _dijkstra(adj, ru, du)
            except RoutingInfeasibleError as exc:
                raise TopologyError(f"RU {ru} cannot reach DU server {du}: {exc}") from exc
            for cu in sorted(cu_servers):
                mh_path, _, mh_delay = _dijkstra(adj, du, cu)
                bh_path, _, bh_delay = _dijkstra(adj, cu, EPC_ID)
                paths[(ru, du, cu)] = PathEntry(
                    fh_path, mh_path, bh_path, fh_delay, mh_delay, bh_delay
                )

    return Topology(
        nodes=tuple(nodes),
        links=tuple(links),
        du_servers=tuple(sorted(du_servers)),
        cu_servers=tuple(sorted(cu_servers)),
        capacity_rc=capacity_rc,
        server_rate=server_rate,
        ru_ids=ru_ids,
        paths=paths,
    )
