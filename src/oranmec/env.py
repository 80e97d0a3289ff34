"""The orchestration MDP: state, multi-dimensional action, cost model, reward.

An episode runs over a demand array of shape ``(slots, n_bs, 1 + C)`` (see
``workload``); ``reset`` passes it to ``ingest``, the one check on demands,
which also clips those above the achievable cell rate, and slot t's state
holds row t.  Pricing trusts these rows and checks no demand again.
A noisy utilization model's noise is episode data too: ``reset`` draws it
once from the episode's noise seed, and pricing draws nothing.
Each slot the operator picks, per BS: a functional split, DU/CU/MEC compute
flavors (discrete reference-core sizes), DU/CU hosting servers and the MEC
hosting side (DU- or CU-colocated).  Routing follows from the placement via
the topology's stored shortest paths, so it is part of the environment, not
of the action.

An action is a row of branch indices, as the agents choose and store it: a
tuple of Python ints, one per branch, BS by BS in ``ActionLayout``'s branch
order, each an index into its branch's value domain.  ``step``,
``compute_costs``, ``State.prev``, ``initial_action`` and
``enumerate_actions`` all take or give rows.  ``Action`` holds the same
choice as values, for people to read: ``ActionLayout.indices_to_action``
decodes a row into one.

The monetary model itemizes, per slot:

  * compute reservation for DU-side and CU-side instances (CU-side capacity
    is cheaper, reflecting central-processing pooling gains),
  * SLA penalties: resource under-provisioning versus the actual platform
    utilization, server capacity overflow, split delay-budget violations and
    missed inelastic MEC deadlines,
  * change overheads: instantiating extra resources, reallocating flavors,
    migrating MEC between sides, and moving instances across servers (soft
    migration: a full new replica is charged at the new location),
  * bandwidth reservation on FH/MH/BH for the split-induced flows.

The reward is the negated total cost minus a weighted delay cost of the
elastic MEC services.  Constraint violations never abort an episode; they
only convert into penalties.

Pricing a slot reads constants built once per env and keyed by index: per
split index its ``CompositeSplit`` and (HLS, LLS) deadlines, per BS and
(DU, CU) index pair the (FH, MH) route delays, and every other branch's
values.  Building them resolves every split and route of the layout, so an
unknown split or an unrouted server raises when the env is built.
``_price_bs`` prices every item but ``sla_server_capacity`` per BS, from
that BS's row, previous row, demand row and noise row alone.
``sla_server_capacity`` is the one term that couples BSs, through the
servers' loads; ``compute_costs`` adds it last.  Every term is added in one
fixed order, so a change either keeps each cost bit for bit or moves the
pinned digests in ``tests/test_env_costs.py``; ``encode_state`` is pinned
there too.
"""
from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, field, fields
from functools import reduce
from operator import add, getitem

import numpy as np

from . import splits as splits_mod
from .splits import DEMAND_CAP_GBPS, SPLITS, get_split
from .topology import Topology
from .workload import UtilizationModel

logger = logging.getLogger("oranmec.env")

DEFAULT_FLAVORS = tuple(range(16))   # reference-core sizes 0..15
ORACLE_LIMIT = 1_000_000    # joint actions that exhaustive enumeration takes at most


class ActionSpaceTooLarge(ValueError):
    """Exhaustive enumeration refused: more than one BS, or a joint space
    above the limit."""


class EpisodeExhausted(RuntimeError):
    """step() called after the terminal slot."""


@dataclass(frozen=True)
class Action:
    """Per-BS control tuple in domain values; every field is indexed by BS.
    The env takes the same choice as a row of branch indices, and
    ``ActionLayout.indices_to_action`` decodes one, as the oracle prints it.

    ``mec_flavor[k][c-1]`` and ``mec_at_cu[k][c-1]`` refer to MEC class c.
    ``mec_at_cu`` is 1 when the class is hosted with the CU, 0 with the DU.
    """

    split: tuple[str, ...]
    du_server: tuple[int, ...]
    cu_server: tuple[int, ...]
    du_flavor: tuple[int, ...]
    cu_flavor: tuple[int, ...]
    mec_flavor: tuple[tuple[int, ...], ...]
    mec_at_cu: tuple[tuple[int, ...], ...]


@dataclass(frozen=True, eq=False)
class State:
    """Observation: current demands plus the configuration left over from
    the previous slot."""

    t: int
    demand: np.ndarray          # (K, 1 + C); the env's states hold rows of its read-only episode
    prev: tuple[int, ...]       # the previous slot's action row


@dataclass
class RewardConfig:
    """Monetary coefficients and delay-model parameters.

    ``delay_weight`` is the relative importance of the elastic delay cost
    and ``delay_slope`` converts delay units into money (the "B" knob of
    the delay-coefficient experiments); the reward is
    ``-(total cost) - delay_weight * delay_slope * (elastic delay)``.
    A MEC class (1-based) is inelastic exactly when ``delay_threshold``
    has a key for it: its delay past that deadline is an SLA penalty.
    Every other class is elastic.
    """

    kappa_dm: float = 0.25     # $ per DU-side reserved RC
    kappa_cm: float = 0.125    # $ per CU-side reserved RC
    kappa_d: float = 5.0       # $ per unit of SLA violation
    kappa_i: float = 0.05      # $ per instantiated RC
    kappa_r: float = 0.05      # $ per reconfigured RC
    kappa_h: float = 1.0       # $ per reserved Gbps of transport
    delay_weight: float = 1.0  # eta
    delay_slope: float = 1.0   # b
    delta1: float = 1.0
    delta2: float = 1.0
    delay_threshold: dict[int, float] = field(default_factory=lambda: {1: 1.0})
    max_delay_ms: float = 1e3  # finite sentinel when a demanded service has no compute

    def __post_init__(self):
        named = {f.name: getattr(self, f.name) for f in fields(self)}
        named.update((f"delay_threshold[{c}]", v) for c, v in named.pop("delay_threshold").items())
        for name, value in named.items():
            if not 0.0 <= value < math.inf:     # NaN fails too
                raise ValueError(f"{name} must be nonnegative and finite, got {value}")


@dataclass
class CostBreakdown:
    """Itemized slot cost.  ``total`` excludes the elastic delay cost, which
    enters the reward separately through its own weight."""

    compute_du_mec: float = 0.0
    compute_cu_mec: float = 0.0
    sla_underprovision: float = 0.0
    sla_server_capacity: float = 0.0
    sla_split_delay: float = 0.0
    sla_inelastic_delay: float = 0.0
    instantiation: float = 0.0
    reconfig_flavor: float = 0.0
    reconfig_mec_migration: float = 0.0
    reconfig_server_migration: float = 0.0
    routing: float = 0.0
    elastic_delay: float = 0.0
    total: float = 0.0
    reward: float = 0.0

    @property
    def penalty_total(self) -> float:
        return (
            self.sla_underprovision + self.sla_server_capacity
            + self.sla_split_delay + self.sla_inelastic_delay
        )

    @property
    def reconfig_total(self) -> float:
        return (
            self.instantiation + self.reconfig_flavor
            + self.reconfig_mec_migration + self.reconfig_server_migration
        )

    def as_dict(self) -> dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


# the priced items, in the order ``total`` adds them: every field before elastic_delay
CostBreakdown._ITEMS = tuple(f.name for f in fields(CostBreakdown))[:-3]


@dataclass(frozen=True)
class ActionLayout:
    """Finite per-BS control domains and their branch decomposition.

    Branch order per BS is: split, DU server, CU server, DU flavor,
    CU flavor, one MEC flavor per class, one MEC side per class.  All
    index/value conversions and the joint-space bookkeeping live here.
    """

    n_bs: int = 1
    splits: tuple[str, ...] = tuple(SPLITS)
    du_servers: tuple[int, ...] = ()
    cu_servers: tuple[int, ...] = ()
    bbu_flavors: tuple[int, ...] = DEFAULT_FLAVORS
    mec_flavors: tuple[tuple[int, ...], ...] = ()   # one tuple per class
    n_services: int = 2
    _domains: tuple[tuple[str, tuple], ...] = field(
        init=False, repr=False, compare=False, default=()
    )

    def __post_init__(self):
        if not self.mec_flavors:
            object.__setattr__(
                self, "mec_flavors", tuple(self.bbu_flavors for _ in range(self.n_services))
            )
        if len(self.mec_flavors) != self.n_services:
            raise ValueError("need one MEC flavor set per service class")
        if not self.du_servers or not self.cu_servers:
            raise ValueError("layout needs at least one DU and one CU server")
        classes = range(1, self.n_services + 1)
        object.__setattr__(self, "_domains", (
            ("split", self.splits),
            ("du_server", self.du_servers),
            ("cu_server", self.cu_servers),
            ("du_flavor", self.bbu_flavors),
            ("cu_flavor", self.bbu_flavors),
            *((f"mec_flavor_{c}", self.mec_flavors[c - 1]) for c in classes),
            *((f"mec_at_cu_{c}", (0, 1)) for c in classes),
        ))

    @classmethod
    def from_topology(cls, topo: Topology, **fields) -> "ActionLayout":
        """The layout over ``topo``'s RUs and servers; ``fields`` sets the rest."""
        return cls(
            n_bs=len(topo.ru_ids), du_servers=topo.du_servers, cu_servers=topo.cu_servers,
            **fields,
        )

    def per_bs_domains(self) -> tuple[tuple[str, tuple], ...]:
        """One BS's ``(branch name, value domain)`` pairs in branch order,
        built once with the layout."""
        return self._domains

    @property
    def branches_per_bs(self) -> int:
        return len(self._domains)

    def branch_sizes(self) -> list[int]:
        return [len(dom) for _, dom in self._domains] * self.n_bs

    def joint_cardinality(self) -> int:
        per_bs = math.prod(len(dom) for _, dom in self._domains)
        return per_bs ** self.n_bs

    def indices_to_action(self, idx) -> Action:
        """The ``Action`` of a row of branch indices."""
        idx, per, n = list(idx), self.branches_per_bs, self.n_services
        if len(idx) != per * self.n_bs:
            raise ValueError(f"expected {per * self.n_bs} indices, got {len(idx)}")
        rows = [[dom[i] for (_, dom), i in zip(self._domains, idx[k * per:(k + 1) * per])]
                for k in range(self.n_bs)]
        return Action(
            *zip(*(row[:5] for row in rows)),
            tuple(tuple(row[5:5 + n]) for row in rows), tuple(tuple(row[5 + n:]) for row in rows),
        )

    def default_initial_indices(self) -> tuple[int, ...]:
        """Start-of-episode configuration as a row: first split, 1-RC flavors
        (or the first available), first servers, MEC with the DUs."""
        row = [dom.index(1) if "flavor" in name and 1 in dom else 0 for name, dom in self._domains]
        return tuple(row * self.n_bs)


def enumerate_actions(layout: ActionLayout, limit: int = ORACLE_LIMIT):
    """Exhaustive, duplicate-free iterator over the joint action space: every
    index row, in the order of ``itertools.product`` over the branches.

    Only supported for single-BS layouts (oracle scale) of at most
    ``limit`` joint actions; anything else is refused here, at the call,
    not at the first ``next()``.
    """
    n = layout.joint_cardinality()
    if layout.n_bs != 1 or n > limit:
        raise ActionSpaceTooLarge(
            f"exhaustive enumeration needs one BS and at most {limit} joint "
            f"actions; got {layout.n_bs} BS and {n} actions"
        )
    return itertools.product(*(range(len(dom)) for _, dom in layout.per_bs_domains()))


class OranMecEnv:
    """One episode-scoped orchestration environment instance.

    Instances are independent; run any number in parallel with disjoint
    seeds.  ``ingest`` alone refuses or clips demands, and pricing trusts
    its rows: a hand-built ``State`` holds a row that ``ingest`` returned.
    ``initial_action``, the configuration before slot 0, is the layout's
    default row.
    """

    def __init__(
        self,
        topo: Topology,
        layout: ActionLayout,
        util_model: UtilizationModel,
        reward_cfg: RewardConfig | None = None,
    ):
        self.topo = topo
        self.layout = layout
        self.util = util_model
        self.reward_cfg = reward_cfg if reward_cfg is not None else RewardConfig()
        if util_model.n_services != layout.n_services:
            raise ValueError("utilization model and layout disagree on the class count")
        if len(topo.ru_ids) != layout.n_bs:
            raise ValueError("layout BS count must match the topology's RU count")
        self._classes = tuple(range(1, layout.n_services + 1))
        stray = [c for c in self.reward_cfg.delay_threshold if c not in self._classes]
        if stray:
            raise ValueError(f"delay_threshold names classes {stray} outside 1..{layout.n_services}")
        self.initial_action = layout.default_initial_indices()
        self._demands: np.ndarray | None = None
        self._noise: list | None = None         # the episode's, per slot, BS and component
        self._no_noise = [[0.0] * (1 + layout.n_services)] * layout.n_bs
        self._state: State | None = None
        self._sizes = tuple(layout.branch_sizes())
        # constants of the cost model, built once and keyed by branch index;
        # an unknown split or server raises its KeyError or TopologyError here
        doms = [dom for _, dom in layout.per_bs_domains()]
        split_rows = [(s, *splits_mod.delay_requirements(s)) for s in map(get_split, doms[0])]
        self._values = (split_rows, *doms[1:5 + layout.n_services])    # all but the MEC sides
        self._route_delays = [
            [[topo.route_delays(ru, du, cu) for cu in layout.cu_servers]
             for du in layout.du_servers]
            for ru in topo.ru_ids
        ]
        self._enc_offsets, self._enc_cols, self._enc_vals, width = _encoding(layout)
        self.state_dim = layout.n_bs * width

    # -- episode control -------------------------------------------------

    def reset(self, episode_demands: np.ndarray, noise_seed: int | None = None) -> State:
        """Start an episode over ``episode_demands``, a ``(slots, n_bs, 1 + C)``
        array; see ``ingest``.

        Under a noisy utilization model this draws the episode's noise, one
        ``normal(0, noise_std)`` call from ``default_rng(noise_seed)`` of the
        demands' shape: slot by slot, BS by BS, the BBU's draw and then
        classes 1..C.  ``compute_costs`` adds row ``state.t``.  A noisy
        model without a ``noise_seed`` raises ValueError; a noise-free one
        draws nothing.
        """
        demands = self.ingest(episode_demands)
        std = self.util.noise_std
        if std == 0.0:
            self._noise = None
        elif noise_seed is None:
            raise ValueError("a noisy utilization model needs a noise_seed to reset")
        else:
            rng = np.random.default_rng(noise_seed)
            self._noise = rng.normal(0.0, std, size=demands.shape).tolist()
        self._demands = demands
        self._state = State(0, demands[0], self.initial_action)
        return self._state

    def ingest(self, episode_demands: np.ndarray) -> np.ndarray:
        """Check an episode's demands in one pass and return them read-only.

        Wrong shapes and negative or NaN demands raise ValueError.  Demands
        above the achievable cell rate, +inf among them, are clipped to it,
        with one warning per episode that counts the slots clipped.
        """
        demands = np.asarray(episode_demands, dtype=np.float64)
        n_bs, width = self.layout.n_bs, 1 + self.layout.n_services
        if demands.ndim != 3 or demands.shape[1:] != (n_bs, width):
            raise ValueError(
                f"episode demands have shape {demands.shape}, expected (slots, {n_bs}, {width})"
            )
        if len(demands) == 0:
            raise ValueError("episode demand sequence must be nonempty")
        valid = demands >= 0        # NaN fails too
        if not valid.all():
            t = int(np.argmin(valid.all(axis=(1, 2))))
            kind = "NaN" if np.isnan(demands[t]).any() else "negative"
            raise ValueError(f"slot {t}: {kind} demand")
        clipped = (demands > DEMAND_CAP_GBPS).any(axis=(1, 2))
        if clipped.any():
            logger.warning(
                "demands clipped to %.1f Gbps in %d of %d slots",
                DEMAND_CAP_GBPS, int(clipped.sum()), len(demands),
            )
            demands = np.minimum(demands, DEMAND_CAP_GBPS)
        demands = demands.view()     # read-only without freezing the caller's array
        demands.setflags(write=False)
        return demands

    @property
    def horizon(self) -> int:
        if self._demands is None:
            raise RuntimeError("reset() the environment first")
        return len(self._demands)

    @property
    def state(self) -> State:
        if self._state is None:
            raise RuntimeError("reset() the environment first")
        return self._state

    def step(self, action) -> tuple[State, float, CostBreakdown, bool]:
        """Take ``action``, one index per branch (a sequence of ints or an
        integer array), and move to the next slot.  A row of the wrong
        length or with an index outside its branch raises ValueError, a
        non-integer entry TypeError."""
        state = self.state
        if state.t >= self.horizon:
            raise EpisodeExhausted(f"episode of {self.horizon} slots is exhausted")
        row = self._checked(action)
        costs = self.compute_costs(state, row)
        terminal = state.t == self.horizon - 1
        next_demand = self._demands[min(state.t + 1, self.horizon - 1)]
        next_state = State(state.t + 1, next_demand, row)
        self._state = next_state
        return next_state, costs.reward, costs, terminal

    def _checked(self, action) -> tuple[int, ...]:
        """``action`` as a row of Python ints, each inside its branch."""
        row = tuple(action.tolist() if isinstance(action, np.ndarray) else action)
        sizes = self._sizes
        if len(row) != len(sizes):
            raise ValueError(f"expected {len(sizes)} branch indices, got {len(row)}")
        for j, (i, n) in enumerate(zip(row, sizes)):
            if type(i) is not int:
                raise TypeError(f"branch {j}: index {i!r} is not an int")
            if not 0 <= i < n:
                raise ValueError(f"branch {j}: index {i} is outside 0..{n - 1}")
        return row

    # -- cost model -------------------------------------------------------

    def compute_costs(self, state: State, action: tuple[int, ...]) -> CostBreakdown:
        """Price one slot: ``action`` taken in ``state``, itemized.

        ``action`` and ``state.prev`` are index rows in the form ``step``
        and ``enumerate_actions`` produce, ``state.demand`` a row ``ingest``
        returned (in a hand-built ``State`` too); none is checked here.
        A noisy env adds row ``state.t`` of the noise its last ``reset``
        drew, so it must be reset first; a noise-free one adds 0.0.
        ``_price_bs`` prices each BS alone.  This adds each of its items
        across BSs in BS order from 0.0, and its delay terms class by class.
        Then it adds ``sla_server_capacity``, the one term that couples BSs,
        over the servers' summed loads in first-appearance order, and the
        total in ``_ITEMS`` order.  The digests in ``tests/test_env_costs.py``
        pin the resulting bits.
        """
        cfg = self.reward_cfg
        if self._noise is None and self.util.noise_std:
            raise RuntimeError("reset() the noisy environment first")
        noise = self._no_noise if self._noise is None else self._noise[state.t]
        demand = state.demand.tolist()      # Python floats, so every item is a float
        per, prev = self.layout.branches_per_bs, state.prev
        own = [0.0] * 9      # _price_bs's items, each summed over BSs
        inelastic_delay = elastic_delay = 0.0
        server_load: dict[int, float] = {}
        for k in range(self.layout.n_bs):
            bs = slice(k * per, (k + 1) * per)
            bs_items, (inelastic, elastic), loads = self._price_bs(
                k, action[bs], prev[bs], demand[k], noise[k]
            )
            own = list(map(add, own, bs_items))
            inelastic_delay = reduce(add, inelastic, inelastic_delay)     # class by class
            elastic_delay = reduce(add, elastic, elastic_delay)
            for server, load in loads:
                server_load[server] = server_load.get(server, 0.0) + load
        server_capacity = 0.0
        for server, load in server_load.items():
            server_capacity += cfg.kappa_d * max(0.0, load - self.topo.capacity_rc[server])
        items = (*own[:3], server_capacity, own[3], inelastic_delay, *own[4:])    # _ITEMS order
        total = sum(items)
        reward = -total - cfg.delay_weight * cfg.delay_slope * elastic_delay
        return CostBreakdown(*items, elastic_delay, total, reward)

    def _price_bs(self, k, row, prev, demand, noise):
        """Price BS ``k`` from its own slices of the slot alone: its index
        row, previous row, demand row (Python floats) and noise row.

        Returns three things.  First its items in ``_ITEMS`` order, less
        ``sla_server_capacity`` and ``sla_inelastic_delay``.  Then its
        per-class delay terms in class order, as (inelastic penalties,
        elastic delays).  Last its (DU host, DU-side RC) and (CU host,
        CU-side RC) loads.  One loop over the classes sums each per-class
        term from int 0 in class order.  A class's delay is routing plus
        processing plus congestion: hosted with the DU the flow stops at the
        fronthaul, hosted with the CU it continues over the midhaul.  A
        demanded class with no compute gets the finite ``max_delay_ms``
        sentinel instead of a division by zero.
        """
        cfg = self.reward_cfg
        util = self.util
        n = self.layout.n_services
        (split, hls_req, lls_req), alpha, beta, x, y, *z = map(getitem, self._values, row)
        _, alpha_p, beta_p, xp, yp, *zp = map(getitem, self._values, prev)
        zeta, zetap = row[5 + n:], prev[5 + n:]     # a MEC side's index is its value
        lam0 = demand[0]
        x_hat, y_hat = util.bbu_utilization(split, lam0, noise[0])
        fh_delay, mh_delay = self._route_delays[k][row[1]][row[2]]
        du_mec = cu_mec = mec_shortfall = grown = resized = migrated = 0
        inelastic, elastic = [], []
        for c, lam, eps, z_c, zp_c, at_cu, at_cu_p in zip(
            self._classes, demand[1:], noise[1:], z, zp, zeta, zetap
        ):
            z_hat = util.mec_utilization(c, lam, eps)
            du_mec += (1 - at_cu) * z_c
            cu_mec += at_cu * z_c
            mec_shortfall += max(0.0, z_hat - z_c)
            grown += max(0.0, z_c - zp_c)
            resized += abs(z_c - zp_c)
            migrated += z_c * abs(at_cu - at_cu_p)
            if lam > 0 and z_c == 0:
                logger.debug(
                    "service with %.3f Gbps demand but no compute; delay set to %.0f",
                    lam, cfg.max_delay_ms,
                )
                delay = cfg.max_delay_ms
            else:
                host = beta if at_cu else alpha
                processing = 0.0 if lam == 0 else cfg.delta1 * lam * self.topo.server_rate[host] / z_c
                congestion = cfg.delta2 * (z_hat / self.topo.capacity_rc[host]) ** 2
                delay = lam * (fh_delay + (mh_delay if at_cu else 0.0)) + processing + congestion
            threshold = cfg.delay_threshold.get(c)
            if threshold is None:
                elastic.append(delay)
            else:
                inelastic.append(cfg.kappa_d * max(0.0, delay - threshold))
        du_side, cu_side = x + du_mec, y + cu_mec
        fh, mh, bh = splits_mod.segment_loads(split, lam0)
        items = (
            cfg.kappa_dm * du_side,
            cfg.kappa_cm * cu_side,
            cfg.kappa_d * (max(0.0, x_hat - x, y_hat - y) + mec_shortfall),
            cfg.kappa_d * max(0.0, fh_delay - lls_req, mh_delay - hls_req),
            cfg.kappa_i * (max(0.0, x - xp) + max(0.0, y - yp) + grown),
            cfg.kappa_r * (abs(x - xp) + abs(y - yp) + resized),
            cfg.kappa_r * migrated,
            cfg.kappa_r * (du_side * (alpha != alpha_p) + cu_side * (beta != beta_p)),
            cfg.kappa_h * (fh + mh + bh),
        )
        return items, (inelastic, elastic), ((alpha, du_side), (beta, cu_side))

    # -- observation encoding ---------------------------------------------

    def encode_state(self, state: State) -> np.ndarray:
        """Flat observation, BS by BS: the demands scaled by the cell-rate
        cap; the previous split, DU server, CU server and each MEC side
        one-hot; then the DU, CU and MEC flavors each divided by its
        ladder's largest value (at least 1)."""
        n_bs = self.layout.n_bs
        vec = np.zeros(self.state_dim)
        vec.reshape(n_bs, -1)[:, :1 + self.layout.n_services] = state.demand / DEMAND_CAP_GBPS
        rows = self._enc_offsets + state.prev
        vec[self._enc_cols[rows]] = self._enc_vals[rows]
        return vec


def _encoding(layout: ActionLayout):
    """``encode_state``'s tables: each branch's first row among the stacked
    sub-actions; per sub-action the column of its one-hot 1 or scaled flavor
    and that value; and the width of one BS's block."""
    n = layout.n_services
    doms = [dom for _, dom in layout.per_bs_domains()]
    cols: list = [None] * len(doms)
    vals: list = [None] * len(doms)
    width = 1 + n                                       # the demands come first
    for j in [0, 1, 2, *range(5 + n, 5 + 2 * n)]:       # one-hot
        cols[j], vals[j] = range(width, width + len(doms[j])), [1.0] * len(doms[j])
        width += len(doms[j])
    for j in range(3, 5 + n):                           # flavors, scaled
        scale = max(max(doms[j]), 1)
        cols[j], vals[j] = [width] * len(doms[j]), [v / scale for v in doms[j]]
        width += 1
    offsets = list(itertools.accumulate(layout.branch_sizes()[:-1], initial=0))
    bs_cols = [c + k * width for k in range(layout.n_bs) for branch in cols for c in branch]
    bs_vals = [v for branch in vals for v in branch] * layout.n_bs
    return np.array(offsets), np.array(bs_cols), np.array(bs_vals), width
