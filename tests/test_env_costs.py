"""Hand-computed scenarios for the slot cost model.

Every scenario freezes the full itemized breakdown; expected numbers are
derived by hand from the cost definitions (working shown in comments) and
asserted to 1e-12.  The shared topology routes are:

    via DU host 2: FH 0.125 ms, MH 0.0625 ms, BH 0.03125 ms
    via DU host 3: FH 0.5 ms (breaks the 0.25 ms low-layer budget)

Host compute capacities are {2: 20, 3: 4, 4: 100} RC and host 3 processes
2 units per cycle (others 1).  Coefficients are the defaults:
kappa_dm 0.25, kappa_cm 0.125, kappa_d 5, kappa_i = kappa_r = 0.05,
kappa_h 1, delay weight and slope 1, delta1 = delta2 = 1.
"""
import dataclasses
import hashlib

import numpy as np
import pytest
import yaml

from oranmec import harness
from oranmec.env import (
    ActionLayout,
    CostBreakdown,
    OranMecEnv,
    RewardConfig,
    State,
    enumerate_actions,
)
from oranmec.topology import TopologyError, build_topology
from oranmec.workload import UtilizationModel
from tests.conftest import (
    CONFIG_DIR,
    COST_TOPOLOGY,
    chain_config,
    make_cost_env,
    make_toy_env,
    row,
)

APPROX = dict(abs=1e-12)

# single-route variant used by the delay-formula and greedy scenarios
SINGLE_ROUTE_TOPOLOGY = {
    "nodes": [
        {"id": 0, "kind": "epc"},
        {"id": 1, "kind": "ru"},
        {"id": 2, "kind": "du_server"},
        {"id": 4, "kind": "cu_server"},
    ],
    "links": [
        {"src": 1, "dst": 2, "capacity_gbps": 50.0, "delay_ms": 0.125, "weight": 0.01},
        {"src": 2, "dst": 4, "capacity_gbps": 50.0, "delay_ms": 0.0625, "weight": 0.01},
        {"src": 4, "dst": 0, "capacity_gbps": 50.0, "delay_ms": 0.03125, "weight": 0.01},
    ],
    "du_servers": [2],
    "cu_servers": [4],
    "capacity_rc": {2: 20, 4: 100},
}


def act(split="S1", du=2, cu=4, x=0, y=0, z=(0, 0), zeta=(0, 0)):
    """One BS's branch values by name, for ``row``; ``z`` and ``zeta`` hold
    the MEC flavor and side of each class."""
    return dict(
        split=split, du_server=du, cu_server=cu, du_flavor=x, cu_flavor=y,
        **{f"mec_flavor_{c}": v for c, v in enumerate(z, 1)},
        **{f"mec_at_cu_{c}": v for c, v in enumerate(zeta, 1)},
    )


def build_env(
    topology=COST_TOPOLOGY,
    bbu=(0.5, 1.5),
    mec=(0.2, 1.0),
    n_services=2,
    reward=None,
    bbu_flavors=tuple(range(16)),
):
    topo = build_topology(topology)
    layout = ActionLayout.from_topology(
        topo, n_services=n_services, bbu_flavors=bbu_flavors
    )
    util = UtilizationModel(
        bbu_base=bbu[0], bbu_slope=bbu[1], mec_base=mec[0], mec_slope=mec[1],
        n_services=n_services,
    )
    return OranMecEnv(topo, layout, util, reward)


def price(env, demand, prev, action):
    """``compute_costs`` at slot 0 of hand-written ``act`` values, passed as
    the index rows the env takes, on ``demand`` as ``ingest`` returns it."""
    layout = env.layout
    state = State(0, env.ingest([[demand]])[0], row(layout, **prev))
    return env.compute_costs(state, row(layout, **action))


def assert_breakdown(costs, expected):
    got = costs.as_dict()
    for key, val in expected.items():
        assert got[key] == pytest.approx(val, **APPROX), key
    assert costs.total == pytest.approx(
        sum(v for k, v in expected.items()
            if k not in ("total", "reward", "elastic_delay")),
        **APPROX,
    )


class TestHandScenarios:
    def test_sc1_zero_demand_zero_flavors_is_routing_only(self):
        # S1 with no demand: FH carries the constant 10.1, MH/BH nothing.
        env = build_env(bbu=(0.0, 0.0), mec=(0.0, 0.0))
        a = act()
        costs = price(env, (0, 0, 0), a, a)
        assert_breakdown(costs, {
            "compute_du_mec": 0.0, "compute_cu_mec": 0.0,
            "sla_underprovision": 0.0, "sla_server_capacity": 0.0,
            "sla_split_delay": 0.0, "sla_inelastic_delay": 0.0,
            "instantiation": 0.0, "reconfig_flavor": 0.0,
            "reconfig_mec_migration": 0.0, "reconfig_server_migration": 0.0,
            "routing": 10.1, "elastic_delay": 0.0,
            "total": 10.1, "reward": -10.1,
        })

    def test_sc2_underprovision_item(self):
        # BBU total = 0.75 + 1.5*2 = 3.75 -> du 3.0, cu 0.75 under S1 shares.
        # shortfall = max(0, 3-2, 0.75-2) + max(0, 2-1) + max(0, 0-0) = 2
        # item = 5 * 2 = 10
        env = build_env(bbu=(0.75, 1.5), mec=(0.0, 1.0))
        a = act(x=2, y=2, z=(1, 0))
        costs = price(env, (2, 2, 0), a, a)
        assert costs.sla_underprovision == pytest.approx(10.0, **APPROX)
        # inelastic: D = 2*0.125 + 2*1/1 + (2/20)^2 = 2.26 -> 5*(2.26-1)
        assert costs.sla_inelastic_delay == pytest.approx(6.3, **APPROX)
        assert_breakdown(costs, {
            "compute_du_mec": 0.75,       # 0.25*(2 + 1)
            "compute_cu_mec": 0.25,       # 0.125*2
            "sla_underprovision": 10.0,
            "sla_server_capacity": 0.0, "sla_split_delay": 0.0,
            "sla_inelastic_delay": 6.3,
            "instantiation": 0.0, "reconfig_flavor": 0.0,
            "reconfig_mec_migration": 0.0, "reconfig_server_migration": 0.0,
            "routing": 14.1,              # 10.1 + 2 + 2
            "elastic_delay": 0.0,
            "total": 31.4, "reward": -31.4,
        })

    def test_sc3_service_delay_formula(self):
        # one elastic class: demand 1, flavor 2, actual draw 1 RC, host 2
        # (P=20, rate 1), 0.001 ms fronthaul:
        # D = 1*0.001 + 1*(1*1/2) + (1/20)^2 = 0.5035
        topo = dict(SINGLE_ROUTE_TOPOLOGY)
        topo["links"] = [dict(l) for l in SINGLE_ROUTE_TOPOLOGY["links"]]
        topo["links"][0]["delay_ms"] = 0.001
        env = build_env(
            topology=topo, bbu=(0.0, 0.0), mec=(0.0, 1.0), n_services=1,
            reward=RewardConfig(delay_threshold={}),
        )
        a = act(z=(2,), zeta=(0,))
        costs = price(env, (0.0, 1.0), a, a)
        assert costs.elastic_delay == pytest.approx(0.5035, **APPROX)
        assert costs.compute_du_mec == pytest.approx(0.5, **APPROX)
        assert costs.routing == pytest.approx(10.1, **APPROX)
        assert costs.total == pytest.approx(10.6, **APPROX)
        assert costs.reward == pytest.approx(-11.1035, **APPROX)

    def test_sc3b_colocated_du_cu_keeps_fronthaul_delay(self):
        # DU and CU on host 2: the empty midhaul adds no delay, so a CU-side
        # service sees the DU side's D = 1*0.1 + 1*(1*1/2) + (1/20)^2 = 0.6025
        env = build_env(
            topology=chain_config(), bbu=(0.0, 0.0), mec=(0.0, 1.0), n_services=1,
            reward=RewardConfig(delay_threshold={}),
        )
        for at_cu in (0, 1):
            a = act(cu=2, z=(2,), zeta=(at_cu,))
            costs = price(env, (0.0, 1.0), a, a)
            assert costs.elastic_delay == pytest.approx(0.6025, **APPROX)

    def test_sc4_low_layer_deadline_violation(self):
        # DU host 3 sits behind a 0.5 ms fronthaul; S1's low-layer budget is
        # 0.25 ms -> 5 * 0.25 = 1.25
        env = build_env()
        a = act(du=3, x=2, y=1, z=(1, 1))
        costs = price(env, (1, 0, 0), a, a)
        assert costs.sla_split_delay == pytest.approx(1.25, **APPROX)
        assert costs.sla_underprovision == 0.0      # 1.6 <= 2, 0.4 <= 1
        assert costs.sla_server_capacity == 0.0     # load 4 == capacity 4
        # per-service congestion term only: (0.2/4)^2 each
        assert costs.elastic_delay == pytest.approx(0.0025, **APPROX)
        assert costs.routing == pytest.approx(12.1, **APPROX)
        assert costs.total == pytest.approx(14.475, **APPROX)
        assert costs.reward == pytest.approx(-14.4775, **APPROX)

    def test_sc4b_integrated_stack_has_no_midhaul_deadline(self):
        # same placement under S4: the high-layer budget is unbounded, the
        # low-layer violation is unchanged; fronthaul now carries 157.3
        env = build_env()
        a = act(split="S4", du=3, x=2, y=1, z=(1, 1))
        costs = price(env, (1, 0, 0), a, a)
        assert costs.sla_split_delay == pytest.approx(1.25, **APPROX)
        assert costs.routing == pytest.approx(159.3, **APPROX)
        assert costs.sla_underprovision == 0.0      # du draw 2.0 <= 2
        assert costs.reward == pytest.approx(-161.6775, **APPROX)

    def test_sc5_inelastic_deadline_miss(self):
        # class 1 hosted CU-side: D = 1*0.1875 + 1*(1/1) + (1.2/100)^2
        #                           = 1.187644; 5*(D-1) = 0.93822
        env = build_env()
        a = act(x=1, y=1, z=(1, 1), zeta=(1, 0))
        costs = price(env, (0, 1, 0), a, a)
        assert costs.sla_inelastic_delay == pytest.approx(0.93822, **APPROX)
        assert_breakdown(costs, {
            "compute_du_mec": 0.5,        # 0.25*(1 + z2 at DU)
            "compute_cu_mec": 0.25,       # 0.125*(1 + z1 at CU)
            "sla_underprovision": 1.0,    # 5*max(0, 1.2 - 1)
            "sla_server_capacity": 0.0, "sla_split_delay": 0.0,
            "sla_inelastic_delay": 0.93822,
            "instantiation": 0.0, "reconfig_flavor": 0.0,
            "reconfig_mec_migration": 0.0, "reconfig_server_migration": 0.0,
            "routing": 10.1,
            "elastic_delay": 0.0001,      # (0.2/20)^2
            "total": 12.78822, "reward": -12.78832,
        })

    def test_sc6_server_capacity_overflow(self):
        # host 3 carries 3 + 2 + 2 = 7 RC against capacity 4 -> 5*3 = 15
        env = build_env()
        a = act(du=3, x=3, y=0, z=(2, 2))
        costs = price(env, (0, 0, 0), a, a)
        assert costs.sla_server_capacity == pytest.approx(15.0, **APPROX)
        assert costs.sla_split_delay == pytest.approx(1.25, **APPROX)
        assert costs.sla_underprovision == pytest.approx(0.5, **APPROX)  # cu draw 0.1 vs y=0
        assert costs.compute_du_mec == pytest.approx(1.75, **APPROX)
        assert costs.total == pytest.approx(28.6, **APPROX)
        assert costs.reward == pytest.approx(-28.6025, **APPROX)

    def test_sc7_instantiation_and_flavor_reconfig(self):
        # (x,y,z) from (1,1,(1,1)) to (3,0,(2,0)):
        # growth 2+0+1 -> 0.05*3 = 0.15; churn 2+1+1+1 = 5 -> 0.05*5 = 0.25
        env = build_env(bbu=(0.0, 0.0), mec=(0.0, 0.0))
        prev = act(x=1, y=1, z=(1, 1))
        a = act(x=3, y=0, z=(2, 0))
        costs = price(env, (0, 0, 0), prev, a)
        assert costs.instantiation == pytest.approx(0.15, **APPROX)
        assert costs.reconfig_flavor == pytest.approx(0.25, **APPROX)
        assert costs.compute_du_mec == pytest.approx(1.25, **APPROX)
        assert costs.total == pytest.approx(11.75, **APPROX)
        assert costs.reward == pytest.approx(-11.75, **APPROX)

    def test_sc8_mec_migration_charges_new_size(self):
        # class 1 moves DU -> CU carrying 2 RC: 0.05 * 2 = 0.1
        env = build_env(bbu=(0.0, 0.0), mec=(0.0, 0.0))
        prev = act(z=(2, 3), zeta=(0, 1))
        a = act(z=(2, 3), zeta=(1, 1))
        costs = price(env, (0, 0, 0), prev, a)
        assert costs.reconfig_mec_migration == pytest.approx(0.1, **APPROX)
        assert costs.compute_cu_mec == pytest.approx(0.625, **APPROX)  # 0.125*(0+2+3)
        assert costs.compute_du_mec == 0.0
        assert costs.total == pytest.approx(10.825, **APPROX)

    def test_sc9_server_migration_charges_instance_size(self):
        # DU instance of 2 + DU-side MEC of 1 moves host 2 -> 3: 0.05*3
        env = build_env(bbu=(0.0, 0.0), mec=(0.0, 0.0))
        prev = act(du=2, x=2, y=1, z=(1, 1), zeta=(0, 1))
        a = act(du=3, x=2, y=1, z=(1, 1), zeta=(0, 1))
        costs = price(env, (0, 0, 0), prev, a)
        assert costs.reconfig_server_migration == pytest.approx(0.15, **APPROX)
        assert costs.sla_split_delay == pytest.approx(1.25, **APPROX)
        assert costs.total == pytest.approx(12.5, **APPROX)

    def test_sc10_missing_compute_sentinel(self):
        # elastic demand with zero flavor: delay pinned at the 1000 sentinel
        env = build_env()
        a = act(x=1, y=1, z=(1, 0))
        costs = price(env, (0, 0, 1), a, a)
        assert costs.elastic_delay == pytest.approx(1000.0, **APPROX)
        assert costs.sla_underprovision == pytest.approx(6.0, **APPROX)  # 5*1.2
        assert costs.total == pytest.approx(16.725, **APPROX)
        assert costs.reward == pytest.approx(-1016.725, **APPROX)

    def test_sc11_midhaul_load_follows_split(self):
        # S3 at 2 Gbps: FH 10.1, MH 1.02*2 + 0.5 = 2.54, BH 2
        env = build_env(bbu=(0.0, 0.0), mec=(0.0, 0.0))
        a = act(split="S3", x=3, y=2)
        costs = price(env, (2, 0, 0), a, a)
        assert costs.routing == pytest.approx(14.64, **APPROX)
        assert costs.total == pytest.approx(15.64, **APPROX)

    def test_sc12_kitchen_sink_consistency(self):
        env = build_env()
        prev = act(x=1, y=1, z=(1, 1))
        a = act(split="S2", du=3, x=2, y=1, z=(2, 1), zeta=(1, 0))
        costs = price(env, (1.5, 0.5, 0.5), prev, a)
        assert costs.instantiation == pytest.approx(0.1, **APPROX)       # dx=1, dz1=1
        assert costs.reconfig_flavor == pytest.approx(0.1, **APPROX)
        assert costs.reconfig_mec_migration == pytest.approx(0.1, **APPROX)   # 2 RC flips
        assert costs.reconfig_server_migration == pytest.approx(0.15, **APPROX)  # 2 + z2
        items = [
            costs.compute_du_mec, costs.compute_cu_mec, costs.sla_underprovision,
            costs.sla_server_capacity, costs.sla_split_delay,
            costs.sla_inelastic_delay, costs.instantiation, costs.reconfig_flavor,
            costs.reconfig_mec_migration, costs.reconfig_server_migration,
            costs.routing,
        ]
        assert all(v >= 0 for v in items)
        assert costs.total == pytest.approx(sum(items), **APPROX)
        assert costs.reward == pytest.approx(-costs.total - costs.elastic_delay, **APPROX)


class TestDemandCap:
    """Demand above the achievable cell rate is priced as the rate itself, on
    every cost item, because ``ingest`` clips it before any pricing."""

    @pytest.mark.parametrize("above", [(5.0, 0.0, 0.0), (5.0, 6.0, 4.5)])
    def test_demand_above_cap_is_priced_as_the_cap(self, above):
        env = make_cost_env()
        a = env.initial_action
        at_cap = env.compute_costs(State(0, np.minimum([above], 4.0), a), a)
        clipped = env.compute_costs(State(0, env.ingest([[above]])[0], a), a)
        assert clipped.as_dict() == at_cap.as_dict()

    def test_legacy_five_gbps_prices_routing_and_underprovision_at_four(self):
        env = make_cost_env()
        a = env.initial_action
        costs = env.compute_costs(State(0, env.ingest([[[5.0, 0.0, 0.0]]])[0], a), a)
        assert costs.routing == pytest.approx(18.1, **APPROX)
        assert costs.sla_underprovision == pytest.approx(21.0, **APPROX)


class TestCostProperties:
    def _random_action(self, layout, rng):
        return tuple(int(rng.integers(n)) for n in layout.branch_sizes())

    def test_items_nonnegative_and_reward_nonpositive(self, rng):
        env = build_env()
        for _ in range(200):
            prev = self._random_action(env.layout, rng)
            a = self._random_action(env.layout, rng)
            demand = rng.uniform(0, 4, size=3)
            costs = env.compute_costs(State(0, demand[None, :], prev), a)
            assert all(v >= 0 for v in costs.as_dict().values() if v is not costs.reward)
            assert costs.reward <= 0

    def test_unchanged_action_has_no_change_costs(self, rng):
        env = build_env()
        for _ in range(100):
            a = self._random_action(env.layout, rng)
            demand = rng.uniform(0, 4, size=3)
            costs = env.compute_costs(State(0, demand[None, :], a), a)
            assert costs.instantiation == 0.0
            assert costs.reconfig_flavor == 0.0
            assert costs.reconfig_mec_migration == 0.0
            assert costs.reconfig_server_migration == 0.0

    def test_penalties_zero_when_well_provisioned(self):
        env = build_env()
        a = act(x=4, y=2, z=(2, 2))       # draws: 1.6/0.4 BBU, 1.2 MEC
        costs = price(env, (1, 1, 1), a, a)
        assert costs.penalty_total == 0.0

    def test_service_delay_monotone_in_flavor(self):
        env = build_env()
        delays = []
        for z in range(1, 6):
            a = act(x=2, y=1, z=(1, z))
            costs = price(env, (0, 0, 2), a, a)
            delays.append(costs.elastic_delay)
        assert all(a >= b for a, b in zip(delays, delays[1:]))

    def test_service_delay_monotone_in_demand(self):
        env = build_env()
        a = act(x=2, y=1, z=(1, 2))
        delays = [
            price(env, (0, 0, lam), a, a).elastic_delay
            for lam in np.linspace(0.1, 4.0, 8)
        ]
        assert all(a <= b for a, b in zip(delays, delays[1:]))


class TestUnknownChoices:
    """A layout split or server outside the catalogue or the topology raises
    as ``get_split`` and ``Topology.route_delays`` do, when the env is built."""

    @pytest.mark.parametrize("fields, error, text", [
        (dict(splits=("S1", "S9")), KeyError, "unknown split 'S9'"),
        (dict(du_servers=(2, 7)), TopologyError, "node 7 is not a DU server"),
        (dict(cu_servers=(4, 2)), TopologyError, "node 2 is not a CU server"),
    ], ids=["split", "du", "cu"])
    def test_raises_the_catalogue_error(self, fields, error, text):
        layout = ActionLayout(**{"du_servers": (2, 3), "cu_servers": (4,), **fields})
        with pytest.raises(error, match=text):
            OranMecEnv(build_topology(COST_TOPOLOGY), layout, UtilizationModel())


class TestGreedyOneStepOracle:
    """Exhaustive one-step argmax versus hand-computed optima."""

    def _build(self, bbu, mec):
        topo = build_topology(SINGLE_ROUTE_TOPOLOGY)
        layout = ActionLayout.from_topology(
            topo, n_services=1, bbu_flavors=(0, 1, 2, 3)
        )
        util = UtilizationModel(
            bbu_base=bbu[0], bbu_slope=bbu[1], mec_base=mec[0], mec_slope=mec[1],
            n_services=1,
        )
        return OranMecEnv(topo, layout, util, RewardConfig(delay_threshold={}))

    def _best(self, env, prev, demand):
        """The best row after ``prev``'s ``act`` values, and its reward."""
        state = State(0, np.asarray([demand], dtype=float), row(env.layout, **prev))
        best_action, best_reward = None, -np.inf
        for a in enumerate_actions(env.layout):
            r = env.compute_costs(state, a).reward
            if r > best_reward:
                best_action, best_reward = a, r
        return best_action, best_reward

    def test_idle_network_drops_all_flavors(self):
        # keeping the 1-RC instances costs 0.625/slot; releasing them costs
        # a one-off 0.05*3 churn -> release everything, keep the cheap split
        prev = act(x=1, y=1, z=(1,), zeta=(0,))
        env = self._build((0.0, 0.0), (0.0, 0.0))
        best, reward = self._best(env, prev, (0.0, 0.0))
        assert best == row(env.layout, **act(z=(0,), zeta=(0,)))
        assert reward == pytest.approx(-10.25, **APPROX)

    def test_loaded_bs_scales_up_and_centralizes_mec(self):
        # BBU draw 3.5 (du 2.8 / cu 0.7 under S1) forces x=3, y=1; the MEC
        # service is cheapest at the CU with 2 RC:
        #   J = 0.75 + 0.375 + 14.1 + 0.05 + 0.05 + 0.1 = 15.425
        #   D = 0.1875 + 0.5 + 0.0001 -> reward -16.1126
        prev = act(x=3, y=1, z=(1,), zeta=(0,))
        env = self._build((0.5, 1.5), (0.0, 1.0))
        best, reward = self._best(env, prev, (2.0, 1.0))
        assert best == row(env.layout, **act(x=3, y=1, z=(2,), zeta=(1,)))
        assert reward == pytest.approx(-16.1126, **APPROX)

    def test_mec_only_load_migrates_to_cu(self):
        # moving the 2-RC service to the cheaper CU host pays off even with
        # the migration charge: reward -11.1376 vs -11.2275 for staying
        prev = act(z=(2,), zeta=(0,))
        env = self._build((0.0, 0.0), (0.0, 1.0))
        best, reward = self._best(env, prev, (0.0, 1.0))
        assert best == row(env.layout, **act(z=(2,), zeta=(1,)))
        assert reward == pytest.approx(-11.1376, **APPROX)


class TestInelasticClasses:
    """A class is inelastic exactly when ``delay_threshold`` has a key for
    it: naming class 2 moves its delay from ``elastic_delay`` into
    ``sla_inelastic_delay``, naming none leaves both classes elastic, and no
    other item moves."""

    def test_threshold_keys_choose_the_inelastic_classes(self, rng):
        envs = {
            name: make_cost_env(reward=RewardConfig(delay_threshold=thresholds))
            for name, thresholds in [
                ("none", {}), ("first", {1: 1.0}), ("second", {2: 1.0}), ("both", {1: 1.0, 2: 0.5}),
            ]
        }
        sizes = envs["none"].layout.branch_sizes()
        missed = 0
        for _ in range(50):
            demand = envs["none"].ingest(rng.uniform(0.0, 4.0, size=(1, 1, 3)))[0]
            prev, action = (tuple(int(rng.integers(n)) for n in sizes) for _ in range(2))
            costs = {name: env.compute_costs(State(0, demand, prev), action)
                     for name, env in envs.items()}
            d1, d2 = costs["second"].elastic_delay, costs["first"].elastic_delay
            assert costs["none"].sla_inelastic_delay == 0.0
            assert costs["none"].elastic_delay == d1 + d2
            assert costs["both"].elastic_delay == 0.0
            assert costs["both"].sla_inelastic_delay == \
                costs["first"].sla_inelastic_delay + 5.0 * max(0.0, d2 - 0.5)
            for item in CostBreakdown._ITEMS:
                if item != "sla_inelastic_delay":
                    assert len({getattr(c, item) for c in costs.values()}) == 1, item
            missed += d2 > 0.5
        assert missed >= 10     # class 2's deadline is missed often enough to tell


class TestCostTypes:
    """Every ``CostBreakdown`` field is a Python float, as annotated: numpy
    scalars leaking out of the demand array would be written to the metric
    files as ``np.float64(...)`` text."""

    @pytest.mark.parametrize("make_env", [make_cost_env, make_toy_env])
    def test_every_field_is_a_python_float(self, make_env, rng):
        env = make_env()
        lay = env.layout
        shape = (lay.n_bs, 1 + lay.n_services)

        def random_action():
            return tuple(int(rng.integers(n)) for n in lay.branch_sizes())

        for _ in range(50):
            demand = rng.uniform(0.0, 4.0, size=shape)
            costs = env.compute_costs(State(0, demand, random_action()), random_action())
            for name, value in costs.as_dict().items():
                assert type(value) is float, (name, type(value))


class TestCostDigest:
    """The cost model pinned bit for bit: the sha256 of every ``CostBreakdown``
    field written as ``float.hex``, one per line, over a fixed set of
    pricings.  The ``approx`` checks above would pass a reordered sum; this
    fails on one moved last bit.  The digests were taken from the cost model
    before it priced from per-env tables; the three-class one from the model
    before it priced each BS in its own call."""

    TOY_DIGEST = "ab3ef2664cd9795430046daa09d43311d07eeb1b8594d0ee953443c653388037"
    DEFAULT_DIGEST = "5a18de827ab49d51059850500e1914df58ef082b0061d13dd44abfa7732e3aee"
    THREE_CLASS_DIGEST = "2904874e59d39fc6aadb29d88b8fcf9ee819d624d0ffcb7c90be980b5576d629"

    @staticmethod
    def _digest(breakdowns) -> str:
        lines = (float.hex(v) for c in breakdowns for v in c.as_dict().values())
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()

    @staticmethod
    def _env_and_demands(name):
        cfg = harness.load_experiment_config(CONFIG_DIR / name)
        env = harness.build_env(cfg)
        return env, env.ingest(harness.make_demand_provider(cfg, cfg.seeds[0])(0))

    def test_every_toy_action_at_slot_zero_and_the_steady_slot(self):
        env, demands = self._env_and_demands("toy.yaml")
        first = State(0, demands[0], env.initial_action)
        costs = []
        for a in enumerate_actions(env.layout):
            costs.append(env.compute_costs(first, a))
            costs.append(env.compute_costs(State(1, demands[1], a), a))
        assert len(costs) == 2 * 8192
        assert self._digest(costs) == self.TOY_DIGEST

    def test_random_default_slots_and_actions(self):
        env, demands = self._env_and_demands("default.yaml")
        sizes = env.layout.branch_sizes()
        rng = np.random.default_rng(2312)
        costs = []
        for _ in range(300):
            t = int(rng.integers(len(demands)))
            prev = tuple(rng.integers(sizes).tolist())
            action = tuple(rng.integers(sizes).tolist())
            costs.append(env.compute_costs(State(t, demands[t], prev), action))
        assert self._digest(costs) == self.DEFAULT_DIGEST

    def test_random_default_slots_three_classes(self):
        # classes 2 and 3 are both elastic, so each BS adds two delays to
        # ``elastic_delay``: this pins the order in which they fold across
        # BSs, which the two-class configs cannot tell apart
        cfg = harness.load_experiment_config(CONFIG_DIR / "default.yaml")
        cfg = dataclasses.replace(cfg, n_services=3, reward=RewardConfig(delay_threshold={1: 1.0}))
        env = harness.build_env(cfg)
        demands = env.ingest(harness.make_demand_provider(cfg, cfg.seeds[0])(0))
        sizes = env.layout.branch_sizes()
        rng = np.random.default_rng(2312)
        costs = []
        for _ in range(300):
            t = int(rng.integers(len(demands)))
            prev = tuple(rng.integers(sizes).tolist())
            action = tuple(rng.integers(sizes).tolist())
            costs.append(env.compute_costs(State(t, demands[t], prev), action))
        assert self._digest(costs) == self.THREE_CLASS_DIGEST


class TestClippedCostDigest:
    """Demands above the cell-rate cap priced through ``ingest``, the only
    place that clips them: ``TestCostDigest``'s sha256 over 300 seeded random
    (slot, previous action, action) triples on 1.5 times ``default.yaml``'s
    demands, where 139 of the 144 slots hold a clipped cell.  The digest was
    taken from the cost model that clipped each row again while pricing."""

    DIGEST = "69d9df7c54594fb34c31691c82fc0c77a771000a872782cddc3ad95fe807395a"

    def test_random_default_slots_on_clipped_demands(self):
        env, demands = TestCostDigest._env_and_demands("default.yaml")
        demands = env.ingest(1.5 * demands)
        assert int((demands == 4.0).any(axis=(1, 2)).sum()) == 139
        sizes = env.layout.branch_sizes()
        rng = np.random.default_rng(24)
        costs = []
        for _ in range(300):
            t = int(rng.integers(len(demands)))
            prev = tuple(rng.integers(sizes).tolist())
            action = tuple(rng.integers(sizes).tolist())
            costs.append(env.compute_costs(State(t, demands[t], prev), action))
        assert TestCostDigest._digest(costs) == self.DIGEST


class TestNoisyCostDigest:
    """Pricing under utilization noise pinned bit for bit: the sha256 of the
    slot rewards, written as ``float.hex``, of one seeded episode of random
    rows stepped through each shipped config with ``noise_std`` 0.3, and the
    best of the noisy 3-slot toy oracle.  The digests were taken from the
    model that drew its noise from a private stream while pricing."""

    TOY_DIGEST = "2fb11824baed5ec6246d3b902b5bba6d0e354c962b0536f0edf67d69b55948db"
    DEFAULT_DIGEST = "2c0e18034cc6785cce72dfc65fc009d9313e163ab302058f2b85edac28444823"
    ORACLE = (
        "(Action(split=('S1',), du_server=(2,), cu_server=(4,), du_flavor=(1,), cu_flavor=(1,), "
        "mec_flavor=((1, 3),), mec_at_cu=((1, 1),)), -22.66170955468444)"
    )

    @staticmethod
    def _config(tmp_path, name, utilization, **changes):
        raw = yaml.safe_load((CONFIG_DIR / name).read_text())
        raw.update(changes, utilization={**raw["utilization"], **utilization})
        path = tmp_path / name
        path.write_text(yaml.safe_dump(raw))
        return harness.load_experiment_config(path)

    @pytest.mark.parametrize("name, digest", [
        ("toy.yaml", TOY_DIGEST), ("default.yaml", DEFAULT_DIGEST),
    ], ids=["toy", "default"])
    def test_an_episode_of_random_rows(self, tmp_path, name, digest):
        cfg = self._config(tmp_path, name, {"noise_std": 0.3})
        env = harness.build_env(cfg)
        demands = harness.make_demand_provider(cfg, cfg.seeds[0])(0)
        env.reset(demands, noise_seed=2312)
        sizes = env.layout.branch_sizes()
        rng = np.random.default_rng(16142)
        rewards = [env.step(tuple(rng.integers(sizes).tolist()))[1] for _ in demands]
        assert hashlib.sha256("\n".join(map(float.hex, rewards)).encode()).hexdigest() == digest

    def test_the_noisy_toy_oracle(self, tmp_path):
        cfg = self._config(tmp_path, "toy.yaml", {"noise_std": 0.3}, episode_slots=3)
        best = harness.run_oracle(cfg)
        assert repr((best.action, best.mean_reward)) == self.ORACLE


class TestEncodeDigest:
    """``encode_state`` pinned bit for bit: the sha256 of the encoded bytes
    over seeded random (slot, previous action) pairs, on both shipped
    configs.  The digests were taken from the encoder that walked each BS's
    ``Action`` fields, before it read index rows through tables."""

    TOY_DIGEST = "19c9fb2ad901dbf259cc265a305730f7c7df32d78c9960346fa2576cbe7a6c06"
    DEFAULT_DIGEST = "8409db4d0eabf1429e4b8a673b6fe06eeed2d591636e1166ce89e03fd2156887"

    @pytest.mark.parametrize("name, digest", [
        ("toy.yaml", TOY_DIGEST), ("default.yaml", DEFAULT_DIGEST),
    ], ids=["toy", "default"])
    def test_random_slots_and_previous_actions(self, name, digest):
        env, demands = TestCostDigest._env_and_demands(name)
        sizes = env.layout.branch_sizes()
        rng = np.random.default_rng(16142)
        h = hashlib.sha256()
        for _ in range(2000):
            t = int(rng.integers(len(demands)))
            prev = tuple(rng.integers(sizes).tolist())
            h.update(env.encode_state(State(t, demands[t], prev)).tobytes())
        assert h.hexdigest() == digest
