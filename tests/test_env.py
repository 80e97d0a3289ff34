import itertools
import logging

import numpy as np
import pytest

from oranmec.env import (
    Action,
    ActionLayout,
    ActionSpaceTooLarge,
    EpisodeExhausted,
    OranMecEnv,
    RewardConfig,
    State,
    enumerate_actions,
)
from oranmec.topology import build_topology
from oranmec.workload import UtilizationModel, constant_demands
from tests.conftest import COST_TOPOLOGY, make_cost_env


@pytest.fixture
def env():
    return make_cost_env()


@pytest.fixture
def demands():
    return constant_demands(4, 1, 1.0, [0.5, 0.5])


class TestClassCount:
    """The env refuses a utilization model whose class count differs from its
    layout's, or a delay threshold for a class the layout lacks; pricing
    indexes both by class unchecked."""

    @pytest.fixture
    def topo_and_layout(self):
        topo = build_topology(COST_TOPOLOGY)
        return topo, ActionLayout.from_topology(topo, n_services=2)

    @pytest.mark.parametrize("n_services", [1, 3])
    def test_utilization_model_refused(self, topo_and_layout, n_services):
        with pytest.raises(ValueError, match="utilization model and layout disagree"):
            OranMecEnv(*topo_and_layout, UtilizationModel(n_services=n_services))

    @pytest.mark.parametrize("cls", [0, 3], ids=["zero", "three"])
    def test_threshold_outside_classes_refused(self, topo_and_layout, cls):
        reward = RewardConfig(delay_threshold={1: 1.0, cls: 1.0})
        with pytest.raises(ValueError, match=rf"classes \[{cls}\] outside 1\.\.2"):
            OranMecEnv(*topo_and_layout, UtilizationModel(n_services=2), reward)


class TestReset:
    def test_identical_resets(self, env, demands):
        a, b = env.reset(demands), env.reset(demands)
        assert (a.t, a.prev, a.demand.tobytes()) == (b.t, b.prev, b.demand.tobytes())

    def test_previous_fields_hold_initial_action(self, env, demands):
        state = env.reset(demands)
        assert state.prev == env.initial_action
        prev = env.layout.indices_to_action(state.prev)
        assert prev.split == ("S1",)
        assert prev.du_flavor == (1,)
        assert prev.mec_at_cu == ((0, 0),)

    def test_demand_block_shape(self, env, demands):
        state = env.reset(demands)
        assert state.demand.shape == (1, 3)

    def test_empty_sequence_rejected(self, env):
        with pytest.raises(ValueError):
            env.reset([])

    def test_lenient_mode_clips(self, env, caplog):
        state = env.reset(constant_demands(2, 1, 5.0, [0, 0]))
        assert state.demand[0, 0] == 4.0

    def test_wrong_shape_rejected(self, env):
        with pytest.raises(ValueError, match="shape"):
            env.reset(constant_demands(4, 2, 1.0, [0.5, 0.5]))   # two BSs, env has one
        with pytest.raises(ValueError, match="shape"):
            env.reset(constant_demands(4, 1, 1.0, [0.5]))        # one MEC class short
        with pytest.raises(ValueError, match="shape"):
            env.reset(np.full((1, 3), 0.5))                     # one slot, no slot axis

    def test_negative_cell_rejected(self, env):
        demand = np.full((4, 1, 3), 0.5)
        demand[2, 0, 1] = -0.1
        with pytest.raises(ValueError, match="slot 2: negative"):
            env.reset(demand)

    def test_nan_cell_rejected_and_inf_clipped(self, env):
        demand = np.full((4, 1, 3), 0.5)
        demand[1, 0, 0] = np.inf
        assert env.reset(demand).demand[0, 0] == 0.5
        assert env.step(env.initial_action)[0].demand[0, 0] == 4.0
        demand[3, 0, 2] = np.nan
        with pytest.raises(ValueError, match="slot 3: NaN demand"):
            env.reset(demand)

    def test_states_hold_read_only_rows_and_leave_the_callers_array_alone(self, env):
        demand = np.full((3, 1, 3), 0.5)
        states = [env.reset(demand)] + [env.step(env.initial_action)[0] for _ in range(2)]
        assert not any(s.demand.flags.writeable for s in states)
        assert demand.flags.writeable
        row = np.full((1, 3), 0.5)
        State(0, row, env.initial_action)       # a hand-built state
        assert row.flags.writeable

    def test_clipped_episode_warns_once(self, env, caplog):
        demand = np.full((6, 1, 3), 0.5)
        demand[[1, 4], 0, 0] = 5.0
        demand[4, 0, 2] = 4.5
        with caplog.at_level(logging.WARNING, logger="oranmec"):
            state = env.reset(demand)
            seen = [state.demand]
            for _ in range(5):
                state, *_ = env.step(env.initial_action)
                seen.append(state.demand)
        assert [r.getMessage() for r in caplog.records] == [
            "demands clipped to 4.0 Gbps in 2 of 6 slots"
        ]
        assert np.array_equal(np.stack(seen), np.minimum(demand, 4.0))
        assert demand[1, 0, 0] == 5.0 and demand.flags.writeable   # caller's array untouched


class TestStep:
    def test_terminal_flag_on_last_slot(self, env, demands):
        env.reset(demands)
        action = env.initial_action
        flags = [env.step(action)[3] for _ in range(4)]
        assert flags == [False, False, False, True]

    def test_step_past_end_raises(self, env, demands):
        env.reset(demands)
        for _ in range(4):
            env.step(env.initial_action)
        with pytest.raises(EpisodeExhausted):
            env.step(env.initial_action)

    def test_deterministic_given_seed(self, demands):
        rewards = []
        for _ in range(2):
            env = make_cost_env()
            env.util.noise_std = 0.5
            env.reset(demands, noise_seed=11)
            rewards.append([env.step(env.initial_action)[1] for _ in range(4)])
        assert rewards[0] == rewards[1]

    def test_reward_matches_breakdown(self, env, demands):
        env.reset(demands)
        _, reward, costs, _ = env.step(env.initial_action)
        cfg = env.reward_cfg
        assert reward == costs.reward
        assert reward == pytest.approx(
            -costs.total - cfg.delay_weight * cfg.delay_slope * costs.elastic_delay,
            abs=1e-12,
        )

    def test_next_state_carries_action_as_previous(self, env, demands):
        env.reset(demands)
        action = (1, 1, 0, 3, 2, 1, 1, 1, 0)
        next_state, _, _, _ = env.step(action)
        assert next_state.prev == action
        assert next_state.t == 1

    def test_an_agent_row_is_kept_as_python_ints(self, env, demands):
        env.reset(demands)
        row = np.array([1, 1, 0, 3, 2, 1, 1, 1, 0], dtype=np.int64)
        next_state, reward, _, _ = env.step(row)
        assert next_state.prev == (1, 1, 0, 3, 2, 1, 1, 1, 0)
        assert all(type(i) is int for i in next_state.prev)
        env.reset(demands)
        assert env.step(tuple(row.tolist()))[1] == reward

    def test_invalid_action_rejected(self, env, demands):
        env.reset(demands)
        with pytest.raises(ValueError, match="branch 0: index 4 is outside 0..3"):
            env.step((4, 0, 0, 1, 1, 1, 1, 0, 0))      # a fifth split of four

    @pytest.mark.parametrize("row, error, text", [
        ((0, 0, 0, 1, 1, 1, 1, 0), ValueError, "expected 9 branch indices, got 8"),
        ((0, 0, 0, 1, 1, 1, 1, 0, 0, 0), ValueError, "expected 9 branch indices, got 10"),
        ((-1, 0, 0, 1, 1, 1, 1, 0, 0), ValueError, "branch 0: index -1 is outside 0..3"),
        ((0, 2, 0, 1, 1, 1, 1, 0, 0), ValueError, "branch 1: index 2 is outside 0..1"),
        ((0, 0, 0, 1, 1, 1, 1, 0, 2), ValueError, "branch 8: index 2 is outside 0..1"),
        ((0, 0, 0, 1.0, 1, 1, 1, 0, 0), TypeError, "branch 3: index 1.0 is not an int"),
        (np.zeros(9), TypeError, "branch 0: index 0.0 is not an int"),
    ], ids=["short", "long", "negative", "too-large", "last-branch", "float", "float-array"])
    def test_invalid_row_rejected(self, env, demands, row, error, text):
        env.reset(demands)
        with pytest.raises(error, match=text):
            env.step(row)
        assert env.state.t == 0                     # nothing was taken


class TestEpisodeNoise:
    """A noisy env draws an episode's utilization noise at ``reset``, and
    pricing draws nothing."""

    @pytest.fixture
    def noisy(self):
        env = make_cost_env()
        env.util.noise_std = 0.5
        return env

    def test_a_price_does_not_depend_on_the_prices_before_it(self, noisy, demands, rng):
        state = noisy.reset(demands, noise_seed=3)
        sizes = noisy.layout.branch_sizes()
        row = tuple(rng.integers(sizes).tolist())

        def bits(costs):
            return [float.hex(v) for v in costs.as_dict().values()]

        first = bits(noisy.compute_costs(state, row))
        for _ in range(50):
            noisy.compute_costs(state, tuple(rng.integers(sizes).tolist()))
        assert bits(noisy.compute_costs(state, row)) == first

    def test_noisy_reset_needs_a_seed(self, noisy, demands):
        with pytest.raises(ValueError, match="needs a noise_seed"):
            noisy.reset(demands)

    def test_noisy_env_prices_only_after_a_reset(self, noisy, demands):
        state = State(0, noisy.ingest(demands)[0], noisy.initial_action)
        with pytest.raises(RuntimeError, match="reset"):
            noisy.compute_costs(state, noisy.initial_action)


class TestEncodeState:
    def test_dimension_formula(self):
        # per BS: 3 demand + 4 split + |DU| + |CU| + 2 per class + 2 + |C|
        env = make_cost_env()
        expected = 3 + 4 + 2 + 1 + 4 + 2 + 2
        assert env.state_dim == expected
        state = env.reset(constant_demands(1, 1, 1.0, [0.5, 0.5]))
        assert env.encode_state(state).shape == (expected,)

    def test_default_cluster_dimension(self):
        # 4 BS, 4 DU hosts, 2 CU hosts, 2 classes: 4 * 21 = 84
        topo = build_topology({
            "waxman": {"n": 14, "alpha": 0.5, "beta": 0.1, "seed": 3,
                       "n_du": 4, "n_cu": 2, "n_ru": 4}
        })
        layout = ActionLayout.from_topology(topo, n_services=2)
        env = OranMecEnv(topo, layout, UtilizationModel(n_services=2))
        assert env.state_dim == 4 * (3 + 4 + 4 + 2 + 4 + 4)

    def test_zero_state_blocks(self, env):
        state = env.reset(constant_demands(1, 1, 0.0, [0.0, 0.0]))
        vec = env.encode_state(state)
        assert np.all(vec[:3] == 0.0)                  # demand block
        assert vec[3:7].sum() == 1.0                   # split one-hot
        assert vec[7:9].sum() == 1.0                   # DU-server one-hot
        assert vec[9:10].sum() == 1.0                  # CU-server one-hot

    def test_demands_scaled_by_cell_rate(self, env):
        state = env.reset(constant_demands(1, 1, 4.0, [2.0, 1.0]))
        vec = env.encode_state(state)
        assert vec[:3] == pytest.approx([1.0, 0.5, 0.25])


class TestActionLayout:
    def test_branch_sizes_default_cluster(self):
        layout = ActionLayout(
            n_bs=1, du_servers=(1, 2, 3, 4), cu_servers=(5, 6), n_services=2
        )
        assert layout.branch_sizes() == [4, 4, 2, 16, 16, 16, 16, 2, 2]
        assert layout.joint_cardinality() == 8_388_608

    def test_a_row_decodes_bs_by_bs(self):
        layout = ActionLayout(
            n_bs=2, du_servers=(2, 3), cu_servers=(4,),
            bbu_flavors=(0, 1, 2, 3), mec_flavors=((0, 1, 2, 3), (0, 2, 4, 6)), n_services=2,
        )
        row = (3, 1, 0, 2, 1, 0, 3, 1, 0) + (0, 0, 0, 3, 3, 1, 2, 0, 1)
        assert layout.indices_to_action(row) == Action(
            split=("S4", "S1"), du_server=(3, 2), cu_server=(4, 4),
            du_flavor=(2, 3), cu_flavor=(1, 3),
            mec_flavor=((0, 6), (1, 4)), mec_at_cu=((1, 0), (0, 1)),
        )
        with pytest.raises(ValueError, match="expected 18 indices, got 17"):
            layout.indices_to_action(row[:-1])


class TestEnumerateActions:
    def test_rows_follow_the_product_of_the_domains(self):
        layout = ActionLayout(
            n_bs=1, splits=("S1", "S3"), du_servers=(2, 3), cu_servers=(4,),
            bbu_flavors=(0, 2), mec_flavors=((1, 3),), n_services=1,
        )
        decoded = [layout.indices_to_action(row) for row in enumerate_actions(layout)]
        expected = [
            Action((s,), (du,), (cu,), (x,), (y,), ((z,),), ((side,),))
            for s, du, cu, x, y, z, side in itertools.product(
                *(dom for _, dom in layout.per_bs_domains())
            )
        ]
        assert decoded == expected
        assert all(type(i) is int for row in enumerate_actions(layout) for i in row)

    def test_counted_example(self):
        layout = ActionLayout(
            n_bs=1, du_servers=(2, 3), cu_servers=(4,),
            bbu_flavors=(0, 1, 2), mec_flavors=((0, 1, 2),), n_services=1,
        )
        actions = list(enumerate_actions(layout))
        assert len(actions) == 4 * 2 * 1 * 3 * 3 * 3 * 2 == 432
        assert len(set(actions)) == 432

    def test_default_space_trips_limit(self):
        layout = ActionLayout(
            n_bs=1, du_servers=(1, 2, 3, 4), cu_servers=(5, 6), n_services=2
        )
        with pytest.raises(ActionSpaceTooLarge, match="8388608"):
            list(enumerate_actions(layout))

    def test_singleton_space(self):
        layout = ActionLayout(
            n_bs=1, splits=("S1",), du_servers=(2,), cu_servers=(4,),
            bbu_flavors=(1,), mec_flavors=((1,), (1,)), n_services=2,
        )
        actions = list(enumerate_actions(layout))
        assert len(actions) == 4  # two binary hosting sides remain
        layout2 = ActionLayout(
            n_bs=1, splits=("S1",), du_servers=(2,), cu_servers=(4,),
            bbu_flavors=(1,), mec_flavors=((1,),), n_services=1,
        )
        assert sum(1 for _ in enumerate_actions(layout2)) == 2

    def test_multi_bs_refused(self):
        layout = ActionLayout(
            n_bs=2, du_servers=(2,), cu_servers=(4,), n_services=1,
            bbu_flavors=(0, 1),
        )
        with pytest.raises(ValueError):
            next(enumerate_actions(layout))

    def test_refused_at_the_call_not_at_the_first_next(self):
        two_bs = ActionLayout(n_bs=2, du_servers=(2,), cu_servers=(4,), n_services=1)
        oversized = ActionLayout(n_bs=1, du_servers=(1, 2, 3, 4), cu_servers=(5, 6))
        for layout in (two_bs, oversized):
            with pytest.raises(ActionSpaceTooLarge):
                enumerate_actions(layout)
