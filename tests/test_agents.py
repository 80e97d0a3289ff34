import dataclasses

import numpy as np
import pytest

from oranmec import agents
from oranmec.agents import (
    AgentConfig,
    BayesAgent,
    BranchPosterior,
    EGreedyAgent,
    ReplayBuffer,
    blr_posterior,
    evaluate_greedy,
    make_agent,
    run_training,
    select_action_egreedy,
    select_action_thompson,
    td_target,
    thompson_sample,
)
from oranmec.env import ActionLayout
from tests.conftest import make_toy_env, toy_agent_config, toy_demands

TOY_LAYOUT = ActionLayout(
    n_bs=1, du_servers=(2, 3), cu_servers=(4,), bbu_flavors=(0, 1, 2, 3),
    n_services=2,
)


class TestReplayBuffer:
    def test_capacity_and_eviction_order(self):
        buf = ReplayBuffer(capacity=3)
        for i in range(5):
            buf.push([float(i)], [0], float(i), [0.0], False)
        assert len(buf) == 3
        data = buf.chronological()
        assert list(data["reward"]) == [2.0, 3.0, 4.0]   # oldest first

    def test_sample_without_replacement(self, rng):
        buf = ReplayBuffer(capacity=10)
        for i in range(10):
            buf.push([float(i)], [0], float(i), [0.0], False)
        batch = buf.sample(10, rng)
        assert sorted(batch["reward"]) == [float(i) for i in range(10)]

    def test_sample_larger_than_contents_rejected(self, rng):
        buf = ReplayBuffer(capacity=4)
        buf.push([0.0], [0], 0.0, [0.0], False)
        with pytest.raises(ValueError):
            buf.sample(2, rng)


class TestEGreedySelection:
    def test_greedy_is_deterministic(self, rng):
        q = [np.array([[0.1, 0.9, 0.2]]), np.array([[5.0, 1.0]])]
        picks = {tuple(select_action_egreedy(q, 0.0, rng)) for _ in range(20)}
        assert picks == {(1, 0)}

    def test_argmax_example(self, rng):
        assert select_action_egreedy([np.array([[1.0, 3.0, 2.0]])], 0.0, rng)[0] == 1

    def test_full_exploration_is_uniform(self):
        rng = np.random.default_rng(0)
        q = [np.array([[9.0, 0.0, 0.0, 0.0]])]
        n = 10_000
        counts = np.zeros(4)
        for _ in range(n):
            counts[select_action_egreedy(q, 1.0, rng)[0]] += 1
        # each arm ~ Binomial(n, 1/4); allow 3 sigma
        sigma = np.sqrt(n * 0.25 * 0.75)
        assert np.all(np.abs(counts - n / 4) < 3.5 * sigma)

    def test_epsilon_bounds_checked(self, rng):
        with pytest.raises(ValueError):
            select_action_egreedy([np.array([[1.0]])], 1.5, rng)


class TestTdTargets:
    def test_collapses_to_plain_ddqn(self, rng):
        for _ in range(50):
            B, n = 8, 5
            r = rng.normal(size=B)
            term = rng.uniform(size=B) < 0.3
            q_on = rng.normal(size=(B, n))
            q_tg = rng.normal(size=(B, n))
            # plain double DQN: online argmax, target price, reward at the end
            best = np.argmax(q_on, axis=1)
            plain = np.where(term, r, r + 0.9 * q_tg[np.arange(B), best])
            branched = td_target(r, term, 0.9, [q_on], [q_tg], [1])
            assert np.array_equal(plain, branched)

    def test_terminal_uses_reward_only(self):
        u = td_target(
            np.array([-5.0]), np.array([True]), 1.0,
            [np.array([[1.0, 2.0]])], [np.array([[9.0, 9.0]])], [1],
        )
        assert u[0] == -5.0

    def test_two_branch_hand_case(self):
        # selection picks index 1 and 0; target values 2 and 4:
        # u = 1 + 1 * (2 + 4) / 2 = 4
        q_on = [np.array([[0.0, 1.0]]), np.array([[1.0, 0.0]])]
        q_tg = [np.array([[9.0, 2.0]]), np.array([[4.0, 9.0]])]
        u = td_target(np.array([1.0]), np.array([False]), 1.0, q_on, q_tg, [2])
        assert u[0] == 4.0

    def test_bayes_target_collapse(self, rng):
        # with target weights/features equal to the online ones the target
        # is a plain bootstrapped max
        scores = [rng.normal(size=(4, 3))]
        r = rng.normal(size=4)
        term = np.zeros(4, dtype=bool)
        u = td_target(r, term, 0.5, scores, scores, [1])
        assert np.allclose(u, r + 0.5 * scores[0].max(axis=1))

    def test_bayes_two_branch_hand_case(self):
        on = [np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])]
        tg = [np.array([[1.0, 9.0]]), np.array([[9.0, 3.0]])]
        u = td_target(np.array([0.0]), np.array([False]), 1.0, on, tg, [2])
        assert u[0] == 2.0                      # (1 + 3) / 2


class TestBlrPosterior:
    def test_zero_data_returns_prior(self):
        mu, cov, scale = blr_posterior(np.empty((0, 3)), np.empty(0), 1.0, 2.0)
        assert np.array_equal(mu, np.zeros(3))
        assert np.array_equal(cov, 2.0 * np.eye(3))
        assert np.allclose(scale @ scale.T, cov)

    def test_single_sample_hand_case(self):
        # phi=[1], u=[1], noise 1, prior 1: precision 2, cov 0.5, mean 0.5
        mu, cov, _ = blr_posterior(np.array([[1.0]]), np.array([1.0]), 1.0, 1.0)
        assert mu[0] == pytest.approx(0.5, abs=1e-15)
        assert cov[0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_matches_dense_normal_equation_solve(self, rng):
        for _ in range(25):
            d = int(rng.integers(1, 9))
            n = int(rng.integers(1, 65))
            phi = rng.normal(size=(n, d))
            u = rng.normal(size=n)
            sigma_eps = float(rng.uniform(0.5, 2.0))
            prior = float(rng.uniform(0.5, 2.0))
            mu, cov, scale = blr_posterior(phi, u, sigma_eps, prior)
            precision = phi.T @ phi / sigma_eps**2 + np.eye(d) / prior
            cov_ref = np.linalg.inv(precision)
            mu_ref = cov_ref @ (phi.T @ u) / sigma_eps**2
            assert np.abs(cov - cov_ref).max() < 1e-8
            assert np.abs(mu - mu_ref).max() < 1e-8
            assert np.abs(scale @ scale.T - cov).max() < 1e-10


class TestBranchPosterior:
    def test_prior_state(self, rng):
        post = BranchPosterior(3, 4, prior_sigma=2.0, sigma_eps=1.0, rng=rng)
        assert np.array_equal(post.mu, np.zeros((3, 4)))
        assert np.array_equal(post.cov[1], 2.0 * np.eye(4))

    def test_prior_is_shared_until_the_first_refit(self, rng):
        post = BranchPosterior(3, 4, prior_sigma=2.0, sigma_eps=1.0, rng=rng)
        assert post.cov.strides[0] == 0 and not post.cov.flags.writeable
        post.refit(1, rng.normal(size=(5, 4)), rng.normal(size=5))
        assert post.cov.flags.c_contiguous and post.cov.flags.writeable
        assert post._scale.flags.c_contiguous and post._scale.flags.writeable
        for a in (0, 2):
            assert np.array_equal(post.cov[a], 2.0 * np.eye(4))
            assert np.array_equal(post._scale[a], np.sqrt(2.0) * np.eye(4))
        assert not np.array_equal(post.cov[1], 2.0 * np.eye(4))

    def test_near_zero_covariance_samples_the_mean(self, rng):
        post = BranchPosterior(2, 3, prior_sigma=1.0, sigma_eps=1.0, rng=rng)
        post.mu[...] = 5.0
        post.cov = np.zeros((2, 3, 3))
        post._scale = np.zeros((2, 3, 3))
        post.resample(rng)
        assert np.array_equal(post.omega, post.mu)

    def test_sample_mean_approaches_posterior_mean(self):
        rng = np.random.default_rng(3)
        post = BranchPosterior(1, 2, prior_sigma=1.0, sigma_eps=1.0, rng=rng)
        post.mu[...] = np.array([[1.0, -2.0]])
        draws = []
        for _ in range(10_000):
            post.resample(rng)
            draws.append(post.omega[0].copy())
        mean = np.mean(draws, axis=0)
        # prior std is 1, so the SE over 1e4 draws is 0.01; allow 4 SE
        assert np.all(np.abs(mean - post.mu[0]) < 0.04)

    def test_fixed_seed_reproducible(self):
        draws = []
        for _ in range(2):
            rng = np.random.default_rng(11)
            post = BranchPosterior(2, 3, 1.0, 1.0, rng)
            post.resample(rng)
            draws.append(post.omega.copy())
        assert np.array_equal(draws[0], draws[1])

    def test_thompson_sample_covers_all_branches(self, rng):
        posts = [BranchPosterior(2, 3, 1.0, 1.0, rng) for _ in range(3)]
        before = [p.omega.copy() for p in posts]
        thompson_sample(posts, rng)
        assert all(not np.array_equal(b, p.omega) for b, p in zip(before, posts))


class TestThompsonSelection:
    def test_tie_breaks_to_lowest_index(self, rng):
        post = BranchPosterior(3, 2, 1.0, 1.0, rng)
        post.omega[...] = 1.0                    # identical weights per arm
        idx = select_action_thompson([np.array([0.5, 0.5])], [post])
        assert idx[0] == 0

    def test_hand_dot_products(self, rng):
        post = BranchPosterior(2, 2, 1.0, 1.0, rng)
        post.omega[0] = [0.0, 0.0]
        post.omega[1] = [1.0, 1.0]
        idx = select_action_thompson([np.array([1.0, 1.0])], [post])
        assert idx[0] == 1

    def test_matches_greedy_head_when_weights_shared(self, rng):
        # a linear-head net and Thompson selection with the head's rows as
        # the sampled weights produce the same argmax
        from oranmec.neural import BranchingQNet

        net = BranchingQNet(4, [3, 2], trunk_widths=(6,), feature_dim=5, seed=2)
        x = rng.normal(size=4)
        q_rows = net.q_values(x)
        greedy = select_action_egreedy(q_rows, 0.0, rng)
        posts = []
        for head in net.w.heads:
            post = BranchPosterior(head.shape[1], 5, 1.0, 1.0, rng)
            post.omega = head.T.copy()
            posts.append(post)
        sampled = select_action_thompson(net.features(x), posts)
        assert np.array_equal(greedy, sampled)

    def test_positive_scaling_invariance(self, rng):
        for _ in range(20):
            post = BranchPosterior(4, 3, 1.0, 1.0, rng)
            post.omega = rng.normal(size=(4, 3))
            phi = [rng.normal(size=3)]
            base = select_action_thompson(phi, [post])
            post.omega = post.omega * 7.5
            assert select_action_thompson(phi, [post]) == base


def _filled_agent(mode="egreedy", batch_size=8, n_fill=32, seed=0):
    cfg = toy_agent_config(seed, mode=mode, batch_size=batch_size)
    state_dim = 6
    layout = ActionLayout(
        n_bs=1, du_servers=(2,), cu_servers=(4,), bbu_flavors=(0, 1),
        mec_flavors=((0, 1), (0, 1)), n_services=2,
    )
    cfg.trunk_widths = (8, 8)
    cfg.feature_dim = 4
    agent = make_agent(layout, state_dim, cfg)
    rng = np.random.default_rng(5)
    for _ in range(n_fill):
        s = rng.normal(size=state_dim)
        s2 = rng.normal(size=state_dim)
        idx = [rng.integers(n) for n in layout.branch_sizes()]
        agent.store(s, idx, float(rng.normal()), s2, bool(rng.uniform() < 0.1))
    return agent


class TestTrainSteps:
    def test_underfull_buffer_skips(self):
        agent = _filled_agent(n_fill=2, batch_size=8)
        assert agent.train_step() is None

    def test_perfect_net_zero_loss_and_no_update(self):
        agent = _filled_agent(mode="egreedy", n_fill=16, batch_size=8)
        # force everything to zero: all Q and all targets become r + gamma*0
        for p in agent.net.parameters():
            p[...] = 0.0
        agent.sync_target()
        # rewards zero too -> u = 0 = Q exactly
        for i, item in enumerate(agent.buffer._data):
            agent.buffer._data[i] = (item[0], item[1], 0.0, item[3], item[4])
        before = [p.copy() for p in agent.net.parameters()]
        loss = agent.train_step()
        assert loss == 0.0
        for b, p in zip(before, agent.net.parameters()):
            assert np.array_equal(b, p)

    def test_single_branch_loss_value(self, rng):
        # one transition, one branch, Q=0 everywhere, target u=2 -> loss 4
        layout = ActionLayout(
            n_bs=1, splits=("S1",), du_servers=(2,), cu_servers=(4,),
            bbu_flavors=(0,), mec_flavors=((0, 1),), n_services=1,
        )
        cfg = toy_agent_config(0, mode="egreedy", batch_size=1)
        cfg.trunk_widths = (4,)
        cfg.feature_dim = 3
        cfg.gamma = 1.0
        agent = EGreedyAgent(layout, 4, cfg)
        for p in agent.net.parameters():
            p[...] = 0.0
        agent.sync_target()
        agent.store(np.zeros(4), [0] * len(layout.branch_sizes()), 2.0,
                    np.zeros(4), True)
        loss = agent.train_step()
        # branches all predict 0 against u = 2: mean over branches of 4
        assert loss == pytest.approx(4.0, abs=1e-12)

    def test_egreedy_loss_decreases_on_frozen_batch(self):
        agent = _filled_agent(mode="egreedy", n_fill=32, batch_size=32)
        agent.config.lr = 1e-2
        agent.adam.lr = 1e-2
        losses = [agent.train_step() for _ in range(200)]
        assert np.mean(losses[-20:]) < 0.5 * np.mean(losses[:20])

    def test_bayes_loss_decreases_after_posterior_fit(self):
        agent = _filled_agent(mode="bayes", n_fill=32, batch_size=32)
        agent.config.lr = 1e-2
        agent.adam.lr = 1e-2
        agent.update_posteriors()
        losses = [agent.train_step() for _ in range(200)]
        assert np.mean(losses[-20:]) < np.mean(losses[:20])


class TestPosteriorUpdate:
    def test_empty_buffer_keeps_posteriors(self):
        agent = _filled_agent(mode="bayes", n_fill=0)
        before_mu = [p.mu.copy() for p in agent.posteriors]
        agent.update_posteriors()
        for b, p in zip(before_mu, agent.posteriors):
            assert np.array_equal(b, p.mu)

    def test_matches_direct_solve(self):
        agent = _filled_agent(mode="bayes", n_fill=64)
        agent.update_posteriors()
        data = agent.buffer.chronological()
        u = agent.compute_targets(data)
        phis = agent.net.features(data["state"])
        cfg = agent.config
        for j, post in enumerate(agent.posteriors):
            actions = data["action"][:, j]
            for a in range(post.n_actions):
                rows = np.nonzero(actions == a)[0]
                if len(rows) == 0:
                    continue
                phi = phis[j][rows]
                precision = phi.T @ phi / cfg.sigma_eps**2 + np.eye(post.d) / cfg.prior_sigma
                cov_ref = np.linalg.inv(precision)
                mu_ref = cov_ref @ (phi.T @ u[rows]) / cfg.sigma_eps**2
                assert np.abs(post.mu[a] - mu_ref).max() < 1e-8
                assert np.abs(post.cov[a] - cov_ref).max() < 1e-8

    def test_unseen_sub_actions_keep_prior(self):
        agent = _filled_agent(mode="bayes", n_fill=16)
        # force every stored transition to sub-action 0 on branch 0
        for i, item in enumerate(agent.buffer._data):
            idx = item[1].copy()
            idx[0] = 0
            agent.buffer._data[i] = (item[0], idx, item[2], item[3], item[4])
        agent.update_posteriors()
        post = agent.posteriors[0]
        assert np.array_equal(post.mu[1], np.zeros(post.d))
        assert np.array_equal(post.cov[1], agent.config.prior_sigma * np.eye(post.d))
        assert np.any(post.mu[0] != 0.0)

    def test_chunked_refresh_matches_one_chunk(self, monkeypatch):
        fits = []
        for rows_per_chunk in (64, 5):
            agent = _filled_agent(mode="bayes", n_fill=64)
            row_bytes = 8 * agent.net.n_branches * agent.net.feature_dim
            monkeypatch.setattr(agents, "REFRESH_CHUNK_BYTES", rows_per_chunk * row_bytes)
            agent.update_posteriors()
            fits.append(agent.posteriors)
        for whole, chunked in zip(*fits):
            np.testing.assert_allclose(chunked.mu, whole.mu, rtol=0, atol=1e-10)
            np.testing.assert_allclose(chunked.cov, whole.cov, rtol=0, atol=1e-10)


class TestTargetStaleness:
    def test_target_constant_between_syncs(self):
        agent = _filled_agent(mode="egreedy", n_fill=32, batch_size=8)
        x = np.random.default_rng(8).normal(size=(4, 6))
        before = [q.copy() for q in agent.target_net.q_values(x)]
        for _ in range(10):
            agent.train_step()
        after = agent.target_net.q_values(x)
        for b, a in zip(before, after):
            assert np.array_equal(b, a)
        agent.sync_target()
        synced = agent.target_net.q_values(x)
        online = agent.net.q_values(x)
        for s, o in zip(synced, online):
            assert np.array_equal(s, o)


class TestCheckpointRoundTrip:
    @pytest.mark.parametrize("mode", ["egreedy", "bayes"])
    def test_save_then_pretrained_load(self, tmp_path, mode):
        agent = _filled_agent(mode=mode, n_fill=32, batch_size=8)
        for _ in range(3):
            agent.sync_target()
            if mode == "bayes":
                agent.update_posteriors()
                agent.resample()
            for _ in range(4):
                agent.train_step()
        path = tmp_path / "agent.npz"
        agent.save_checkpoint(path)

        cfg = dataclasses.replace(
            agent.config, seed=agent.config.seed + 1, pretrained_checkpoint=str(path)
        )
        twin = make_agent(agent.layout, 6, cfg)
        x = np.random.default_rng(9).normal(size=(4, 6))
        forward = "q_values" if mode == "egreedy" else "features"
        ref = getattr(agent.net, forward)(x)
        for net in (twin.net, twin.target_net):
            for a, b in zip(ref, getattr(net, forward)(x)):
                assert np.array_equal(a, b)
        assert twin.adam.t == agent.adam.t == 12
        assert np.array_equal(twin.adam.m, agent.adam.m)
        assert np.array_equal(twin.adam.v, agent.adam.v)
        if mode == "bayes":
            for post, loaded in zip(agent.posteriors, twin.posteriors):
                for attr in ("mu", "cov", "omega", "omega_tilde"):
                    assert np.array_equal(getattr(post, attr), getattr(loaded, attr))
            # the target weights come from the file, not from a sync
            assert any(not np.array_equal(p.mu, p.omega_tilde) for p in twin.posteriors)


class TestRunTraining:
    def test_single_episode_smoke(self):
        env = make_toy_env()
        demands = toy_demands(4)
        agent = make_agent(env.layout, env.state_dim, toy_agent_config(0))
        result = run_training(env, agent, lambda e: demands, 1)
        assert len(result.episodes) == 1
        assert len(result.steps) == 4
        assert result.episodes[0].mean_reward < 0

    def test_seeded_runs_identical(self):
        logs = []
        for _ in range(2):
            env = make_toy_env()
            demands = toy_demands(8)
            agent = make_agent(env.layout, env.state_dim, toy_agent_config(3))
            result = run_training(env, agent, lambda e: demands, 2,
                                  episode_seed_base=10)
            logs.append([(r.total_reward, r.penalty_total) for r in result.episodes])
        assert logs[0] == logs[1]

    def test_modes_produce_different_trajectories(self):
        outs = []
        for mode in ("bayes", "egreedy"):
            env = make_toy_env()
            demands = toy_demands(8)
            agent = make_agent(env.layout, env.state_dim,
                               toy_agent_config(3, mode=mode))
            result = run_training(env, agent, lambda e: demands, 2)
            outs.append([r.total_reward for r in result.episodes])
        assert outs[0] != outs[1]

    def test_greedy_evaluation_runs(self):
        env = make_toy_env()
        demands = toy_demands(4)
        agent = make_agent(env.layout, env.state_dim, toy_agent_config(1))
        value = evaluate_greedy(env, agent, demands)
        assert np.isfinite(value)


class TestEpsilonSchedule:
    def test_linear_decay(self):
        cfg = toy_agent_config(0, mode="egreedy",
                               eps_max=1.0, eps_min=0.05, eps_decay_episodes=100)
        agent = EGreedyAgent(TOY_LAYOUT, 4, cfg)
        assert agent.epsilon(0) == 1.0
        assert agent.epsilon(50) == pytest.approx(0.525)
        assert agent.epsilon(100) == pytest.approx(0.05)
        assert agent.epsilon(500) == pytest.approx(0.05)

    def test_pretrained_default_lowers_exploration(self, tmp_path):
        from oranmec.harness import _parse_agent

        cfg = _parse_agent({"mode": "egreedy", "pretrained_checkpoint": "x.npz"})
        assert cfg.eps_max == 0.1
