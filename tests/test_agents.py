import dataclasses
import json
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
import zipfile

import numpy as np
import pytest

from oranmec import agents
from oranmec.agents import (
    AgentConfig,
    EGreedyAgent,
    Posterior,
    ReplayBuffer,
    blr_posterior,
    branch_argmax,
    branch_slices,
    evaluate_greedy,
    make_agent,
    run_training,
    select_action_egreedy,
    td_target,
)
from oranmec.env import ActionLayout
from oranmec.harness import build_env, load_experiment_config, seeded_run
from tests.conftest import CONFIG_DIR, load_toy, make_toy_env, toy_agent_config


class TestAgentConfig:
    @pytest.mark.parametrize("fields", [
        {"blr_dataset_cap": 0},             # [-0:] would keep every row
        {"blr_dataset_cap": -2},            # [2:] would drop the oldest two
        {"batch_size": 0},
        {"buffer_capacity": 64, "batch_size": 128},     # never a full batch
    ], ids=["cap-zero", "cap-negative", "batch-zero", "ring-below-batch"])
    def test_sizes_are_validated(self, fields):
        with pytest.raises(ValueError):
            AgentConfig(**fields)

    def test_ring_of_exactly_one_batch_is_accepted(self):
        assert AgentConfig(buffer_capacity=128, batch_size=128).batch_size == 128

    @pytest.mark.parametrize("name, value", [
        ("sigma_eps", 0.0), ("sigma_eps", -1.0), ("sigma_eps", np.inf),
        ("prior_sigma", 0.0), ("prior_sigma", -1.0), ("prior_sigma", np.nan),
        ("lr", 0.0), ("lr", -1e-4), ("lr", np.inf),
        ("gamma", 1.5), ("gamma", -0.1), ("gamma", np.nan),
        ("feature_dim", 0), ("trunk_widths", (64, 0)), ("trunk_widths", ()),
        ("eps_decay_episodes", -5),
    ])
    def test_unusable_numbers_are_rejected(self, name, value):
        # prior_sigma -1 would act on NaN Thompson weights, then fail to
        # factor; sigma_eps 0 ends in a GradientError; feature_dim 0 divides
        # by zero at the first refresh; gamma 1.5 trains; eps_decay_episodes
        # -5 would decay as 1 does; no trunk_widths fails only in the net
        with pytest.raises(ValueError, match=name):
            AgentConfig(**{name: value})

    def test_discount_bounds_are_accepted(self):
        assert [AgentConfig(gamma=g).gamma for g in (0.0, 1.0)] == [0.0, 1.0]


class TestReplayBuffer:
    def test_capacity_and_eviction_order(self):
        buf = ReplayBuffer(capacity=3, state_dim=1, n_branches=1)
        for i in range(5):
            buf.push([float(i)], [0], float(i), [0.0], False)
        assert len(buf) == 3
        data = buf.chronological()
        assert list(data["reward"]) == [2.0, 3.0, 4.0]   # oldest first

    def test_sample_without_replacement(self, rng):
        buf = ReplayBuffer(capacity=10, state_dim=1, n_branches=1)
        for i in range(10):
            buf.push([float(i)], [0], float(i), [0.0], False)
        batch = buf.sample(10, rng)
        assert sorted(batch["reward"]) == [float(i) for i in range(10)]

    def test_sample_larger_than_contents_rejected(self, rng):
        buf = ReplayBuffer(capacity=4, state_dim=1, n_branches=1)
        buf.push([0.0], [0], 0.0, [0.0], False)
        with pytest.raises(ValueError):
            buf.sample(2, rng)


class _ListReplay:
    """Reference replay buffer, one tuple of arrays per transition: the
    ring's ``sample`` must return exactly its rows."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.data = []
        self.pos = 0

    def push(self, s, a, r, s2, term):
        item = (np.asarray(s, dtype=np.float64), np.asarray(a, dtype=np.int64),
                float(r), np.asarray(s2, dtype=np.float64), bool(term))
        if len(self.data) < self.capacity:
            self.data.append(item)
        else:
            self.data[self.pos] = item
        self.pos = (self.pos + 1) % self.capacity

    def sample(self, batch_size, rng):
        rows = [self.data[i] for i in rng.choice(len(self.data), size=batch_size, replace=False)]
        return {
            "state": np.stack([r[0] for r in rows]),
            "action": np.stack([r[1] for r in rows]),
            "reward": np.array([r[2] for r in rows]),
            "next_state": np.stack([r[3] for r in rows]),
            "terminal": np.array([r[4] for r in rows]),
        }


def _random_transitions(n, state_dim=3, n_branches=2, seed=0):
    rng = np.random.default_rng(seed)
    return [
        (rng.normal(size=state_dim), rng.integers(0, 4, size=n_branches),
         float(rng.normal()), rng.normal(size=state_dim), bool(rng.uniform() < 0.2))
        for _ in range(n)
    ]


class TestReplayRing:
    FIELDS = ("state", "action", "reward", "next_state", "terminal")

    def test_chronological_after_a_wrap(self):
        buf = ReplayBuffer(capacity=5, state_dim=1, n_branches=1)
        for i in range(12):
            buf.push([float(i)], [i], float(i), [float(i + 1)], False)
        assert list(buf.chronological_index()) == [2, 3, 4, 0, 1]
        data = buf.chronological()
        assert list(data["reward"]) == [7.0, 8.0, 9.0, 10.0, 11.0]
        assert list(data["action"][:, 0]) == [7, 8, 9, 10, 11]
        assert list(data["next_state"][:, 0]) == [8.0, 9.0, 10.0, 11.0, 12.0]

    def test_growth_across_doublings_keeps_every_row(self, monkeypatch):
        monkeypatch.setattr(agents, "RING_START_ROWS", 4)
        buf = ReplayBuffer(capacity=1000, state_dim=3, n_branches=2)
        pushed = _random_transitions(11)
        for t in pushed:
            buf.push(*t)
        assert len(buf) == 11
        assert len(buf.state) == 16            # 4 -> 8 -> 16
        data = buf.chronological()
        for k, name in enumerate(self.FIELDS):
            assert np.array_equal(data[name], np.array([t[k] for t in pushed])), name

    def test_never_more_than_capacity_rows(self, monkeypatch):
        monkeypatch.setattr(agents, "RING_START_ROWS", 4)
        buf = ReplayBuffer(capacity=6, state_dim=3, n_branches=2)
        for t in _random_transitions(20):
            buf.push(*t)
        assert len(buf) == 6
        assert all(len(getattr(buf, name)) == 6 for name in self.FIELDS)

    def test_an_empty_ring_has_its_shapes(self):
        buf = ReplayBuffer(capacity=10, state_dim=3, n_branches=2, score_width=5)
        assert (buf.state.shape, buf.action.shape, buf.target_scores.shape) == (
            (0, 3), (0, 2), (0, 5))
        buf.clear_target_scores()
        with pytest.raises(ValueError):     # the first push is checked too
            buf.push([0.0], [0, 0], 0.0, [0.0], False)
        assert len(buf) == 0

    def test_large_capacity_is_not_allocated(self):
        buf = ReplayBuffer(capacity=1_000_000, state_dim=3, n_branches=2)
        for t in _random_transitions(3):
            buf.push(*t)
        assert len(buf.state) == agents.RING_START_ROWS

    @pytest.mark.parametrize("bad", [
        ([0.0, 0.0], [0, 0], 0.0, [0.0, 0.0, 0.0], False),     # state shape
        ([0.0, 0.0, 0.0], [0, 0], 0.0, [0.0, 0.0], False),     # next_state shape
        ([0.0, 0.0, 0.0], [0], 0.0, [0.0, 0.0, 0.0], False),   # action shape
    ])
    def test_mismatched_push_shape_rejected(self, bad):
        buf = ReplayBuffer(capacity=10, state_dim=3, n_branches=2)
        buf.push([1.0, 2.0, 3.0], [1, 2], 1.0, [3.0, 2.0, 1.0], False)
        with pytest.raises(ValueError):
            buf.push(*bad)
        assert len(buf) == 1

    def test_sample_matches_the_list_buffer(self, monkeypatch):
        monkeypatch.setattr(agents, "RING_START_ROWS", 8)
        ring, ref = ReplayBuffer(capacity=50, state_dim=3, n_branches=2), _ListReplay(50)
        for n_pushed, t in enumerate(_random_transitions(80), start=1):
            ring.push(*t)
            ref.push(*t)
            if n_pushed % 7 == 0 and n_pushed >= 20:
                rng_ring, rng_ref = np.random.default_rng(n_pushed), np.random.default_rng(n_pushed)
                got, want = ring.sample(20, rng_ring), ref.sample(20, rng_ref)
                for name in self.FIELDS:
                    assert got[name].dtype == want[name].dtype, name
                    assert np.array_equal(got[name], want[name]), name
                assert rng_ring.bit_generator.state == rng_ref.bit_generator.state

    def test_sample_returns_storage_index(self, rng):
        buf = ReplayBuffer(capacity=10, state_dim=3, n_branches=2)
        for t in _random_transitions(15):
            buf.push(*t)
        batch = buf.sample(6, rng)
        assert np.array_equal(batch["state"], buf.state[batch["index"]])
        assert np.array_equal(batch["reward"], buf.reward[batch["index"]])


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


def _td(rewards, terminal, gamma, select_scores, eval_scores, n_bs):
    """``td_target`` with per-branch target scores stacked as the ring
    caches them."""
    offsets = np.cumsum([0] + [s.shape[1] for s in eval_scores[:-1]])
    return td_target(
        rewards, terminal, gamma, select_scores,
        np.concatenate(eval_scores, axis=1), offsets, n_bs,
    )


def _nested_td(rewards, terminal, gamma, select_scores, eval_scores, n_bs):
    """The branched double-Q target as a loop over BSs and their branches:
    the reference that the stacked ``td_target`` must match bit for bit."""
    rows = np.arange(len(rewards))
    m = len(select_scores) // n_bs
    boot = np.zeros(len(rewards))
    for k in range(n_bs):
        bs_acc = np.zeros(len(rewards))
        for j in range(k * m, (k + 1) * m):
            bs_acc = bs_acc + eval_scores[j][rows, np.argmax(select_scores[j], axis=1)]
        boot = boot + bs_acc / m
    return np.where(terminal, rewards, rewards + gamma * (boot / n_bs))


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
            branched = td_target(r, term, 0.9, [q_on], q_tg, np.array([0]), n_bs=1)
            assert np.array_equal(plain, branched)

    def test_terminal_uses_reward_only(self):
        u = _td(
            np.array([-5.0]), np.array([True]), 1.0,
            [np.array([[1.0, 2.0]])], [np.array([[9.0, 9.0]])], n_bs=1,
        )
        assert u[0] == -5.0

    def test_two_branch_hand_case(self):
        # selection picks index 1 and 0; target values 2 and 4:
        # u = 1 + 1 * (2 + 4) / 2 = 4
        q_on = [np.array([[0.0, 1.0]]), np.array([[1.0, 0.0]])]
        q_tg = [np.array([[9.0, 2.0]]), np.array([[4.0, 9.0]])]
        u = _td(np.array([1.0]), np.array([False]), 1.0, q_on, q_tg, n_bs=1)
        assert u[0] == 4.0

    def test_bayes_target_collapse(self, rng):
        # with target weights/features equal to the online ones the target
        # is a plain bootstrapped max
        scores = [rng.normal(size=(4, 3))]
        r = rng.normal(size=4)
        term = np.zeros(4, dtype=bool)
        u = _td(r, term, 0.5, scores, scores, n_bs=1)
        assert np.allclose(u, r + 0.5 * scores[0].max(axis=1))

    def test_bayes_two_branch_hand_case(self):
        on = [np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])]
        tg = [np.array([[1.0, 9.0]]), np.array([[9.0, 3.0]])]
        u = _td(np.array([0.0]), np.array([False]), 1.0, on, tg, n_bs=1)
        assert u[0] == 2.0                      # (1 + 3) / 2

    def test_two_bs_hand_case(self):
        # BS 0 picks values 2 and 4 (mean 3), BS 1 picks 6 and 8 (mean 7):
        # u = 1 + 0.5 * (3 + 7) / 2 = 3.5
        on = _rows([0, 1], [1, 0], [0, 1], [1, 0])
        tg = _rows([9, 2], [4, 9], [9, 6], [8, 9])
        u = _td(np.array([1.0]), np.array([False]), 0.5, on, tg, n_bs=2)
        assert u[0] == 3.5

    def test_two_bs_sums_per_bs_then_across(self):
        # with as many branches at every BS, a flat mean and a mean of the
        # per-BS sums agree in exact arithmetic; each rounds differently
        vals = [0.1, 0.1, 0.1, 0.1, 0.1, 0.2]
        scores = [np.array([[v]]) for v in vals]
        u = _td(np.array([0.0]), np.array([False]), 1.0, scores, scores, n_bs=2)
        per_bs = ((0.1 + 0.1 + 0.1) / 3 + (0.1 + 0.1 + 0.2) / 3) / 2
        flat = (0.1 + 0.1 + 0.1 + 0.1 + 0.1 + 0.2) / 6
        of_bs_sums = ((0.1 + 0.1 + 0.1) + (0.1 + 0.1 + 0.2)) / 6
        assert len({per_bs, flat, of_bs_sums}) == 3
        assert u[0] == per_bs

    def test_default_shape_matches_a_nested_loop(self, rng):
        # 4 BSs x 9 branches of 2-12 sub-actions, batch 128; the selection
        # scores hold ties and the priced values span 1 to 1e5
        n_bs, m, B = 4, 9, 128
        sizes = rng.integers(2, 13, size=n_bs * m)
        for _ in range(20):
            on = [rng.integers(0, 3, size=(B, n)).astype(float) for n in sizes]
            tg = [rng.normal(size=(B, n)) * 10.0 ** rng.uniform(0, 5) for n in sizes]
            r = rng.normal(size=B) * 100.0
            term = rng.uniform(size=B) < 0.1
            assert np.array_equal(
                _td(r, term, 0.9, on, tg, n_bs), _nested_td(r, term, 0.9, on, tg, n_bs)
            )


def _cov(scale: np.ndarray) -> np.ndarray:
    """Covariance(s) from sampling factor(s): scale @ scale.T."""
    return np.einsum("...ij,...kj->...ik", scale, scale)


class TestBlrPosterior:
    def test_single_sample_hand_case(self):
        # phi=[1], u=[1], noise 1, prior 1: precision 2, cov 0.5, mean 0.5
        mu, scale = blr_posterior([np.array([[1.0]])], [np.array([1.0])], 1.0, 1.0)
        assert mu.shape == (1, 1) and scale.shape == (1, 1, 1)
        assert mu[0, 0] == pytest.approx(0.5, abs=1e-15)
        assert _cov(scale)[0, 0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_matches_dense_normal_equation_solve(self, rng):
        for _ in range(25):
            d = int(rng.integers(1, 9))
            phis = [rng.normal(size=(int(rng.integers(1, 65)), d)) for _ in range(3)]
            us = [rng.normal(size=len(phi)) for phi in phis]
            sigma_eps = float(rng.uniform(0.5, 2.0))
            prior = float(rng.uniform(0.5, 2.0))
            mu, scale = blr_posterior(phis, us, sigma_eps, prior)
            for a, (phi, u) in enumerate(zip(phis, us)):
                precision = phi.T @ phi / sigma_eps**2 + np.eye(d) / prior
                cov_ref = np.linalg.inv(precision)
                mu_ref = cov_ref @ (phi.T @ u) / sigma_eps**2
                assert np.abs(_cov(scale[a]) - cov_ref).max() < 1e-8
                assert np.abs(mu[a] - mu_ref).max() < 1e-8

    def test_matches_a_direct_solve_at_network_widths(self, rng):
        # the toy and default feature widths; 20 rows leave most of the
        # default precision to the prior
        for d, sigma_eps, prior in ((48, 3.0, 9.0), (128, 1.0, 1.0)):
            phis = [rng.normal(size=(n, d)) for n in (20, 300, 600)]
            us = [rng.normal(size=len(phi)) * 100.0 for phi in phis]
            mu, scale = blr_posterior(phis, us, sigma_eps, prior)
            for a, (phi, u) in enumerate(zip(phis, us)):
                precision = phi.T @ phi / sigma_eps**2 + np.eye(d) / prior
                cov_ref = np.linalg.inv(precision)
                mu_ref = np.linalg.solve(precision, phi.T @ u / sigma_eps**2)
                assert np.abs(_cov(scale[a]) - cov_ref).max() <= 1e-12 * np.abs(cov_ref).max()
                assert np.abs(mu[a] - mu_ref).max() <= 1e-12 * np.abs(mu_ref).max()

    def test_scale_is_exactly_upper_triangular(self, rng):
        # +0.0 bytes below the diagonal, so a row packs losslessly
        d = 40                  # two whole blocks of the inverse and a partial one
        phis = [rng.normal(size=(n, d)) for n in (1, 50, 400)]
        _, scale = blr_posterior(phis, [rng.normal(size=len(phi)) for phi in phis], 3.0, 9.0)
        lower = np.tril_indices(d, -1)
        below = scale[:, lower[0], lower[1]]
        assert below.tobytes() == bytes(below.nbytes)
        assert (np.diagonal(scale, axis1=1, axis2=2) > 0).all()

    def test_stack_is_bit_equal_to_one_fit_per_set(self, rng):
        # numpy's stacked gufuncs call LAPACK and BLAS once per matrix, so
        # a set's fit does not depend on the sets stacked with it
        for d in (3, 48, 130):
            sigma_eps, prior = 3.0, 9.0
            phis = [rng.normal(size=(n, d)) for n in (1, 7, 60, 300, 1500)]
            us = [rng.normal(size=len(phi)) for phi in phis]
            mu, scale = blr_posterior(phis, us, sigma_eps, prior)
            for a, (phi, u) in enumerate(zip(phis, us)):
                mu_a, scale_a = blr_posterior([phi], [u], sigma_eps, prior)
                assert mu[a].tobytes() == mu_a[0].tobytes()
                assert scale[a].tobytes() == scale_a[0].tobytes()

    def test_a_failed_factor_jitters_the_whole_stack(self, monkeypatch, caplog):
        calls = []
        factor = np.linalg.cholesky

        def fail_once(precision):
            calls.append(precision.copy())
            if len(calls) == 1:
                raise np.linalg.LinAlgError("Matrix is not positive definite")
            return factor(precision)

        monkeypatch.setattr(np.linalg, "cholesky", fail_once)
        phis = [np.eye(2), np.ones((3, 2))]
        blr_posterior(phis, [np.ones(2), np.ones(3)], 1.0, 1.0)
        assert "jitter" in caplog.text
        assert [c.shape for c in calls] == [(2, 2, 2)] * 2     # the stack, then again
        assert np.array_equal(calls[1], calls[0] + agents.JITTER * np.eye(2))

    def test_a_factor_failing_after_the_jitter_raises(self, monkeypatch):
        calls = []

        def fail(precision):
            calls.append(precision)
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", fail)
        with pytest.raises(np.linalg.LinAlgError):
            blr_posterior([np.eye(2)], [np.ones(2)], 1.0, 1.0)
        assert len(calls) == 2


def test_no_agent_loads_scipy():
    # the posterior fits on numpy's own LAPACK, so an oracle pass and an
    # episode of either agent, Bayes refits included, leave scipy (~20 MB
    # resident) unloaded
    code = textwrap.dedent("""
        import sys
        from oranmec import agents, harness
        cfg = harness.load_experiment_config(sys.argv[1])
        harness.run_oracle(cfg)
        for mode in ("egreedy", "bayes"):
            env, agent, provider, _ = harness.seeded_run(cfg, 0, mode=mode)
            agents.run_training(env, agent, provider, 1)
        print(agent.posterior.scale.flags.writeable, "scipy" in sys.modules)
    """)
    src = str(CONFIG_DIR.parent / "src")
    out = subprocess.run(
        [sys.executable, "-c", code, str(CONFIG_DIR / "toy.yaml")],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
    )
    assert out.stdout.split() == ["True", "False"]      # refit, and no scipy


class TestBranchPosterior:
    """The stacked ``Posterior``: one row per sub-action, branch j in rows
    ``cols[j]``."""

    def test_prior_state(self, rng):
        post = Posterior(branch_slices([3]), 4, prior_sigma=2.0, sigma_eps=1.0, rng=rng)
        assert np.array_equal(post.mu, np.zeros((3, 4)))
        assert np.array_equal(post.scale[1], np.sqrt(2.0) * np.eye(4))
        assert np.allclose(_cov(post.scale[1]), 2.0 * np.eye(4))

    def test_prior_is_shared_until_the_first_refit(self, rng):
        post = Posterior(branch_slices([3, 2]), 4, prior_sigma=2.0, sigma_eps=1.0, rng=rng)
        assert post.cols == [slice(0, 3), slice(3, 5)]
        assert post.scale.shape == (5, 4, 4)
        assert post.scale.strides[0] == 0 and not post.scale.flags.writeable
        mu_before = post.mu.copy()
        post.refit([4], [rng.normal(size=(5, 4))], [rng.normal(size=5)])
        assert post.scale.flags.c_contiguous and post.scale.flags.writeable
        for r in range(4):      # a refit writes only its own row
            assert np.array_equal(post.scale[r], np.sqrt(2.0) * np.eye(4))
            assert np.array_equal(post.mu[r], mu_before[r])
        assert not np.array_equal(post.scale[4], np.sqrt(2.0) * np.eye(4))
        assert not np.array_equal(post.mu[4], mu_before[4])

    def test_near_zero_covariance_samples_the_mean(self, rng):
        post = Posterior(branch_slices([2, 1]), 3, prior_sigma=1.0, sigma_eps=1.0, rng=rng)
        post.mu[...] = 5.0
        post.scale = np.zeros((3, 3, 3))
        post.resample(rng)
        assert np.array_equal(post.omega, post.mu)

    def test_sample_mean_approaches_posterior_mean(self):
        rng = np.random.default_rng(3)
        post = Posterior(branch_slices([1]), 2, prior_sigma=1.0, sigma_eps=1.0, rng=rng)
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
            post = Posterior(branch_slices([2, 3]), 3, 1.0, 1.0, rng)
            post.resample(rng)
            draws.append(post.omega.copy())
        assert np.array_equal(draws[0], draws[1])

    def test_thompson_sample_covers_all_branches(self, rng):
        post = Posterior(branch_slices([2, 2, 2]), 3, 1.0, 1.0, rng)
        before = post.omega.copy()
        post.resample(rng)
        assert all(not np.array_equal(before[c], post.omega[c]) for c in post.cols)

    def test_init_draws_branch_by_branch_sampled_then_target(self):
        sizes, d = [2, 3, 1], 4
        post = Posterior(branch_slices(sizes), d, 9.0, 1.0, np.random.default_rng(21))
        rng = np.random.default_rng(21)
        for cols, n in zip(post.cols, sizes):
            for weights in (post.omega, post.omega_tilde):
                assert np.array_equal(weights[cols], 3.0 * rng.standard_normal((n, d)))

    def test_stacked_resample_equals_per_branch_draws(self, rng):
        sizes, d = [3, 2, 4], 5
        post = Posterior(branch_slices(sizes), d, 2.0, 1.5, rng)
        for r in (0, 4, 5, 8):
            post.refit([r], [rng.normal(size=(7, d))], [rng.normal(size=7)])
        ref_rng = np.random.default_rng(77)
        post.resample(np.random.default_rng(77))
        for cols, n in zip(post.cols, sizes):
            z = ref_rng.standard_normal((n, d))
            ref = post.mu[cols] + np.einsum("aij,aj->ai", post.scale[cols], z)
            assert np.array_equal(post.omega[cols], ref)
        stacked_rng = np.random.default_rng(77)
        post.resample(stacked_rng)
        assert stacked_rng.bit_generator.state == ref_rng.bit_generator.state


def _rows(*rows):
    """One-state (1, d) feature matrices, as ``features`` returns them."""
    return [np.array([row], dtype=float) for row in rows]


def _argmax(post, phis, weights):
    """Per-branch best sub-action of one state's features under ``weights``."""
    return branch_argmax([phi @ weights[c].T for phi, c in zip(phis, post.cols)])


class TestThompsonSelection:
    def test_tie_breaks_to_lowest_index(self, rng):
        post = Posterior(branch_slices([3]), 2, 1.0, 1.0, rng)
        post.omega[...] = 1.0                    # identical weights per arm
        assert _argmax(post, _rows([0.5, 0.5]), post.omega)[0] == 0

    def test_hand_dot_products(self, rng):
        post = Posterior(branch_slices([2]), 2, 1.0, 1.0, rng)
        post.omega[0] = [0.0, 0.0]
        post.omega[1] = [1.0, 1.0]
        assert _argmax(post, _rows([1.0, 1.0]), post.omega)[0] == 1

    def test_each_branch_argmax_reads_its_own_rows(self, rng):
        post = Posterior(branch_slices([2, 3]), 2, 1.0, 1.0, rng)
        post.omega[:] = [[1, 0], [0, 1], [0, 0], [5, 0], [0, 9]]
        post.mu[:] = post.omega[::-1]
        assert list(_argmax(post, _rows([1, 0], [1, 0]), post.omega)) == [0, 1]
        assert list(_argmax(post, _rows([1, 0], [0, 1]), post.omega)) == [0, 2]
        assert list(_argmax(post, _rows([1, 0], [0, 1]), post.mu)) == [1, 1]

    def test_agent_acts_under_omega_and_evaluates_under_mu(self):
        agent = _filled_agent(mode="bayes", n_fill=32)
        agent.update_posteriors()
        agent.resample()
        x = np.random.default_rng(6).normal(size=6)
        phis = agent.net.features(x)
        post = agent.posterior
        for weights, act in ((post.omega, agent.select_action), (post.mu, agent.greedy_action)):
            ref = [np.argmax(phi[0] @ weights[c].T) for phi, c in zip(phis, post.cols)]
            assert list(act(x)) == ref

    def test_matches_greedy_head_when_weights_shared(self, rng):
        # a linear-head net and Thompson selection with the head's rows as
        # the sampled weights produce the same argmax
        from oranmec.neural import BranchingQNet

        net = BranchingQNet(4, [3, 2], trunk_widths=(6,), feature_dim=5, with_heads=True, seed=2)
        x = rng.normal(size=4)
        q_rows = net.q_values(x)
        greedy = select_action_egreedy(q_rows, 0.0, rng)
        post = Posterior(branch_slices([3, 2]), 5, 1.0, 1.0, rng)
        for head, cols in zip(net.w.heads, post.cols):
            post.omega[cols] = head.T
        sampled = _argmax(post, net.features(x), post.omega)
        assert np.array_equal(greedy, sampled)

    def test_positive_scaling_invariance(self, rng):
        for _ in range(20):
            post = Posterior(branch_slices([4]), 3, 1.0, 1.0, rng)
            post.omega = rng.normal(size=(4, 3))
            phi = [rng.normal(size=(1, 3))]
            base = _argmax(post, phi, post.omega)
            assert _argmax(post, phi, post.omega * 7.5) == base


def _filled_agent(
    mode="egreedy", batch_size=8, n_fill=32, seed=0, n_bs=1, feature_dim=4, **overrides
):
    cfg = toy_agent_config(seed, mode=mode, batch_size=batch_size, **overrides)
    state_dim = 6
    layout = ActionLayout(
        n_bs=n_bs, du_servers=(2,), cu_servers=(4,), bbu_flavors=(0, 1),
        mec_flavors=((0, 1), (0, 1)), n_services=2,
    )
    cfg.trunk_widths = (8, 8)
    cfg.feature_dim = feature_dim
    agent = make_agent(layout, state_dim, cfg)
    rng = np.random.default_rng(5)
    for _ in range(n_fill):
        s = rng.normal(size=state_dim)
        s2 = rng.normal(size=state_dim)
        idx = [rng.integers(n) for n in layout.branch_sizes()]
        agent.store(s, idx, float(rng.normal()), s2, bool(rng.uniform() < 0.1))
    return agent


def _count_target_rows(agent) -> list[int]:
    """Rows of every target-network forward from now on (a Q forward runs
    through ``features`` as well)."""
    rows: list[int] = []
    forward = agent.target_net.features

    def counted(x):
        rows.append(len(np.atleast_2d(x)))
        return forward(x)

    agent.target_net.features = counted
    return rows


def _fresh(batch):
    """The batch without its ring index: scored without the cache."""
    return {k: v for k, v in batch.items() if k != "index"}


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
        agent.buffer.reward[:len(agent.buffer)] = 0.0
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


    @pytest.mark.parametrize("mode", ["egreedy", "bayes"])
    def test_train_step_gradient_matches_a_per_branch_reference(self, mode):
        # (4, 128) is the default config's 36 branches and batch: there a
        # per-branch mean over a strided (not C-ordered) error row sums in
        # another order and moves the loss's last bits
        for n_bs, batch_size in ((2, 16), (4, 128)):
            self._check_per_branch_reference(mode, n_bs, batch_size)

    @staticmethod
    def _check_per_branch_reference(mode, n_bs, batch_size):
        agent = _filled_agent(mode=mode, n_fill=batch_size + 32, batch_size=batch_size, n_bs=n_bs)
        net = agent.net
        if mode == "bayes":
            agent.update_posteriors()       # moves the posterior means off zero
        drawn = agent.rng.bit_generator.state
        batch = agent.buffer.sample(batch_size, agent.rng)
        agent.rng.bit_generator.state = drawn      # train_step draws this batch again
        u = agent.compute_targets(batch)
        K, m, B = agent.layout.n_bs, agent.layout.branches_per_bs, len(u)
        rows = np.arange(B)
        if mode == "egreedy":
            q_rows = net.q_values(batch["state"])
        else:
            phis = net.features(batch["state"])
        loss, grads = 0.0, []
        for j in range(K * m):
            a = batch["action"][:, j]
            if mode == "egreedy":       # dL/dQ: only the taken entry of the row
                err = u - q_rows[j][rows, a]
                grad = np.zeros_like(q_rows[j])
                grad[rows, a] = -2.0 * err / (K * m * B)
            else:                       # dL/dphi of the posterior-mean Q
                w = agent.posterior.mu[agent.cols[j]][a]
                err = u - np.sum(phis[j] * w, axis=1)
                grad = -2.0 * err[:, None] * w / (K * m * B)
            loss += float(np.mean(err**2)) / (K * m)
            grads.append(grad)
        if mode == "egreedy":
            net.backward_from_q(grads)
        else:
            net.backward_from_features(grads)
        want = net.grads.copy()
        net.grads[...] = np.nan
        assert agent.train_step() == loss
        assert np.array_equal(net.grads, want)

    @pytest.mark.parametrize("config, shape", [
        ("toy.yaml", (18, 9, 64, 48)), ("default.yaml", (84, 36, 256, 128)),
    ], ids=["toy", "default"])
    def test_bayes_taken_pass_is_bit_equal_to_per_branch_products(self, config, shape):
        # _taken multiplies the gathered means into the feature stack in place
        # and sums over F once; its backward scales the C-ordered gather.  The
        # reference is one (B, F) product and sum per branch, and the strided
        # multiply and divide of the transposed gather
        cfg = load_experiment_config(CONFIG_DIR / config)
        env = build_env(cfg)
        agent = make_agent(env.layout, env.state_dim, dataclasses.replace(cfg.agent, seed=3))
        net = agent.net
        assert (net.state_dim, net.n_branches, net.trunk_widths[-1], net.feature_dim) == shape
        rng = np.random.default_rng(31)
        net.params += rng.normal(scale=0.01, size=net.params.size)     # nonzero biases
        agent.posterior.mu = rng.normal(size=agent.posterior.mu.shape)
        B = cfg.agent.batch_size
        states = rng.normal(size=(B, net.state_dim))
        actions = np.stack([rng.integers(n, size=B) for n in net.branch_sizes], axis=1)
        errs = rng.normal(size=(net.n_branches, B))

        phis = [phi.copy() for phi in net.features(states)]
        w = agent.posterior.mu[actions + agent.offsets].swapaxes(0, 1)
        want_taken = np.array([np.sum(phi * w_j, axis=1) for phi, w_j in zip(phis, w)])
        np.multiply(w, -2.0 * errs[:, :, None], out=w)
        np.divide(w, errs.size, out=w)
        net.backward_from_features(w)
        want_grads = net.grads.copy()
        net.grads[...] = np.nan

        taken, backward = agent._taken(states, actions)
        assert taken.flags.c_contiguous
        assert taken.tobytes() == want_taken.tobytes()
        backward(errs, errs.size)
        assert net.grads.tobytes() == want_grads.tobytes()


class TestPosteriorUpdate:
    def test_empty_buffer_keeps_posteriors(self):
        agent = _filled_agent(mode="bayes", n_fill=0)
        before_mu = agent.posterior.mu.copy()
        agent.update_posteriors()
        assert np.array_equal(before_mu, agent.posterior.mu)

    def test_matches_direct_solve(self):
        agent = _filled_agent(mode="bayes", n_fill=64)
        agent.update_posteriors()
        data = agent.buffer.chronological()
        u = agent.compute_targets(data)
        phis = agent.net.features(data["state"])
        cfg = agent.config
        post = agent.posterior
        for j, cols in enumerate(post.cols):
            actions = data["action"][:, j]
            for a in range(cols.stop - cols.start):
                rows = np.nonzero(actions == a)[0]
                if len(rows) == 0:
                    continue
                phi = phis[j][rows]
                precision = phi.T @ phi / cfg.sigma_eps**2 + np.eye(post.d) / cfg.prior_sigma
                cov_ref = np.linalg.inv(precision)
                mu_ref = cov_ref @ (phi.T @ u[rows]) / cfg.sigma_eps**2
                assert np.abs(post.mu[cols.start + a] - mu_ref).max() < 1e-8
                assert np.abs(_cov(post.scale[cols.start + a]) - cov_ref).max() < 1e-8

    def test_refit_factors_pack_into_their_upper_triangle(self):
        # what packed storage of the sampling factors rests on: after real
        # refits every row has +0.0 bytes below its diagonal, so packing the
        # upper triangle and unpacking it gives back the same bytes
        env, agent, provider, episode_seed = seeded_run(load_toy(), 0)
        run_training(env, agent, provider, 2, episode_seed_base=episode_seed)
        scale = agent.posterior.scale
        assert scale.flags.writeable                    # refit off the shared prior
        upper = np.triu_indices(agent.posterior.d)
        unpacked = np.zeros_like(scale)
        unpacked[:, upper[0], upper[1]] = scale[:, upper[0], upper[1]]
        assert unpacked.tobytes() == scale.tobytes()

    def test_unseen_sub_actions_keep_prior(self):
        agent = _filled_agent(mode="bayes", n_fill=16)
        # force every stored transition to sub-action 0 on branch 0
        agent.buffer.action[:len(agent.buffer), 0] = 0
        agent.update_posteriors()
        post = agent.posterior          # branch 0 owns rows 0 and 1
        prior_scale = np.sqrt(agent.config.prior_sigma) * np.eye(post.d)
        assert np.array_equal(post.mu[1], np.zeros(post.d))
        assert np.array_equal(post.scale[1], prior_scale)
        assert np.allclose(_cov(post.scale[1]), agent.config.prior_sigma * np.eye(post.d))
        assert np.any(post.mu[0] != 0.0)

    def test_dataset_cap_keeps_the_newest_transitions_oldest_first(self):
        # 40 pushes into a 24-slot ring, which wraps; sub-action 0 of branch 0
        # holds more than the cap of 5 of the 24 stored transitions
        capacity, pushes, cap = 24, 40, 5
        agent = _filled_agent(
            mode="bayes", n_fill=pushes, buffer_capacity=capacity, blr_dataset_cap=cap,
        )
        buf, post, cfg = agent.buffer, agent.posterior, agent.config
        assert len(buf) == capacity and buf.chronological_index()[0] != 0
        # the reference: every stored transition's features and TD target in
        # one pass, oldest first
        data = buf.gather(buf.chronological_index())
        u = agent.compute_targets(data)
        phi = agent.net.features(data["state"])[0]
        agent.update_posteriors()
        # stored push p (of the newest 24) sits at ring slot p % capacity
        stored = range(pushes - capacity, pushes)
        took_0 = [p for p in stored if buf.action[p % capacity, 0] == 0]
        assert len(took_0) > cap
        newest = np.array(took_0[-cap:]) - (pushes - capacity)     # chronological positions
        mu, scale = blr_posterior([phi[newest]], [u[newest]], cfg.sigma_eps, cfg.prior_sigma)
        assert np.array_equal(post.mu[0], mu[0])
        assert np.array_equal(post.scale[0], scale[0])

    def test_refresh_peak_stays_below_a_whole_ring_feature_copy(self):
        # the refresh keeps one trunk output per transition and forms one
        # branch's features at a time; a copy of every branch's features of
        # the whole ring, J*n*F*8 bytes (37 MB here), would exceed the bound
        n_fill, F = 4000, 32
        agent = _filled_agent(mode="bayes", n_fill=n_fill, n_bs=4, feature_dim=F)
        assert agent.net.n_branches == 36
        tracemalloc.start()
        try:
            agent.update_posteriors()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < agent.net.n_branches * n_fill * F * 8

    def test_chunked_refresh_matches_one_chunk(self, monkeypatch):
        fits = []
        for rows_per_chunk in (64, 5):
            agent = _filled_agent(mode="bayes", n_fill=64)
            row_bytes = 8 * agent.net.n_branches * agent.net.feature_dim
            monkeypatch.setattr(agents, "REFRESH_CHUNK_BYTES", rows_per_chunk * row_bytes)
            agent.update_posteriors()
            fits.append(agent.posterior)
        whole, chunked = fits
        np.testing.assert_allclose(chunked.mu, whole.mu, rtol=0, atol=1e-10)
        np.testing.assert_allclose(_cov(chunked.scale), _cov(whole.scale), rtol=0, atol=1e-10)

    def test_refresh_fills_the_target_score_cache(self):
        agent = _filled_agent(mode="bayes", n_fill=32, batch_size=16)
        agent.update_posteriors()
        agent.sync_target()
        rows = _count_target_rows(agent)
        agent.update_posteriors()
        assert rows == [32]
        assert agent.buffer.score_valid[:32].all()
        agent.compute_targets(agent.buffer.sample(16, agent.rng))
        assert rows == [32]


@pytest.mark.parametrize("mode", ["egreedy", "bayes"])
class TestTargetScoreCache:
    def test_second_call_is_all_hits_and_equal(self, mode):
        agent = _filled_agent(mode=mode, n_fill=32, batch_size=16)
        batch = agent.buffer.sample(16, agent.rng)
        rows = _count_target_rows(agent)
        first = agent.compute_targets(batch)
        assert rows == [16]
        second = agent.compute_targets(batch)
        assert rows == [16]
        assert np.array_equal(first, second)
        assert agent.buffer.score_valid[batch["index"]].all()

    def test_cached_targets_match_a_cache_free_recomputation(self, mode):
        agent = _filled_agent(mode=mode, n_fill=64, batch_size=16)
        for _ in range(5):      # fill the cache from batches of other compositions
            agent.compute_targets(agent.buffer.sample(16, agent.rng))
        batch = agent.buffer.sample(48, agent.rng)
        cached = agent.compute_targets(batch)
        np.testing.assert_allclose(cached, agent.compute_targets(_fresh(batch)), rtol=1e-12, atol=0)

    def test_sync_target_clears_the_cache(self, mode):
        agent = _filled_agent(mode=mode, n_fill=32, batch_size=16)
        batch = agent.buffer.chronological()
        agent.compute_targets(batch)
        agent.net.params[...] *= 1.5
        if mode == "bayes":
            agent.posterior.mu[...] = 1.0
        agent.sync_target()
        assert not agent.buffer.score_valid.any()
        rows = _count_target_rows(agent)
        after = agent.compute_targets(batch)
        assert rows == [32]
        assert np.array_equal(after, agent.compute_targets(_fresh(batch)))

    def test_overwriting_push_clears_its_slot_only(self, mode):
        agent = _filled_agent(mode=mode, n_fill=0, batch_size=4)
        agent.buffer = ReplayBuffer(
            capacity=8, state_dim=6, n_branches=agent.net.n_branches,
            score_width=agent.buffer.target_scores.shape[1],
        )
        for t in _random_transitions(8, state_dim=6, n_branches=agent.net.n_branches):
            agent.store(*t)
        batch = agent.buffer.chronological()
        agent.compute_targets(batch)
        s, a, r, s2, term = _random_transitions(1, 6, agent.net.n_branches, seed=9)[0]
        agent.store(s, a, r, s2, term)         # overwrites slot 0, the oldest
        assert list(agent.buffer.score_valid) == [False] + [True] * 7
        rows = _count_target_rows(agent)
        batch = agent.buffer.chronological()
        u = agent.compute_targets(batch)
        assert rows == [2]                     # the one miss, padded to two rows
        np.testing.assert_allclose(u, agent.compute_targets(_fresh(batch)), rtol=1e-12, atol=0)

    def test_lone_miss_is_padded_to_two_rows(self, mode):
        agent = _filled_agent(mode=mode, n_fill=32, batch_size=8)
        batch = agent.buffer.sample(8, agent.rng)
        agent.compute_targets(batch)
        slot = batch["index"][3]
        agent.buffer.score_valid[slot] = False
        stale = agent.buffer.target_scores[slot].copy()
        rows = _count_target_rows(agent)
        agent.compute_targets(batch)
        assert rows == [2]
        # a two-row forward gives the row as the 8-row one did, to rounding
        np.testing.assert_allclose(agent.buffer.target_scores[slot], stale, rtol=1e-12, atol=0)
        assert agent.buffer.score_valid[slot]

    def test_load_checkpoint_clears_the_cache(self, mode, tmp_path):
        agent = _filled_agent(mode=mode, n_fill=32, batch_size=16)
        if mode == "bayes":
            agent.update_posteriors()
        agent.sync_target()
        path = tmp_path / "ckpt.npz"
        agent.save_checkpoint(path)
        for _ in range(3):
            agent.train_step()
        if mode == "bayes":
            agent.update_posteriors()
        agent.sync_target()
        batch = agent.buffer.chronological()
        agent.compute_targets(batch)
        agent.load_checkpoint(path)
        assert not agent.buffer.score_valid.any()
        assert np.array_equal(agent.compute_targets(batch), agent.compute_targets(_fresh(batch)))


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
            for attr in ("mu", "scale", "omega", "omega_tilde"):
                assert np.array_equal(getattr(agent.posterior, attr), getattr(twin.posterior, attr))
            # the target weights come from the file, not from a sync
            assert not np.array_equal(twin.posterior.mu, twin.posterior.omega_tilde)

    def test_next_thompson_draw_after_a_load_equals_the_saved_agents(self, tmp_path):
        cfg = load_toy()
        env, agent, provider, episode_seed = seeded_run(cfg, 2)
        run_training(env, agent, provider, 2, episode_seed_base=episode_seed)
        path = tmp_path / "agent.npz"
        agent.save_checkpoint(path)
        twin = seeded_run(cfg, 5)[1]
        twin.load_checkpoint(path)
        twin.rng.bit_generator.state = agent.rng.bit_generator.state
        agent.resample()
        twin.resample()
        assert np.array_equal(twin.posterior.omega, agent.posterior.omega)

    def test_only_refit_rows_of_the_sampling_factor_are_stored(self, tmp_path):
        agent = _filled_agent(mode="bayes", n_fill=16)
        post = agent.posterior
        path = tmp_path / "agent.npz"
        cfg = dataclasses.replace(agent.config, pretrained_checkpoint=str(path))
        agent.save_checkpoint(path)
        with np.load(path) as stored:
            assert stored["extra_post_scale"].shape == (0, post.d, post.d)
            assert stored["extra_post_scale_rows"].size == 0
        # no refit yet: the loaded rows share the read-only prior
        assert not make_agent(agent.layout, 6, cfg).posterior.scale.flags.writeable

        # branch 0 owns rows 0 and 1; with only sub-action 0 seen, row 1 keeps the prior
        agent.buffer.action[:len(agent.buffer), 0] = 0
        agent.update_posteriors()
        agent.save_checkpoint(path)
        with np.load(path) as stored:
            rows = stored["extra_post_scale_rows"]
            assert 0 in rows and 1 not in rows
            assert np.array_equal(stored["extra_post_scale"], post.scale[rows])
        twin = make_agent(agent.layout, 6, cfg)
        assert np.array_equal(twin.posterior.scale, post.scale)


V4_KEYS = ["params", "adam_m", "adam_v"]
V4_POSTERIOR_KEYS = ["extra_post_mu", "extra_post_omega", "extra_post_omega_tilde",
                     "extra_post_scale_rows", "extra_post_scale"]


def _header(meta: dict) -> np.ndarray:
    return np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)


def _v4_arrays(agent, rng) -> dict[str, np.ndarray]:
    """A v4 checkpoint of ``agent``'s shapes, written out by hand in the
    format's key order, with random contents and Adam at step 5."""
    n = agent.net.params.size
    blobs = {"params": rng.normal(size=n), "adam_m": rng.normal(size=n),
             "adam_v": rng.uniform(size=n)}
    if agent.config.mode == "bayes":
        post = agent.posterior
        blobs.update({f"extra_post_{name}": rng.normal(size=post.mu.shape)
                      for name in ("mu", "omega", "omega_tilde")})
        blobs["extra_post_scale_rows"] = np.array([0, 2])
        blobs["extra_post_scale"] = rng.normal(size=(2, post.d, post.d))
    blobs["_meta"] = _header({"version": 4, "arch": agent.net.arch(), "adam_t": 5})
    return blobs


class TestCheckpointFormat:
    """The v4 archive pinned at the agent, which alone writes and reads it."""

    @pytest.mark.parametrize("mode", ["egreedy", "bayes"])
    def test_save_writes_the_v4_key_list(self, tmp_path, mode):
        agent = _filled_agent(mode=mode)
        for _ in range(3):
            agent.train_step()
        path = tmp_path / "agent.npz"
        agent.save_checkpoint(path)
        with zipfile.ZipFile(path) as archive:
            keys = [name.removesuffix(".npy") for name in archive.namelist()]
        posterior = V4_POSTERIOR_KEYS if mode == "bayes" else []
        assert keys == V4_KEYS + posterior + ["_meta"]
        with np.load(path) as archive:
            meta = json.loads(bytes(archive["_meta"]).decode())
        assert list(meta) == ["version", "arch", "adam_t"]
        assert meta == {"version": 4, "arch": agent.net.arch(), "adam_t": 3}

    @pytest.mark.parametrize("mode", ["egreedy", "bayes"])
    def test_hand_built_v4_archive_loads(self, tmp_path, mode):
        agent = _filled_agent(mode=mode)
        blobs = _v4_arrays(agent, np.random.default_rng(3))
        path = tmp_path / "v4.npz"
        np.savez(path, **blobs)
        agent.load_checkpoint(path)
        assert np.array_equal(agent.net.params, blobs["params"])
        assert np.array_equal(agent.target_net.params, blobs["params"])
        assert np.array_equal(agent.adam.m, blobs["adam_m"])
        assert np.array_equal(agent.adam.v, blobs["adam_v"])
        assert agent.adam.t == 5
        if mode == "bayes":
            post = agent.posterior
            for name in ("mu", "omega", "omega_tilde"):
                assert np.array_equal(getattr(post, name), blobs[f"extra_post_{name}"])
            assert np.array_equal(post.scale[[0, 2]], blobs["extra_post_scale"])
            for row in set(range(len(post.mu))) - {0, 2}:
                assert np.array_equal(post.scale[row], post.prior_scale)

    @pytest.mark.parametrize("key", ["_meta", *V4_KEYS, *V4_POSTERIOR_KEYS])
    def test_a_missing_array_is_named(self, tmp_path, key):
        agent = _filled_agent(mode="bayes")
        blobs = _v4_arrays(agent, np.random.default_rng(4))
        del blobs[key]
        path = tmp_path / "v4.npz"
        np.savez(path, **blobs)
        message = f"{path} is not an oranmec checkpoint: missing {key}"
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            agent.load_checkpoint(path)

    @pytest.mark.parametrize("header, message", [
        (b"{4}", "_meta is not a JSON header: Expecting property name"),
        (b"\xff", "_meta is not a JSON header: 'utf-8' codec can't decode"),
        (b"[4]", "_meta is not a JSON object: [4]"),
        ({}, "_meta adam_t must be a nonnegative integer, got None"),
        ({"adam_t": -1}, "_meta adam_t must be a nonnegative integer, got -1"),
        ({"adam_t": 2.5}, "_meta adam_t must be a nonnegative integer, got 2.5"),
        ({"adam_t": "3"}, "_meta adam_t must be a nonnegative integer, got '3'"),
        ({"adam_t": True}, "_meta adam_t must be a nonnegative integer, got True"),
    ], ids=["json", "utf-8", "list", "no-adam_t", "negative", "float", "string", "bool"])
    def test_a_malformed_header_is_refused(self, tmp_path, header, message):
        agent = _filled_agent(mode="egreedy")
        blobs = _v4_arrays(agent, np.random.default_rng(5))
        if isinstance(header, dict):        # this agent's v4 header, adam_t as given
            header = json.dumps({"version": 4, "arch": agent.net.arch(), **header}).encode()
        blobs["_meta"] = np.frombuffer(header, dtype=np.uint8)
        path = tmp_path / "v4.npz"
        np.savez(path, **blobs)
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            agent.load_checkpoint(path)
        assert agent.adam.t == 0

    def test_versions_one_to_three_rejected(self, tmp_path):
        agent = _filled_agent(mode="bayes")
        arch, params = agent.net.arch(), agent.net.params
        layouts = {
            # the per-tensor layout: one param_<i> array per tensor
            1: {f"param_{i}": w for i, w in enumerate(agent.net.w.tensors())},
            # the flat layout with one posterior covariance per branch
            2: {"params": params, "extra_post_cov_0": np.zeros((3, 4, 4))},
            # the dense posterior sampling factor, prior rows included
            3: {"params": params, "extra_post_scale": np.zeros((3, 4, 4))},
        }
        extra_keys = {1: {}, 2: {"extra_keys": ["post_cov_0"]}, 3: {"extra_keys": ["post_scale"]}}
        for version, blobs in layouts.items():
            meta = {"version": version, "arch": arch, "adam_t": None, **extra_keys[version]}
            path = tmp_path / f"v{version}.npz"
            np.savez(path, **blobs, _meta=_header(meta))
            with pytest.raises(ValueError, match=f"unsupported checkpoint version {version}"):
                agent.load_checkpoint(path)


class TestRunTraining:
    def test_single_episode_smoke(self):
        env, agent, provider, episode_seed = seeded_run(load_toy(episode_slots=4), 0)
        result = run_training(env, agent, provider, 1, episode_seed_base=episode_seed)
        assert len(result.episodes) == 1
        assert len(result.steps) == 4
        assert result.episodes[0].mean_reward < 0

    def test_seeded_runs_identical(self):
        logs = []
        for _ in range(2):
            env, agent, provider, episode_seed = seeded_run(load_toy(episode_slots=8), 3)
            result = run_training(env, agent, provider, 2, episode_seed_base=episode_seed)
            logs.append([(r.total_reward, r.penalty_total) for r in result.episodes])
        assert logs[0] == logs[1]

    def test_modes_produce_different_trajectories(self):
        outs = []
        for mode in ("bayes", "egreedy"):
            env, agent, provider, _ = seeded_run(load_toy(episode_slots=8), 3, mode=mode)
            result = run_training(env, agent, provider, 2)
            outs.append([r.total_reward for r in result.episodes])
        assert outs[0] != outs[1]

    def test_greedy_evaluation_runs(self):
        env, agent, provider, _ = seeded_run(load_toy(episode_slots=4), 1)
        value = evaluate_greedy(env, agent, provider(0))
        assert np.isfinite(value)

    @pytest.mark.parametrize("mode", ["egreedy", "bayes"])
    def test_greedy_evaluation_leaves_the_rng_alone(self, mode):
        # an evaluation between training episodes must not shift the
        # training stream that follows it
        env, agent, provider, _ = seeded_run(load_toy(episode_slots=8), 1, mode=mode)
        run_training(env, agent, provider, 1)
        before = agent.rng.bit_generator.state
        evaluate_greedy(env, agent, provider(0), noise_seed=3)
        assert agent.rng.bit_generator.state == before


class TestEpsilonSchedule:
    def test_linear_decay(self):
        cfg = toy_agent_config(0, mode="egreedy",
                               eps_max=1.0, eps_min=0.05, eps_decay_episodes=100)
        agent = EGreedyAgent(make_toy_env().layout, 4, cfg)
        assert agent.epsilon(0) == 1.0
        assert agent.epsilon(50) == pytest.approx(0.525)
        assert agent.epsilon(100) == pytest.approx(0.05)
        assert agent.epsilon(500) == pytest.approx(0.05)

    def test_pretrained_default_lowers_exploration(self, tmp_path, monkeypatch):
        import yaml

        from oranmec import cli
        from oranmec.config import read_section

        def start(agent_cfg):
            return EGreedyAgent(make_toy_env().layout, 4, agent_cfg).epsilon(0)

        # the yaml key: eps_max is capped at 0.1, whether set or defaulted
        for eps_max, expected in ((None, 0.1), (0.5, 0.1), (0.05, 0.05)):
            raw = {"mode": "egreedy", "pretrained_checkpoint": "x.npz"}
            if eps_max is not None:
                raw["eps_max"] = eps_max
            assert start(read_section(AgentConfig, raw, "agent")) == expected
        assert start(read_section(AgentConfig, {"mode": "egreedy"}, "agent")) == 1.0

        # oranmec run --pretrained: the same rule on the config it runs
        seen = []
        monkeypatch.setattr(cli, "run_experiment", lambda cfg: seen.append(cfg) or [])
        raw = yaml.safe_load((CONFIG_DIR / "toy.yaml").read_text())
        raw["agent"] = {"mode": "egreedy", "eps_max": 0.5, "eps_min": 0.05}
        config = tmp_path / "toy.yaml"
        config.write_text(yaml.safe_dump(raw))
        assert cli.main(["run", "--config", str(config), "--pretrained", "x.npz"]) == 0
        assert seen[0].agent.pretrained_checkpoint == "x.npz"
        assert start(seen[0].agent) == 0.1

    @pytest.mark.parametrize("eps_min, eps_max", [(0.2, 1.0), (0.05, 1.0), (0.1, 0.1), (0.3, 0.5)])
    @pytest.mark.parametrize("pretrained", [None, "x.npz"])
    def test_epsilon_never_rises(self, eps_min, eps_max, pretrained):
        # a pretrained run starts at 0.1, or at eps_min when that is higher
        cfg = toy_agent_config(0, mode="egreedy", eps_max=eps_max, eps_min=eps_min,
                               eps_decay_episodes=10, pretrained_checkpoint=pretrained)
        schedule = [EGreedyAgent(make_toy_env().layout, 4, cfg).epsilon(e) for e in range(25)]
        assert all(b <= a for a, b in zip(schedule, schedule[1:]))
        assert schedule[-1] == pytest.approx(eps_min)
