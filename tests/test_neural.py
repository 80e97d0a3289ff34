import json

import numpy as np
import pytest

from oranmec.env import ActionLayout
from oranmec.neural import (
    ADAM_BLOCK,
    CHECKPOINT_VERSION,
    Adam,
    BranchingQNet,
    GradientError,
    load_checkpoint,
    save_checkpoint,
)


def small_net(seed=0, with_heads=True):
    return BranchingQNet(
        5, [3, 4], trunk_widths=(8, 8), feature_dim=6,
        with_heads=with_heads, seed=seed,
    )


def zero_params(net):
    for p in net.parameters():
        p[...] = 0.0


def finite_difference_check(net, x, rng, h=1e-5):
    """Max relative error between analytic and central-difference grads for
    a random linear functional of the Q outputs."""
    cs = [rng.normal(size=q.shape) for q in net.q_values(x)]

    def loss():
        return sum(float(np.sum(c * q)) for c, q in zip(cs, net.q_values(x)))

    net.q_values(x)
    net.backward_from_q(cs)
    grads = [g.copy() for g in net.gradients()]
    worst = 0.0
    for p, g in zip(net.parameters(), grads):
        flat, gflat = p.reshape(-1), g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss()
            flat[i] = orig - h
            down = loss()
            flat[i] = orig
            fd = (up - down) / (2 * h)
            denom = max(abs(fd), abs(gflat[i]))
            if denom < 1e-10:
                continue
            worst = max(worst, abs(fd - gflat[i]) / denom)
    return worst


class TestForward:
    def test_zero_parameters_give_zero_outputs(self):
        net = small_net()
        zero_params(net)
        out = net.q_values(np.ones(5))
        assert all(np.all(q == 0.0) for q in out)

    def test_single_linear_unit(self):
        net = BranchingQNet(1, [1], trunk_widths=(1,), feature_dim=1, seed=0)
        for p in net.parameters():
            p[...] = 0.0
        net.w.trunk[0][...] = 1.0          # pass-through trunk
        net.w.branch[...] = 1.0            # pass-through feature
        net.w.heads[0][...] = 3.0
        assert net.q_values(np.array([2.0]))[0][0, 0] == 6.0

    def test_batched_rows_match_single_calls(self):
        # BLAS picks different kernels per operand shape, so agreement is
        # up to last-ulp accumulation order, not bitwise.
        net = small_net(seed=3)
        x = np.random.default_rng(0).normal(size=(4, 5))
        batched = net.q_values(x)
        for i in range(4):
            single = net.q_values(x[i])
            for qb, qs in zip(batched, single):
                assert np.allclose(qb[i], qs[0], rtol=0, atol=1e-12)

    def test_identical_rows_for_identical_inputs(self):
        net = small_net(seed=4)
        x = np.tile(np.arange(5.0), (2, 1))
        for q in net.q_values(x):
            assert np.array_equal(q[0], q[1])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            small_net().q_values(np.ones(7))

    def test_feature_dimension(self):
        phis = small_net().features(np.ones((2, 5)))
        assert [p.shape for p in phis] == [(2, 6), (2, 6)]


class TestBackward:
    def test_hand_chain_rule_single_weight(self):
        # squared loss on a single linear weight: w=1, x=2, target 0
        # dL/dw = 2 * (w*x - 0) * x = 8
        net = BranchingQNet(1, [1], trunk_widths=(1,), feature_dim=1, seed=0)
        for p in net.parameters():
            p[...] = 0.0
        net.w.trunk[0][...] = 1.0
        net.w.branch[...] = 1.0
        net.w.heads[0][...] = 1.0
        q = net.q_values(np.array([[2.0]]))[0]
        assert q[0, 0] == 2.0
        net.backward_from_q([2.0 * q])
        assert net.dw.heads[0][0, 0] == 8.0

    def test_zero_loss_gradient_gives_zero_grads(self):
        net = small_net(seed=5)
        qs = net.q_values(np.ones((2, 5)))
        net.backward_from_q([np.zeros_like(q) for q in qs])
        assert all(np.all(g == 0.0) for g in net.gradients())

    def test_backward_before_forward_raises(self):
        net = small_net()
        with pytest.raises(RuntimeError):
            net.backward_from_q([np.zeros((1, 3)), np.zeros((1, 4))])

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for trial in range(3):
            net = small_net(seed=trial)
            x = rng.normal(size=(2, 5))
            assert finite_difference_check(net, x, rng) < 1e-4

    def test_branch_gradients_reach_shared_trunk(self):
        net = small_net(seed=8)
        qs = net.q_values(np.ones((1, 5)))
        d_qs = [np.zeros_like(q) for q in qs]
        d_qs[1][0, 0] = 1.0                     # error on one branch only
        net.backward_from_q(d_qs)
        assert any(np.any(g != 0.0) for g in net.dw.trunk)


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        w = np.array([1.0, -2.0])
        opt = Adam(w, lr=0.1)
        opt.step(np.zeros(2))
        assert np.array_equal(w, [1.0, -2.0])

    def test_first_step_moves_by_learning_rate(self):
        # bias-corrected first step: lr * g / (|g| + eps) ~ lr
        w = np.array([1.0])
        opt = Adam(w, lr=0.1)
        opt.step(np.array([1.0]))
        assert w[0] == pytest.approx(0.9, abs=1e-8)

    def test_descends_convex_quadratic(self):
        w = np.array([5.0])
        opt = Adam(w, lr=0.05)
        losses = []
        for _ in range(100):
            losses.append(float(w[0] ** 2))
            opt.step(2.0 * w)
        assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_rejects_nan_gradient(self):
        w = np.array([1.0])
        opt = Adam(w, lr=0.1)
        with pytest.raises(GradientError):
            opt.step(np.array([np.nan]))
        assert w[0] == 1.0

    def test_parameters_stay_finite_under_training(self):
        net = small_net(seed=9)
        opt = Adam(net.params, lr=1e-2)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(8, 5))
        for _ in range(50):
            qs = net.q_values(x)
            net.backward_from_q([q / 8 for q in qs])   # pull toward zero
            opt.step(net.grads)
        assert all(np.all(np.isfinite(p)) for p in net.parameters())


class TestTargetClone:
    def test_clone_is_isolated(self):
        net = small_net(seed=10)
        target = net.clone()
        x = np.ones((1, 5))
        before = [q.copy() for q in target.q_values(x)]
        for p in net.parameters():
            p += 1.0
        after = target.q_values(x)
        for b, a in zip(before, after):
            assert np.array_equal(b, a)

    def test_clone_twice_identical(self):
        net = small_net(seed=11)
        a, b = net.clone(), net.clone()
        x = np.random.default_rng(2).normal(size=(5, 5))
        for qa, qb in zip(a.q_values(x), b.q_values(x)):
            assert np.array_equal(qa, qb)

    def test_fresh_clone_agrees_on_random_inputs(self):
        net = small_net(seed=12)
        target = net.clone()
        x = np.random.default_rng(3).normal(size=(100, 5))
        for qn, qt in zip(net.q_values(x), target.q_values(x)):
            assert np.array_equal(qn, qt)

    def test_clone_keeps_no_activations_and_cannot_backward(self):
        net = small_net(seed=19)
        target = net.clone()
        assert target.grads is None
        qs = target.q_values(np.ones((2, 5)))
        with pytest.raises(RuntimeError):
            target.backward_from_q([np.zeros_like(q) for q in qs])

    def test_backward_releases_activations(self):
        net = small_net(seed=20)
        qs = net.q_values(np.ones((2, 5)))
        net.backward_from_q([np.ones_like(q) for q in qs])
        with pytest.raises(RuntimeError):
            net.backward_from_q([np.ones_like(q) for q in qs])


class TestArchitectureAudit:
    def test_head_outputs_match_branch_catalogue(self):
        layout = ActionLayout(
            n_bs=1, du_servers=(1, 2, 3, 4), cu_servers=(5, 6), n_services=2
        )
        net = BranchingQNet(84, layout.branch_sizes(), seed=0)
        assert sum(w.shape[1] for w in net.w.heads) == 78
        assert layout.joint_cardinality() == 8_388_608

    def test_branch_count_scales_with_bs(self):
        layout = ActionLayout(
            n_bs=4, du_servers=(1, 2, 3, 4), cu_servers=(5, 6), n_services=2
        )
        net = BranchingQNet(84, layout.branch_sizes(), seed=0)
        assert net.n_branches == 4 * 9


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        net = small_net(seed=13)
        opt = Adam(net.params, lr=1e-3)
        qs = net.q_values(np.ones((2, 5)))
        net.backward_from_q([np.ones_like(q) for q in qs])
        opt.step(net.grads)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, net, opt, extra={"post_mu_0": np.arange(3.0)})

        data = load_checkpoint(path)
        assert data["meta"]["arch"] == net.arch()
        twin = small_net(seed=99)
        twin.load_params(data["params"])
        twin_opt = Adam(twin.params)
        twin_opt.load_state(data["adam"]["m"], data["adam"]["v"], data["meta"]["adam_t"])
        x = np.random.default_rng(4).normal(size=(3, 5))
        for qa, qb in zip(net.q_values(x), twin.q_values(x)):
            assert np.array_equal(qa, qb)
        assert twin_opt.t == opt.t
        assert np.array_equal(twin_opt.m, opt.m) and np.array_equal(twin_opt.v, opt.v)
        assert np.array_equal(data["extra"]["post_mu_0"], np.arange(3.0))

    def test_shape_table_validated(self, tmp_path):
        net = small_net(seed=14)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, net)
        data = load_checkpoint(path)
        other = BranchingQNet(5, [3, 5], trunk_widths=(8, 8), feature_dim=6, seed=0)
        with pytest.raises(ValueError):
            other.load_params(data["params"])

    def test_version_one_file_rejected(self, tmp_path):
        # the per-tensor layout: one param_<i> array per tensor
        net = small_net(seed=15)
        meta = {"version": 1, "arch": net.arch(), "adam_t": None}
        blobs = {f"param_{i}": p for i, p in enumerate(net.parameters())}
        blobs["_meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        path = tmp_path / "v1.npz"
        np.savez(path, **blobs)
        assert CHECKPOINT_VERSION == 2
        with pytest.raises(ValueError, match="unsupported checkpoint version 1"):
            load_checkpoint(path)


def per_branch_reference(net, x):
    """Features and Q rows computed branch by branch from the parameter
    views, each branch's weights copied out to their own array as in a
    network with one dense layer per branch."""
    h = np.atleast_2d(x)
    for w, b in zip(net.w.trunk, net.w.trunk_bias):
        h = np.maximum(h @ w + b, 0.0)
    F = net.feature_dim
    phis, qs = [], []
    for j in range(net.n_branches):
        cols = slice(j * F, (j + 1) * F)
        w = np.ascontiguousarray(net.w.branch[:, cols])
        phis.append(np.maximum(h @ w + net.w.branch_bias[cols], 0.0))
        if net.with_heads:
            qs.append(phis[-1] @ net.w.heads[j])
    return phis, qs


def trained(net, x, steps=3):
    """A few Adam steps so biases and weights are all non-trivial."""
    opt = Adam(net.params, lr=1e-2)
    for _ in range(steps):
        qs = net.q_values(x)
        net.backward_from_q([np.ones_like(q) for q in qs])
        opt.step(net.grads)
    return net


class TestFusedBranches:
    @pytest.mark.parametrize("state_dim,sizes,widths,F,batch", [
        (5, [3, 4, 2], (8, 8), 6, 7),
        (84, [4, 4, 2, 16, 16, 16, 16, 2, 2], (256, 256, 256), 128, 128),
    ], ids=["small", "full-width"])
    def test_bit_equal_to_per_branch_reference(self, state_dim, sizes, widths, F, batch):
        rng = np.random.default_rng(21)
        net = BranchingQNet(state_dim, sizes, trunk_widths=widths, feature_dim=F, seed=3)
        x = rng.normal(size=(batch, state_dim))
        trained(net, x)
        ref_phis, ref_qs = per_branch_reference(net, x)
        for phi, ref in zip(net.features(x), ref_phis):
            assert np.array_equal(phi, ref)
        for q, ref in zip(net.q_values(x), ref_qs):
            assert np.array_equal(q, ref)
        for phi, ref in zip(net.features(x[0]), per_branch_reference(net, x[0])[0]):
            assert np.array_equal(phi, ref)

    def test_features_are_views_of_one_output(self):
        net = small_net(seed=16)
        phis = net.features(np.ones((2, 5)))
        assert all(phi.base is phis[0].base for phi in phis)

    def test_views_share_the_flat_vectors(self):
        net = small_net(seed=17)
        assert sum(p.size for p in net.parameters()) == net.params.size
        assert all(np.shares_memory(p, net.params) for p in net.parameters())
        assert all(np.shares_memory(g, net.grads) for g in net.gradients())
        net.params[:] = 0.0
        assert all(np.all(p == 0.0) for p in net.parameters())

    def test_seeded_init_draws_branch_by_branch(self):
        # the draw order of a network with one dense layer per branch
        net = small_net(seed=18)
        rng = np.random.default_rng(18)
        for n_in, n_out in ((5, 8), (8, 8)):
            rng.uniform(-1 / np.sqrt(n_in), 1 / np.sqrt(n_in), size=(n_in, n_out))
        for j in range(net.n_branches):
            w = rng.uniform(-1 / np.sqrt(8), 1 / np.sqrt(8), size=(8, 6))
            assert np.array_equal(net.w.branch[:, 6 * j:6 * (j + 1)], w)
        assert np.array_equal(net.w.branch_bias, np.zeros(12))


def textbook_adam(params, grads_seq, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Unblocked per-tensor Adam, one expression per moment and update."""
    p = [q.copy() for q in params]
    m = [np.zeros_like(q) for q in p]
    v = [np.zeros_like(q) for q in p]
    for t, grads in enumerate(grads_seq, start=1):
        b1t = 1.0 - beta1 ** t
        b2t = 1.0 - beta2 ** t
        for i, g in enumerate(grads):
            m[i] = beta1 * m[i] + (1.0 - beta1) * g
            v[i] = beta2 * v[i] + (1.0 - beta2) * g * g
            p[i] = p[i] - lr * (m[i] / b1t) / (np.sqrt(v[i] / b2t) + eps)
    return p, m, v


class TestBlockedAdam:
    def test_bit_equal_to_per_tensor_update(self):
        rng = np.random.default_rng(22)
        sizes = [ADAM_BLOCK + 5, 3, ADAM_BLOCK - 1, 1000]   # not a block multiple
        assert sum(sizes) % ADAM_BLOCK != 0
        tensors = [rng.normal(size=n) for n in sizes]
        grads_seq = [[rng.normal(size=n) * 10.0 ** rng.integers(-4, 3) for n in sizes]
                     for _ in range(4)]
        flat = np.concatenate(tensors)
        opt = Adam(flat, lr=1e-3)
        for grads in grads_seq:
            opt.step(np.concatenate(grads))
        p, m, v = textbook_adam(tensors, grads_seq, lr=1e-3)
        assert np.array_equal(flat, np.concatenate(p))
        assert np.array_equal(opt.m, np.concatenate(m))
        assert np.array_equal(opt.v, np.concatenate(v))
        assert opt.t == 4

    def test_nan_in_a_late_block_rejects_the_whole_update(self):
        flat = np.ones(2 * ADAM_BLOCK + 7)
        opt = Adam(flat, lr=0.1)
        g = np.ones_like(flat)
        g[-1] = np.inf
        with pytest.raises(GradientError):
            opt.step(g)
        assert np.all(flat == 1.0) and opt.t == 0

    def test_rejects_non_flat_parameters(self):
        with pytest.raises(ValueError):
            Adam(np.zeros((2, 3)))
