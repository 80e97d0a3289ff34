"""Learning agents for the orchestration MDP.

Two agents share the same branching double-Q machinery: every branch picks
its next sub-action with the online network and evaluates it with a target
network, and the per-branch bootstrapped values are averaged (per BS, then
across BSs) into one global TD target.

* ``EGreedyAgent`` keeps linear Q heads on the branch features and explores
  with an annealed epsilon-greedy rule.
* ``BayesAgent`` drops the point-estimate heads: each sub-action's last-layer
  weight vector gets a closed-form Gaussian posterior (Bayesian linear
  regression over the branch features), and exploration is Thompson
  sampling from those posteriors.  The feature network itself is trained by
  regressing the posterior-mean Q values onto the TD targets.

The training loop follows a fixed schedule: posteriors refresh every
``T_p`` slots, the target network (and the target last-layer weights, set
to the posterior means) syncs every ``T_g``, and the Thompson weights are
re-drawn every ``T_s``.  All counters are global across episodes and fire
when ``count % period == 0``.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import neural
from .env import Action, ActionLayout, CostBreakdown, OranMecEnv
from .neural import Adam, BranchingQNet

logger = logging.getLogger("oranmec.agents")

JITTER = 1e-6

# Bytes of one fused branch-layer output per posterior-refresh chunk.  It
# bounds the refresh's temporaries, which would otherwise grow with the
# replay buffer, and keeps them below the 4 MiB at which numpy asks for
# transparent huge pages: huge-page backing makes resident memory depend on
# what the host has free.
REFRESH_CHUNK_BYTES = 2 << 20


@dataclass
class AgentConfig:
    """Knobs for both agent flavors; defaults are the full-scale settings."""

    mode: str = "bayes"                  # "bayes" | "egreedy"
    batch_size: int = 128
    buffer_capacity: int = 1_000_000
    lr: float = 1e-4
    gamma: float = 1.0
    T_p: int = 1440     # posterior refresh period (slots)
    T_g: int = 1440     # target-network sync period
    T_s: int = 144      # Thompson resample period
    sigma_eps: float = 1.0
    prior_sigma: float = 1.0
    eps_max: float = 1.0
    eps_min: float = 0.05
    eps_decay_episodes: int = 100
    seed: int = 0
    pretrained_checkpoint: str | None = None
    trunk_widths: tuple[int, ...] = (256, 256, 256)
    feature_dim: int = 128
    blr_dataset_cap: int = 10_000

    def __post_init__(self):
        if self.mode not in ("bayes", "egreedy"):
            raise ValueError(f"unknown agent mode {self.mode!r}")
        if min(self.T_p, self.T_g, self.T_s) <= 0:
            raise ValueError("schedule periods must be positive")
        if not (0.0 <= self.eps_min <= self.eps_max <= 1.0):
            raise ValueError("need 0 <= eps_min <= eps_max <= 1")


class ReplayBuffer:
    """Fixed-capacity ring of transitions, oldest evicted first."""

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._data: list = []
        self._pos = 0

    def push(self, state_vec, action_idx, reward, next_vec, terminal) -> None:
        item = (
            np.asarray(state_vec, dtype=np.float64),
            np.asarray(action_idx, dtype=np.int64),
            float(reward),
            np.asarray(next_vec, dtype=np.float64),
            bool(terminal),
        )
        if len(self._data) < self.capacity:
            self._data.append(item)
        else:
            self._data[self._pos] = item
        self._pos = (self._pos + 1) % self.capacity

    def __len__(self) -> int:
        return len(self._data)

    def _stack(self, indices) -> dict[str, np.ndarray]:
        rows = [self._data[i] for i in indices]
        return {
            "state": np.stack([r[0] for r in rows]),
            "action": np.stack([r[1] for r in rows]),
            "reward": np.array([r[2] for r in rows]),
            "next_state": np.stack([r[3] for r in rows]),
            "terminal": np.array([r[4] for r in rows]),
        }

    def sample(self, batch_size: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
        """Uniform sample without replacement within the batch."""
        if batch_size > len(self):
            raise ValueError(f"cannot sample {batch_size} from {len(self)} transitions")
        idx = rng.choice(len(self), size=batch_size, replace=False)
        return self._stack(idx)

    def chronological(self) -> dict[str, np.ndarray]:
        """All stored transitions, oldest first."""
        if len(self._data) < self.capacity:
            order = range(len(self._data))
        else:
            order = [(self._pos + i) % self.capacity for i in range(self.capacity)]
        return self._stack(order)


# -- TD targets -----------------------------------------------------------

def td_target(
    rewards: np.ndarray,
    terminal: np.ndarray,
    gamma: float,
    select_scores: list[np.ndarray],
    eval_scores: list[np.ndarray],
    m_per_bs: list[int],
) -> np.ndarray:
    """Branched double-Q target: one global value shared by all branches.

    Branch j's next sub-action is the argmax of ``select_scores[j]`` (the
    online network's Q row, or the sampled weights on online features) and
    is priced by ``eval_scores[j]`` (the target network's Q row, or the
    target weights on target features).  Per BS the branch values are
    averaged, then the per-BS means are averaged; ties in the argmax go to
    the lowest sub-action index.  A terminal transition keeps its reward.
    Plain double DQN is the one-branch case, ``m_per_bs == [1]``.
    """
    batch = len(rewards)
    rows = np.arange(batch)
    boot = np.zeros(batch)
    j = 0
    for m in m_per_bs:
        bs_acc = np.zeros(batch)
        for _ in range(m):
            best = np.argmax(select_scores[j], axis=1)
            bs_acc = bs_acc + eval_scores[j][rows, best]
            j += 1
        boot = boot + bs_acc / m
    u = rewards + gamma * (boot / len(m_per_bs))
    return np.where(terminal, rewards, u)


# -- Bayesian linear regression --------------------------------------------

def blr_posterior(
    phi: np.ndarray, u: np.ndarray, sigma_eps: float, prior_sigma: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form Gaussian posterior of last-layer weights given features.

    ``phi`` is (n, d) with one feature row per regression sample and ``u``
    the targets.  Returns (mean, covariance, scale) where scale @ scale.T
    equals the covariance (used for sampling).  A zero-sample input yields
    the prior.  Ill-conditioned systems get a small jitter added, with a
    warning.
    """
    d = phi.shape[1] if phi.ndim == 2 else len(phi)
    if phi.size == 0:
        mu = np.zeros(d)
        cov = prior_sigma * np.eye(d)
        return mu, cov, np.sqrt(prior_sigma) * np.eye(d)
    precision = (phi.T @ phi) / sigma_eps**2 + np.eye(d) / prior_sigma
    rhs = (phi.T @ u) / sigma_eps**2
    for attempt in range(2):
        try:
            chol = scipy.linalg.cho_factor(precision, lower=True)
            break
        except np.linalg.LinAlgError:
            if attempt:
                raise
            logger.warning("ill-conditioned posterior precision, adding jitter")
            precision = precision + JITTER * np.eye(d)
    mu = scipy.linalg.cho_solve(chol, rhs)
    cov = scipy.linalg.cho_solve(chol, np.eye(d))
    # inv(L).T has the right product with its transpose: a valid sampling scale
    scale = scipy.linalg.solve_triangular(chol[0], np.eye(d), lower=True).T
    return mu, cov, scale


class BranchPosterior:
    """Per-sub-action Gaussian posteriors for one branch.

    Holds, for each of the branch's sub-actions: the posterior mean and
    covariance of its last-layer weight vector, the currently sampled
    (Thompson) weights, and the frozen target weights used for TD pricing.
    """

    def __init__(
        self,
        n_actions: int,
        feature_dim: int,
        prior_sigma: float,
        sigma_eps: float,
        rng: np.random.Generator,
    ):
        self.n_actions = n_actions
        self.d = feature_dim
        self.prior_sigma = prior_sigma
        self.sigma_eps = sigma_eps
        self.mu = np.zeros((n_actions, feature_dim))
        # Every sub-action starts at the prior N(0, prior_sigma I): read-only
        # broadcasts of one matrix until the first refit makes dense copies.
        shape = (n_actions, feature_dim, feature_dim)
        self.cov = np.broadcast_to(prior_sigma * np.eye(feature_dim), shape)
        self._scale = np.broadcast_to(np.sqrt(prior_sigma) * np.eye(feature_dim), shape)
        self.omega = self._draw(rng)
        self.omega_tilde = self._draw(rng)

    def _draw(self, rng: np.random.Generator) -> np.ndarray:
        z = rng.standard_normal((self.n_actions, self.d))
        return self.mu + np.einsum("aij,aj->ai", self._scale, z)

    def refit(self, sub_action: int, phi: np.ndarray, u: np.ndarray) -> None:
        mu, cov, scale = blr_posterior(phi, u, self.sigma_eps, self.prior_sigma)
        if not self.cov.flags.writeable:
            self.cov = self.cov.copy()
            self._scale = self._scale.copy()
        self.mu[sub_action] = mu
        self.cov[sub_action] = cov
        self._scale[sub_action] = scale

    def resample(self, rng: np.random.Generator) -> None:
        self.omega = self._draw(rng)

    def sync_target(self) -> None:
        self.omega_tilde = self.mu.copy()

    def scores(self, phi: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """(batch, n_actions) inner products of features with weight rows."""
        return phi @ weights.T

    def rebuild_scale(self) -> None:
        """Recompute sampling factors from stored covariances (after a
        checkpoint load); jitters then fails on a non-PD covariance."""
        self._scale = np.empty(self.cov.shape)
        for a in range(self.n_actions):
            cov = self.cov[a]
            for attempt in range(2):
                try:
                    self._scale[a] = np.linalg.cholesky(cov)
                    break
                except np.linalg.LinAlgError:
                    if attempt:
                        raise
                    logger.warning("non-PD posterior covariance, adding jitter")
                    cov = cov + JITTER * np.eye(self.d)


def thompson_sample(posteriors: list[BranchPosterior], rng: np.random.Generator) -> None:
    """Redraw every branch's sampled weights from its posterior."""
    for post in posteriors:
        post.resample(rng)


def select_action_egreedy(
    q_rows: list[np.ndarray], epsilon: float, rng: np.random.Generator
) -> np.ndarray:
    """Per-branch argmax with probability 1-eps, else uniform per branch."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
    idx = np.empty(len(q_rows), dtype=np.int64)
    for j, q in enumerate(q_rows):
        row = q[0] if q.ndim == 2 else q
        if rng.uniform() < epsilon:
            idx[j] = rng.integers(len(row))
        else:
            idx[j] = int(np.argmax(row))
    return idx


def select_action_thompson(
    phis: list[np.ndarray], posteriors: list[BranchPosterior]
) -> np.ndarray:
    """Greedy per-branch argmax under the currently sampled weights."""
    idx = np.empty(len(phis), dtype=np.int64)
    for j, (phi, post) in enumerate(zip(phis, posteriors)):
        row = phi[0] if phi.ndim == 2 else phi
        idx[j] = int(np.argmax(post.scores(row, post.omega)))
    return idx


# -- agents -----------------------------------------------------------------

class _AgentBase:
    def __init__(self, layout: ActionLayout, state_dim: int, config: AgentConfig):
        self.layout = layout
        self.config = config
        seeds = np.random.SeedSequence(config.seed).spawn(3)
        self.rng = np.random.default_rng(seeds[0])
        net_seed = int(seeds[1].generate_state(1)[0])
        self.net = BranchingQNet(
            state_dim,
            layout.branch_sizes(),
            trunk_widths=config.trunk_widths,
            feature_dim=config.feature_dim,
            with_heads=self._with_heads(),
            seed=net_seed,
        )
        self.target_net = self.net.clone()
        self.adam = Adam(self.net.params, lr=config.lr)
        self.buffer = ReplayBuffer(config.buffer_capacity)
        self.m_per_bs = layout.m_per_bs()

    def _with_heads(self) -> bool:
        raise NotImplementedError

    def sync_target(self) -> None:
        self.target_net.load_params(self.net.params)

    def save_checkpoint(self, path) -> None:
        neural.save_checkpoint(path, self.net, self.adam)

    def load_checkpoint(self, path) -> dict:
        """Load network and optimizer state, sync the target network, and
        return the checkpoint's contents."""
        data = neural.load_checkpoint(path)
        if data["meta"]["arch"] != self.net.arch():
            raise ValueError("checkpoint architecture does not match this agent")
        self.net.load_params(data["params"])
        if data["meta"]["adam_t"] is not None:
            self.adam.load_state(data["adam"]["m"], data["adam"]["v"], data["meta"]["adam_t"])
        self.sync_target()
        return data

    def store(self, state_vec, action_idx, reward, next_vec, terminal) -> None:
        self.buffer.push(state_vec, action_idx, reward, next_vec, terminal)

    def _underfull(self) -> bool:
        if len(self.buffer) < self.config.batch_size:
            logger.debug(
                "skipping update: buffer %d below batch size %d",
                len(self.buffer), self.config.batch_size,
            )
            return True
        return False


class EGreedyAgent(_AgentBase):
    """Non-Bayesian branching double-Q agent with annealed epsilon-greedy."""

    def _with_heads(self) -> bool:
        return True

    def epsilon(self, episode: int) -> float:
        cfg = self.config
        frac = min(1.0, episode / max(1, cfg.eps_decay_episodes))
        return cfg.eps_max + (cfg.eps_min - cfg.eps_max) * frac

    def select_action(self, state_vec: np.ndarray, episode: int) -> np.ndarray:
        q_rows = self.net.q_values(state_vec)
        return select_action_egreedy(q_rows, self.epsilon(episode), self.rng)

    def greedy_action(self, state_vec: np.ndarray) -> np.ndarray:
        q_rows = self.net.q_values(state_vec)
        return select_action_egreedy(q_rows, 0.0, self.rng)

    def compute_targets(self, batch: dict[str, np.ndarray]) -> np.ndarray:
        q_next_online = self.net.q_values(batch["next_state"])
        q_next_target = self.target_net.q_values(batch["next_state"])
        return td_target(
            batch["reward"], batch["terminal"], self.config.gamma,
            q_next_online, q_next_target, self.m_per_bs,
        )

    def train_step(self) -> float | None:
        """One gradient step of the branched squared TD error; only the
        chosen sub-action of each branch receives direct error signal."""
        if self._underfull():
            return None
        batch = self.buffer.sample(self.config.batch_size, self.rng)
        u = self.compute_targets(batch)
        q_rows = self.net.q_values(batch["state"])
        B = len(u)
        rows = np.arange(B)
        K = len(self.m_per_bs)
        loss = 0.0
        d_qs = []
        j = 0
        for m in self.m_per_bs:
            for _ in range(m):
                chosen = batch["action"][:, j]
                err = u - q_rows[j][rows, chosen]
                loss += float(np.mean(err**2)) / (K * m)
                dq = np.zeros_like(q_rows[j])
                dq[rows, chosen] = -2.0 * err / (K * m * B)
                d_qs.append(dq)
                j += 1
        self.net.backward_from_q(d_qs)
        self.adam.step(self.net.grads)
        return loss


class BayesAgent(_AgentBase):
    """Branching double-Q agent with Bayesian last layers and Thompson
    sampling."""

    def __init__(self, layout: ActionLayout, state_dim: int, config: AgentConfig):
        super().__init__(layout, state_dim, config)
        self.posteriors = [
            BranchPosterior(
                n, config.feature_dim, config.prior_sigma, config.sigma_eps, self.rng
            )
            for n in layout.branch_sizes()
        ]

    def _with_heads(self) -> bool:
        return False

    def select_action(self, state_vec: np.ndarray, episode: int = 0) -> np.ndarray:
        phis = self.net.features(state_vec)
        return select_action_thompson(phis, self.posteriors)

    def greedy_action(self, state_vec: np.ndarray) -> np.ndarray:
        """Argmax under the posterior means (no sampling)."""
        phis = self.net.features(state_vec)
        idx = np.empty(len(phis), dtype=np.int64)
        for j, (phi, post) in enumerate(zip(phis, self.posteriors)):
            idx[j] = int(np.argmax(post.scores(phi[0], post.mu)))
        return idx

    def resample(self) -> None:
        thompson_sample(self.posteriors, self.rng)

    def sync_target(self) -> None:
        super().sync_target()
        for post in self.posteriors:
            post.sync_target()

    def _scores(self, phis: list[np.ndarray], which: str) -> list[np.ndarray]:
        return [
            post.scores(phi, getattr(post, which))
            for phi, post in zip(phis, self.posteriors)
        ]

    def compute_targets(self, batch: dict[str, np.ndarray]) -> np.ndarray:
        online = self._scores(self.net.features(batch["next_state"]), "omega")
        target = self._scores(self.target_net.features(batch["next_state"]), "omega_tilde")
        return td_target(
            batch["reward"], batch["terminal"], self.config.gamma,
            online, target, self.m_per_bs,
        )

    def train_step(self) -> float | None:
        """Gradient step on the feature network: the posterior-mean Q of the
        taken sub-action regresses onto the TD target (the means themselves
        update only at posterior refreshes)."""
        if self._underfull():
            return None
        batch = self.buffer.sample(self.config.batch_size, self.rng)
        u = self.compute_targets(batch)
        phis = self.net.features(batch["state"])
        B = len(u)
        rows = np.arange(B)
        K = len(self.m_per_bs)
        loss = 0.0
        d_phis = []
        j = 0
        for m in self.m_per_bs:
            for _ in range(m):
                post = self.posteriors[j]
                chosen = batch["action"][:, j]
                w = post.mu[chosen]                      # (B, d)
                pred = np.sum(phis[j] * w, axis=1)
                err = u - pred
                loss += float(np.mean(err**2)) / (K * m)
                d_phis.append(-2.0 * err[:, None] * w / (K * m * B))
                j += 1
        self.net.backward_from_features(d_phis)
        self.adam.step(self.net.grads)
        return loss

    def update_posteriors(self) -> None:
        """Refresh every sub-action's posterior from its replay slice.

        Transitions are grouped by the sub-action each branch actually took
        (capped at the most recent ``blr_dataset_cap`` per sub-action); TD
        targets are recomputed with the current networks and target weights.
        A sub-action with no matching transitions keeps its posterior as is
        (for a never-updated one that is the prior), so freshly loaded
        pretrained posteriors survive early refreshes.
        """
        if len(self.buffer) == 0:
            return
        data = self.buffer.chronological()
        cap = self.config.blr_dataset_cap
        n = len(data["reward"])
        n_branches = self.net.n_branches

        member_rows: list[list[np.ndarray]] = []
        needed = np.zeros(n, dtype=bool)
        for j in range(n_branches):
            actions = data["action"][:, j]
            per_action = []
            for a in range(self.layout.branch_sizes()[j]):
                rows = np.nonzero(actions == a)[0][-cap:]
                per_action.append(rows)
                needed[rows] = True
            member_rows.append(per_action)

        keep = np.nonzero(needed)[0]
        remap = np.full(n, -1, dtype=np.int64)
        remap[keep] = np.arange(len(keep))

        phis, u = self._features_and_targets(data, keep)
        for j in range(n_branches):
            for a, rows in enumerate(member_rows[j]):
                if len(rows) == 0:
                    continue
                local = remap[rows]
                self.posteriors[j].refit(a, phis[j][local], u[local])

    def _features_and_targets(
        self, data: dict[str, np.ndarray], keep: np.ndarray
    ) -> tuple[list[np.ndarray], np.ndarray]:
        n_branches = self.net.n_branches
        chunk = max(1, REFRESH_CHUNK_BYTES // (8 * n_branches * self.net.feature_dim))
        phis = [
            np.empty((len(keep), self.net.feature_dim)) for _ in range(n_branches)
        ]
        u = np.empty(len(keep))
        for start in range(0, len(keep), chunk):
            rows = keep[start:start + chunk]
            sub = {
                "state": data["state"][rows],
                "next_state": data["next_state"][rows],
                "reward": data["reward"][rows],
                "terminal": data["terminal"][rows],
            }
            u[start:start + len(rows)] = self.compute_targets(sub)
            for j, phi in enumerate(self.net.features(sub["state"])):
                phis[j][start:start + len(rows)] = phi
        return phis, u

    # -- checkpointing ----------------------------------------------------

    def save_checkpoint(self, path) -> None:
        extra: dict[str, np.ndarray] = {}
        for j, post in enumerate(self.posteriors):
            extra[f"post_mu_{j}"] = post.mu
            extra[f"post_cov_{j}"] = post.cov
            extra[f"post_omega_{j}"] = post.omega
            extra[f"post_omega_tilde_{j}"] = post.omega_tilde
        neural.save_checkpoint(path, self.net, self.adam, extra=extra)

    def load_checkpoint(self, path) -> dict:
        """As the base class, then restore every posterior, the target
        weights included."""
        data = super().load_checkpoint(path)
        for j, post in enumerate(self.posteriors):
            for name, attr in (
                (f"post_mu_{j}", "mu"),
                (f"post_cov_{j}", "cov"),
                (f"post_omega_{j}", "omega"),
                (f"post_omega_tilde_{j}", "omega_tilde"),
            ):
                tensor = data["extra"][name]
                if tensor.shape != getattr(post, attr).shape:
                    raise ValueError(f"{name}: shape mismatch")
                setattr(post, attr, tensor)
            post.rebuild_scale()
        return data


def make_agent(layout: ActionLayout, state_dim: int, config: AgentConfig):
    agent_cls = BayesAgent if config.mode == "bayes" else EGreedyAgent
    agent = agent_cls(layout, state_dim, config)
    if config.pretrained_checkpoint:
        agent.load_checkpoint(config.pretrained_checkpoint)
        logger.info("loaded pretrained checkpoint %s", config.pretrained_checkpoint)
    return agent


# -- training loop ----------------------------------------------------------

@dataclass
class EpisodeRecord:
    episode: int
    total_reward: float
    mean_reward: float
    cost_sums: dict[str, float]
    penalty_total: float
    reconfig_total: float
    routing_total: float
    elastic_delay_total: float
    mean_loss: float | None = None


@dataclass
class StepRecord:
    episode: int
    step: int
    reward: float
    total_cost: float
    elastic_delay: float
    penalty_total: float
    reconfig_total: float
    routing_total: float


@dataclass
class TrainingResult:
    episodes: list[EpisodeRecord] = field(default_factory=list)
    steps: list[StepRecord] = field(default_factory=list)


def run_training(
    env: OranMecEnv,
    agent,
    demand_provider,
    n_episodes: int,
    episode_seed_base: int | None = None,
    collect_steps: bool = True,
) -> TrainingResult:
    """Run the full slotted learning loop for ``n_episodes`` episodes.

    ``demand_provider(e)`` returns episode e's demand slot sequence.  The
    schedule counters are global: with the Bayesian agent, posteriors are
    refreshed at slot counts divisible by ``T_p`` (before acting), the
    target network syncs at multiples of ``T_g`` and the Thompson weights
    are re-drawn at multiples of ``T_s`` (both after the gradient step).
    """
    cfg = agent.config
    bayes = isinstance(agent, BayesAgent)
    result = TrainingResult()
    count = 0
    for e in range(n_episodes):
        seed = None if episode_seed_base is None else episode_seed_base + e
        state = env.reset(demand_provider(e), noise_seed=seed)
        state_vec = env.encode_state(state)
        ep_reward = 0.0
        losses: list[float] = []
        cost_sums: dict[str, float] = {}
        pen = rec = rou = dly = 0.0
        terminal = False
        t = 0
        while not terminal:
            if bayes and count % cfg.T_p == 0:
                agent.update_posteriors()
            idx = agent.select_action(state_vec, episode=e)
            action = env.layout.indices_to_action(idx)
            next_state, reward, costs, terminal = env.step(action)
            next_vec = env.encode_state(next_state)
            agent.store(state_vec, idx, reward, next_vec, terminal)
            loss = agent.train_step()
            if loss is not None:
                losses.append(loss)
            if count % cfg.T_g == 0:
                agent.sync_target()
            if bayes and count % cfg.T_s == 0:
                agent.resample()
            count += 1

            ep_reward += reward
            for key, val in costs.as_dict().items():
                cost_sums[key] = cost_sums.get(key, 0.0) + val
            pen += costs.penalty_total
            rec += costs.reconfig_total
            rou += costs.routing
            dly += costs.elastic_delay
            if collect_steps:
                result.steps.append(StepRecord(
                    episode=e, step=t, reward=reward, total_cost=costs.total,
                    elastic_delay=costs.elastic_delay,
                    penalty_total=costs.penalty_total,
                    reconfig_total=costs.reconfig_total,
                    routing_total=costs.routing,
                ))
            state_vec = next_vec
            t += 1
        result.episodes.append(EpisodeRecord(
            episode=e,
            total_reward=ep_reward,
            mean_reward=ep_reward / t,
            cost_sums=cost_sums,
            penalty_total=pen,
            reconfig_total=rec,
            routing_total=rou,
            elastic_delay_total=dly,
            mean_loss=float(np.mean(losses)) if losses else None,
        ))
        logger.info(
            "episode %d: mean reward %.3f penalty %.2f", e, ep_reward / t, pen
        )
    return result


def evaluate_greedy(env: OranMecEnv, agent, demands, noise_seed: int | None = None) -> float:
    """Average per-slot reward of the agent's greedy policy over one episode
    (no exploration, no learning)."""
    state = env.reset(demands, noise_seed=noise_seed)
    total = 0.0
    terminal = False
    t = 0
    while not terminal:
        idx = agent.greedy_action(env.encode_state(state))
        state, reward, _, terminal = env.step(env.layout.indices_to_action(idx))
        total += reward
        t += 1
    return total / t
