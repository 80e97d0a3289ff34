"""Learning agents for the orchestration MDP.

Both agents are one branching double-Q core, ``_AgentBase``: every branch
picks its next sub-action with the online network and evaluates it with a
target network, and the per-branch bootstrapped values are averaged (per BS,
then across BSs) into one global TD target; each branch's taken sub-action
then regresses onto that target.  An agent supplies two hooks:
``_scores(net, states, which)``, a network's per-branch score rows, and
``_taken(states, actions)``, the taken sub-actions' scores as one
C-contiguous (branches, batch) array, with their backward pass: a strided
error row would sum its squares in another order than a per-branch loop.
Sub-action a of branch j is stacked row ``offsets[j] + a``, so a batch's
taken entries are one index, ``actions + offsets``.  A TD target prices
all branches in one gather from the stacked target scores.  The Bayes
``_taken`` gathers its taken means as one C-ordered (batch, branches,
features) array, multiplies them into the network's feature stack in place
and sums over features once; its backward pass overwrites the gathered means
with the feature gradient, so besides that gather the step allocates no
(batch, branches, features) array.

* ``EGreedyAgent`` keeps linear Q heads on the branch features: its scores
  are the Q rows, and the taken scores' gradient scatters into them.  It
  explores with an annealed epsilon-greedy rule.
* ``BayesAgent`` drops the point-estimate heads: each sub-action's last-layer
  weight vector gets a closed-form Gaussian posterior (Bayesian linear
  regression over the branch features), and exploration is Thompson
  sampling from those posteriors.  Its scores are the features times the
  sampled, mean or target weights (``which``), and the feature network is
  trained by regressing the posterior-mean Q values onto the TD targets.
  One ``Posterior`` holds them all as stacked arrays with one row per
  sub-action, in the branch order of the target-score columns: means,
  sampling factors (the covariance is never formed), sampled weights and
  target weights.  A checkpoint restores exactly these arrays; it stores
  only the sampling factors a refit has moved off the prior.  A refit
  (``blr_posterior``) is one stacked fit per branch on numpy's own LAPACK
  (``np.linalg``), so the package needs no scipy.

The agent owns its checkpoint format: one ``np.savez`` archive (version 4)
of ``_saved()``'s arrays and a ``_meta`` JSON header.  It holds no target
network, replay or RNG state, so a load starts a new run from it.

The training loop follows a fixed schedule: posteriors refresh every
``T_p`` slots, the target network (and the target last-layer weights, set
to the posterior means) syncs every ``T_g``, and the Thompson weights are
re-drawn every ``T_s``.  All counters are global across episodes and fire
when ``count % period == 0``.

Between syncs the target side of a TD target is fixed, so each stored
transition's target score row (the target network's Q rows, or the target
features times the target weights) is computed once per sync epoch and
cached in the replay ring, keyed by ring slot.  A row lives until its slot
is overwritten by a push, or until ``sync_target`` or ``load_checkpoint``
clears every row.  Training batches and posterior refreshes both read the
cache and score only the rows missing from it.
"""
from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field

import numpy as np

from .env import ActionLayout, OranMecEnv
from .neural import Adam, BranchingQNet

logger = logging.getLogger("oranmec.agents")

JITTER = 1e-6

CHECKPOINT_VERSION = 4

# Rows per block of the sampling factor's triangular inverse: a diagonal
# block this small is cheap to invert dense, and the products left of it
# are GEMMs.  A dense inverse of a whole 128-wide factor costs 2-3x as much.
INVERSE_BLOCK = 16

# Bytes of one fused branch-layer output per chunk of the posterior refresh's
# pass over the ring, which keeps one trunk output and TD target per
# transition.  It bounds that pass's temporaries below the 4 MiB at which
# numpy asks for transparent huge pages: huge-page backing makes resident
# memory depend on what the host has free.
REFRESH_CHUNK_BYTES = 2 << 20

# Rows of the replay ring's first allocation; it doubles from there.
RING_START_ROWS = 256


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
    sigma_eps: float = 1.0      # BLR noise standard deviation: data term / sigma_eps**2
    prior_sigma: float = 1.0    # BLR prior variance: weights ~ N(0, prior_sigma I)
    eps_max: float = 1.0
    eps_min: float = 0.05
    eps_decay_episodes: int = 100
    seed: int = field(default=0, metadata={
        "refused": "every run derives its agent seed from its entry in the top-level seeds"})
    pretrained_checkpoint: str | None = None
    trunk_widths: tuple[int, ...] = (256, 256, 256)
    feature_dim: int = 128
    blr_dataset_cap: int = 10_000

    def __post_init__(self):
        if self.mode not in ("bayes", "egreedy"):
            raise ValueError(f"mode must be bayes or egreedy, got {self.mode!r}")
        for name in ("T_p", "T_g", "T_s", "batch_size", "blr_dataset_cap", "feature_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not 0.0 <= self.eps_min <= self.eps_max <= 1.0:
            raise ValueError(f"eps_min and eps_max must satisfy 0 <= eps_min <= eps_max <= 1, "
                             f"got {self.eps_min} and {self.eps_max}")
        for name in ("lr", "sigma_eps", "prior_sigma"):
            value = getattr(self, name)
            if not 0.0 < value < np.inf:        # NaN fails too
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {self.gamma}")
        if self.eps_decay_episodes < 0:
            raise ValueError(f"eps_decay_episodes must be nonnegative, got {self.eps_decay_episodes}")
        if min(self.trunk_widths, default=0) < 1:
            raise ValueError(f"trunk_widths must be nonempty and positive, got {self.trunk_widths}")
        if self.buffer_capacity < self.batch_size:
            # the ring would never hold a batch, so no step would ever train
            raise ValueError(
                f"buffer_capacity {self.buffer_capacity} is below batch_size {self.batch_size}"
            )


class ReplayBuffer:
    """Fixed-capacity ring of transitions, oldest evicted first.

    Transitions live in ring arrays (``state``, ``action``, ``reward``,
    ``next_state``, ``terminal``) that start with no rows and double as
    they fill, never past ``capacity``; row i of each array is storage
    slot i.  Beside each slot the ring keeps a row of ``score_width`` target
    scores (``target_scores``) and a bit saying whether that row is valid
    (``score_valid``): a push clears its slot's bit and
    ``clear_target_scores`` clears them all.
    """

    _RING = ("state", "action", "reward", "next_state", "terminal",
             "target_scores", "score_valid")

    def __init__(self, capacity: int, state_dim: int, n_branches: int, score_width: int = 0):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._size = 0
        self._pos = 0
        self.state = np.empty((0, state_dim))
        self.action = np.empty((0, n_branches), dtype=np.int64)
        self.reward = np.empty(0)
        self.next_state = np.empty((0, state_dim))
        self.terminal = np.empty(0, dtype=bool)
        self.target_scores = np.empty((0, score_width))
        self.score_valid = np.empty(0, dtype=bool)

    def _grow(self) -> None:
        """Double the ring (to ``RING_START_ROWS`` at the first push)."""
        rows = min(self.capacity, max(RING_START_ROWS, 2 * len(self.state)))
        for name in self._RING:
            old = getattr(self, name)
            new = np.zeros((rows, *old.shape[1:]), dtype=old.dtype)
            new[:len(old)] = old
            setattr(self, name, new)

    def push(self, state_vec, action_idx, reward, next_vec, terminal) -> None:
        state = np.asarray(state_vec, dtype=np.float64)
        action = np.asarray(action_idx, dtype=np.int64)
        next_state = np.asarray(next_vec, dtype=np.float64)
        if state.shape != self.state.shape[1:] or next_state.shape != state.shape:
            raise ValueError(
                f"transition states of shape {state.shape} and {next_state.shape}, "
                f"the ring holds {self.state.shape[1:]}"
            )
        if action.shape != self.action.shape[1:]:
            raise ValueError(
                f"action of shape {action.shape}, the ring holds {self.action.shape[1:]}"
            )
        if self._pos == len(self.state) < self.capacity:
            self._grow()
        i = self._pos
        self.state[i] = state
        self.action[i] = action
        self.reward[i] = reward
        self.next_state[i] = next_state
        self.terminal[i] = terminal
        self.score_valid[i] = False
        self._pos = (i + 1) % self.capacity
        self._size = max(self._size, i + 1)

    def __len__(self) -> int:
        return self._size

    def clear_target_scores(self) -> None:
        """Mark every stored target-score row stale."""
        self.score_valid[:] = False

    def gather(self, index: np.ndarray) -> dict[str, np.ndarray]:
        """The transitions at storage slots ``index``, with ``index`` itself."""
        return {
            "state": self.state[index],
            "action": self.action[index],
            "reward": self.reward[index],
            "next_state": self.next_state[index],
            "terminal": self.terminal[index],
            "index": index,
        }

    def sample(self, batch_size: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
        """Uniform sample without replacement within the batch."""
        if batch_size > len(self):
            raise ValueError(f"cannot sample {batch_size} from {len(self)} transitions")
        return self.gather(rng.choice(len(self), size=batch_size, replace=False))

    def chronological_index(self) -> np.ndarray:
        """Storage slots of all stored transitions, oldest first."""
        if self._size < self.capacity:
            return np.arange(self._size)
        return (self._pos + np.arange(self.capacity)) % self.capacity

    def chronological(self) -> dict[str, np.ndarray]:
        """All stored transitions, oldest first."""
        return self.gather(self.chronological_index())


# -- TD targets -----------------------------------------------------------

def td_target(
    rewards: np.ndarray,
    terminal: np.ndarray,
    gamma: float,
    select_scores: list[np.ndarray],
    eval_scores: np.ndarray,
    offsets: np.ndarray,
    n_bs: int,
) -> np.ndarray:
    """Branched double-Q target: one global value shared by all branches.

    Branch j's next sub-action is the argmax of ``select_scores[j]`` (the
    online network's Q row, or the sampled weights on online features) and
    is priced by column ``offsets[j] + a`` of ``eval_scores``, the stacked
    (batch, sub-actions) target scores (target Q rows, or the target
    weights on target features).  The branches split evenly over ``n_bs``
    BSs, in BS order: per BS the branch values are summed in order (pairwise
    in a one-row batch with 8 or more) and averaged, then the per-BS means
    likewise; argmax ties go to the lowest sub-action index.  A terminal
    transition keeps its reward.  Plain double DQN is the one-branch case.
    """
    batch = len(rewards)
    best = np.array([np.argmax(s, axis=1) for s in select_scores]) + offsets[:, None]
    values = eval_scores[np.arange(batch), best]        # (branches, batch)
    m = len(select_scores) // n_bs
    boot = np.sum(np.sum(values.reshape(n_bs, m, batch), axis=1) / m, axis=0) / n_bs
    return np.where(terminal, rewards, rewards + gamma * boot)


# -- Bayesian linear regression --------------------------------------------

def _inverse_lower(lower: np.ndarray) -> np.ndarray:
    """Inverses of a stack of lower-triangular matrices, with +0.0 above the
    diagonal.  numpy has no stacked triangular solve, so this is block
    forward substitution, ``INVERSE_BLOCK`` rows at a time: each diagonal
    block is inverted dense, and the block row left of it is one product
    with the rows already inverted.  Every call is a stacked gufunc, so each
    matrix's inverse is bit-equal to its inverse alone."""
    d = lower.shape[-1]
    inv = np.zeros_like(lower)
    for i in range(0, d, INVERSE_BLOCK):
        rows = slice(i, i + INVERSE_BLOCK)
        inv[..., rows, rows] = np.tril(np.linalg.inv(lower[..., rows, rows]))
        inv[..., rows, :i] = -inv[..., rows, rows] @ (lower[..., rows, :i] @ inv[..., :i, :i])
    return inv


def blr_posterior(
    phis: list[np.ndarray], us: list[np.ndarray], sigma_eps: float, prior_sigma: float
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form Gaussian posteriors of one branch's last-layer weights.

    Regression set a is ``phis[a]``, (n_a, d) with one feature row per
    sample and n_a >= 1, and its targets ``us[a]``; the sets may differ in
    n_a.  Returns stacked (A, d) means and (A, d, d) scales: set a's
    covariance is scale[a] @ scale[a].T, and mean[a] + scale[a] @ z with z
    standard normal is a posterior draw.  The precisions are factored
    L L^T by one stacked ``np.linalg.cholesky``; each scale is inv(L).T,
    upper triangular with +0.0 below the diagonal, and each mean is
    scale (scale^T rhs).  numpy's gufuncs call LAPACK and BLAS once per
    matrix, so each set's result is bit-equal to a fit of that set alone.
    If any precision in the stack fails to factor, the whole stack gets a
    small jitter added, with a warning.
    """
    d = phis[0].shape[1]
    precision = np.stack([phi.T @ phi for phi in phis]) / sigma_eps**2 + np.eye(d) / prior_sigma
    rhs = np.stack([phi.T @ u for phi, u in zip(phis, us)]) / sigma_eps**2
    try:
        lower = np.linalg.cholesky(precision)
    except np.linalg.LinAlgError:
        logger.warning("ill-conditioned posterior precision, adding jitter")
        lower = np.linalg.cholesky(precision + JITTER * np.eye(d))
    # inv(L).T has the right product with its transpose: a valid sampling scale
    scale = np.swapaxes(_inverse_lower(lower), 1, 2)
    mu = (scale @ (np.swapaxes(scale, 1, 2) @ rhs[..., None]))[..., 0]
    return mu, scale


def branch_slices(sizes: list[int]) -> list[slice]:
    """Consecutive ranges of the given sizes: branch j's sub-actions."""
    ends = np.cumsum(sizes)
    return [slice(e - n, e) for n, e in zip(sizes, ends)]


class Posterior:
    """Gaussian posteriors of every sub-action's last-layer weights, stacked.

    Each array has one row per sub-action, branch j's sub-actions in rows
    ``cols[j]``: the posterior mean ``mu``, the sampling factor ``scale``
    (the covariance is ``scale[r] @ scale[r].T``), the sampled (Thompson)
    weights ``omega`` and the frozen target weights ``omega_tilde`` used for
    TD pricing.  Every row starts at the prior N(0, prior_sigma I), its
    factor a read-only broadcast of one matrix until the first refit makes
    a dense copy.
    """

    def __init__(
        self,
        cols: list[slice],
        feature_dim: int,
        prior_sigma: float,
        sigma_eps: float,
        rng: np.random.Generator,
    ):
        self.cols = cols
        self.d = feature_dim
        self.prior_sigma = prior_sigma
        self.sigma_eps = sigma_eps
        self.mu = np.zeros((cols[-1].stop, feature_dim))
        self.prior_scale = np.sqrt(prior_sigma) * np.eye(feature_dim)
        self.set_scale_rows([], None)
        self.omega = np.empty_like(self.mu)
        self.omega_tilde = np.empty_like(self.mu)
        for cols in self.cols:      # branch by branch: sampled, then target
            self.omega[cols] = self._draw(rng, cols)
            self.omega_tilde[cols] = self._draw(rng, cols)

    def _draw(self, rng: np.random.Generator, rows: slice) -> np.ndarray:
        mu = self.mu[rows]
        z = rng.standard_normal(mu.shape)
        return mu + np.einsum("aij,aj->ai", self.scale[rows], z)

    def refit(self, rows, phis: list[np.ndarray], us: list[np.ndarray]) -> None:
        """Refit ``rows`` of one branch in one ``blr_posterior`` call: row
        ``rows[i]`` on features ``phis[i]`` and targets ``us[i]``."""
        mu, scale = blr_posterior(phis, us, self.sigma_eps, self.prior_sigma)
        if not self.scale.flags.writeable:
            self.scale = self.scale.copy()
        self.mu[rows] = mu
        self.scale[rows] = scale

    def set_scale_rows(self, rows, scale) -> None:
        """``scale`` in ``rows``, the prior's shared read-only factor elsewhere."""
        self.scale = np.broadcast_to(self.prior_scale, (len(self.mu), self.d, self.d))
        if len(rows):
            self.scale = self.scale.copy()
            self.scale[rows] = scale

    def resample(self, rng: np.random.Generator) -> None:
        """Redraw every sub-action's sampled weights from its posterior."""
        self.omega = self._draw(rng, slice(None))

    def sync_target(self) -> None:
        self.omega_tilde = self.mu.copy()


def branch_argmax(scores: list[np.ndarray]) -> np.ndarray:
    """Per-branch best sub-action of one state's (1, sub-actions) score
    rows; ties go to the lowest index."""
    return np.array([np.argmax(row[0]) for row in scores], dtype=np.int64)


def select_action_egreedy(
    q_rows: list[np.ndarray], epsilon: float, rng: np.random.Generator
) -> np.ndarray:
    """Per-branch argmax of (1, A) Q rows with probability 1-eps, else uniform."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
    idx = np.empty(len(q_rows), dtype=np.int64)
    for j, q in enumerate(q_rows):
        row = q[0]
        if rng.uniform() < epsilon:
            idx[j] = rng.integers(len(row))
        else:
            idx[j] = int(np.argmax(row))
    return idx


# -- agents -----------------------------------------------------------------

class _AgentBase:
    """The branched double-Q core; subclasses supply ``_scores``,
    ``_taken`` and ``select_action``."""

    def __init__(self, layout: ActionLayout, state_dim: int, config: AgentConfig):
        self.layout = layout
        self.config = config
        seeds = np.random.SeedSequence(config.seed).spawn(2)
        self.rng = np.random.default_rng(seeds[0])
        sizes = layout.branch_sizes()
        self.net = BranchingQNet(
            state_dim,
            sizes,
            trunk_widths=config.trunk_widths,
            feature_dim=config.feature_dim,
            with_heads=self.WITH_HEADS,
            seed=int(seeds[1].generate_state(1)[0]),
        )
        self.target_net = self.net.clone()
        self.adam = Adam(self.net.params, lr=config.lr)
        self.cols = branch_slices(sizes)
        # offsets[j]: the stacked row (or column) of branch j's sub-action 0
        self.offsets = np.array([c.start for c in self.cols], dtype=np.int64)
        self.buffer = ReplayBuffer(
            config.buffer_capacity, state_dim, len(sizes), score_width=sum(sizes)
        )

    def _scores(self, net: BranchingQNet, states: np.ndarray, which: str) -> list[np.ndarray]:
        """Per-branch (rows, sub-actions) scores of ``states`` under ``net``;
        ``which`` names the last-layer weights: ``omega`` to select, ``mu``
        to act greedily, ``omega_tilde`` to price on the target network."""
        raise NotImplementedError

    def _taken(self, states: np.ndarray, actions: np.ndarray):
        """The online scores of the taken sub-actions as one C-contiguous
        (branches, batch) array, and ``backward(errs, n)``, which fills
        ``net.grads`` with the gradient of ``sum(errs**2) / n`` for the
        errors ``errs = u - taken``.  Each branch's mean squared error
        reduces a row of ``errs``: a C-ordered row sums as the branch's own
        1-D vector would, a strided one in another order (other last bits)."""
        raise NotImplementedError

    def greedy_action(self, state_vec: np.ndarray) -> np.ndarray:
        """Per-branch argmax of the online scores (under the posterior
        means for Bayes); draws nothing from ``rng``."""
        return branch_argmax(self._scores(self.net, state_vec, "mu"))

    def sync_target(self) -> None:
        self.target_net.load_params(self.net.params)
        self.buffer.clear_target_scores()

    def _target_scores(self, batch: dict[str, np.ndarray]) -> np.ndarray:
        """Stacked (batch, sub-actions) target scores of ``batch["next_state"]``.

        A batch drawn from the replay ring (one with an ``index``) reads them
        from the ring's cache: the rows missing there are scored in one
        target forward and stored.  Any other batch is scored afresh.
        """
        index = batch.get("index")
        if index is None:
            fresh = self._scores(self.target_net, batch["next_state"], "omega_tilde")
            return np.concatenate(fresh, axis=1)
        buf = self.buffer
        missing = ~buf.score_valid[index]
        n = int(np.count_nonzero(missing))
        if n:
            x = batch["next_state"][missing]
            if n == 1:
                # a lone row is scored as two, off BLAS's matrix-vector
                # path.  The pad keeps pinned bits; it buys no batch
                # invariance, as score rows differ in their last bits
                # between most batch sizes (all but multiples of 4 at toy widths)
                x = np.repeat(x, 2, axis=0)
            slots = index[missing]
            fresh = self._scores(self.target_net, x, "omega_tilde")
            buf.target_scores[slots] = np.concatenate(fresh, axis=1)[:n]
            buf.score_valid[slots] = True
        return buf.target_scores[index]

    def compute_targets(self, batch: dict[str, np.ndarray]) -> np.ndarray:
        """TD targets of a batch: online selection, target pricing."""
        return td_target(
            batch["reward"], batch["terminal"], self.config.gamma,
            self._scores(self.net, batch["next_state"], "omega"),
            self._target_scores(batch), self.offsets, self.layout.n_bs,
        )

    def train_step(self) -> float | None:
        """One gradient step of the branched squared TD error: in every
        branch the taken sub-action's score regresses onto the shared
        target, the loss averaging over rows and branches."""
        cfg = self.config
        if len(self.buffer) < cfg.batch_size:
            logger.debug(
                "skipping update: buffer %d below batch size %d",
                len(self.buffer), cfg.batch_size,
            )
            return None
        batch = self.buffer.sample(cfg.batch_size, self.rng)
        u = self.compute_targets(batch)
        taken, backward = self._taken(batch["state"], batch["action"])
        errs = u - taken
        loss = 0.0
        for mse in np.mean(errs**2, axis=1):     # branch order, as a sum of floats
            loss += float(mse) / len(errs)
        backward(errs, errs.size)
        self.adam.step(self.net.grads)
        return loss

    # -- checkpointing ----------------------------------------------------

    def _saved(self) -> dict[str, np.ndarray]:
        """The checkpoint's arrays by key, in the order they are written."""
        return {"params": self.net.params, "adam_m": self.adam.m, "adam_v": self.adam.v}

    def save_checkpoint(self, path) -> None:
        """Write one ``np.savez`` archive: ``_saved()``, then ``_meta``, the
        JSON header of the format version, the architecture and Adam's step."""
        meta = {"version": CHECKPOINT_VERSION, "arch": self.net.arch(), "adam_t": self.adam.t}
        header = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez(path, **self._saved(), _meta=header)

    def load_checkpoint(self, path) -> dict[str, np.ndarray]:
        """Check a checkpoint's header, version, architecture and arrays,
        load the network and Adam from it, sync the target network, and
        return the archive's arrays.  Each refusal is a ValueError that
        names ``path``."""
        with open(path, "rb") as fh:
            archive = np.load(fh)       # a .npy file loads as one unnamed array
            data = {} if isinstance(archive, np.ndarray) else dict(archive)
        if "_meta" not in data:
            raise ValueError(f"{path} is not an oranmec checkpoint: missing _meta")
        try:
            meta = json.loads(bytes(data["_meta"]).decode())
        except ValueError as exc:       # undecodable bytes or JSON
            raise ValueError(f"{path}: _meta is not a JSON header: {exc}") from None
        if not isinstance(meta, dict):
            raise ValueError(f"{path}: _meta is not a JSON object: {meta!r}")
        if meta.get("version") != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {meta.get('version')}")
        if meta.get("arch") != self.net.arch():
            raise ValueError(f"{path}: checkpoint architecture does not match this agent")
        adam_t = meta.get("adam_t")
        if type(adam_t) is not int or adam_t < 0:
            raise ValueError(f"{path}: _meta adam_t must be a nonnegative integer, got {adam_t!r}")
        missing = [key for key in self._saved() if key not in data]
        if missing:
            raise ValueError(f"{path} is not an oranmec checkpoint: missing {', '.join(missing)}")
        self.net.load_params(data["params"])
        self.adam.load_state(data["adam_m"], data["adam_v"], adam_t)
        self.sync_target()      # also clears the cached target scores
        return data

    def store(self, state_vec, action_idx, reward, next_vec, terminal) -> None:
        self.buffer.push(state_vec, action_idx, reward, next_vec, terminal)


class EGreedyAgent(_AgentBase):
    """Non-Bayesian branching double-Q agent with annealed epsilon-greedy."""

    WITH_HEADS = True       # linear Q heads on the branch features

    def epsilon(self, episode: int) -> float:
        """Linear decay from ``eps_max`` to ``eps_min`` over
        ``eps_decay_episodes``.  A run from a pretrained checkpoint already
        knows a policy, so it starts at most at 0.1 (and never below
        ``eps_min``)."""
        cfg = self.config
        eps_max = (max(cfg.eps_min, min(cfg.eps_max, 0.1)) if cfg.pretrained_checkpoint
                   else cfg.eps_max)
        frac = min(1.0, episode / max(1, cfg.eps_decay_episodes))
        return eps_max + (cfg.eps_min - eps_max) * frac

    def select_action(self, state_vec: np.ndarray, episode: int) -> np.ndarray:
        q_rows = self.net.q_values(state_vec)
        return select_action_egreedy(q_rows, self.epsilon(episode), self.rng)

    def _scores(self, net, states, which):
        return net.q_values(states)         # one set of heads: ``which`` is moot

    def _taken(self, states, actions):
        """Taken Q entries; only they receive error signal in the Q rows."""
        q_rows = self.net.q_values(states)
        rows = np.arange(len(states))
        taken = np.array([q[rows, a] for q, a in zip(q_rows, actions.T)])

        def backward(errs, n):
            dq = np.zeros((len(rows), self.cols[-1].stop))     # all Q rows side by side
            dq[rows[:, None], actions + self.offsets] = -2.0 * errs.T / n
            self.net.backward_from_q([dq[:, cols] for cols in self.cols])

        return taken, backward


class BayesAgent(_AgentBase):
    """Branching double-Q agent with Bayesian last layers and Thompson
    sampling."""

    WITH_HEADS = False      # the posterior stands in for the Q heads

    def __init__(self, layout: ActionLayout, state_dim: int, config: AgentConfig):
        super().__init__(layout, state_dim, config)
        self.posterior = Posterior(
            self.cols, config.feature_dim, config.prior_sigma, config.sigma_eps, self.rng,
        )

    def select_action(self, state_vec: np.ndarray, episode: int = 0) -> np.ndarray:
        """Per-branch argmax under the sampled (Thompson) weights."""
        return branch_argmax(self._scores(self.net, state_vec, "omega"))

    def resample(self) -> None:
        self.posterior.resample(self.rng)

    def sync_target(self) -> None:
        super().sync_target()
        self.posterior.sync_target()

    def _scores(self, net, states, which):
        weights = getattr(self.posterior, which)
        return [phi @ weights[c].T for phi, c in zip(net.features(states), self.cols)]

    def _taken(self, states, actions):
        """Posterior-mean Q of the taken sub-actions: the feature network
        regresses them onto the TD targets (the means themselves update
        only at posterior refreshes)."""
        phis = self.net.features(states)        # (J, B, d); backward needs only the mask
        w = self.posterior.mu[actions + self.offsets]       # (B, J, d), C-ordered
        phis *= w.swapaxes(0, 1)
        # a C-ordered (J, B) out: each row sums over d as the branch's own
        # (B, d) product would, and errs inherits the order
        taken = np.sum(phis, axis=2, out=np.empty(phis.shape[:2]))

        def backward(errs, n):
            # dL/dphi = -2 err w / n, written in place over the gathered means
            np.multiply(w, -2.0 * errs.T[:, :, None], out=w)
            np.divide(w, n, out=w)
            self.net.backward_from_features(w.swapaxes(0, 1))

        return taken, backward

    def update_posteriors(self) -> None:
        """Refresh every sub-action's posterior from its replay slice.

        One chunked pass over the ring, oldest first, computes every
        transition's TD target (with the current networks and target weights)
        and trunk output.  Per branch, the features are formed from those
        outputs, transitions are grouped by the sub-action the branch took,
        capped at the most recent ``blr_dataset_cap`` per sub-action, and the
        sub-actions with data are refit in one ``blr_posterior`` call.  A
        sub-action with no matching transitions keeps its posterior as is
        (for a never-updated one that is the prior), so freshly loaded
        pretrained posteriors survive early refreshes.
        """
        if len(self.buffer) == 0:
            return
        order = self.buffer.chronological_index()
        chunk = max(1, REFRESH_CHUNK_BYTES // (8 * self.net.n_branches * self.net.feature_dim))
        h = np.empty((len(order), self.net.trunk_widths[-1]))
        u = np.empty(len(order))
        for start in range(0, len(order), chunk):
            sub = self.buffer.gather(order[start:start + chunk])
            u[start:start + chunk] = self.compute_targets(sub)
            h[start:start + chunk] = self.net.trunk(sub["state"])[-1]
        for j, (actions, cols) in enumerate(zip(self.buffer.action[order].T, self.cols)):
            phi = self.net.branch_features(h, j)
            seen = np.flatnonzero(np.bincount(actions))     # sub-actions with data, ascending
            sets = [np.flatnonzero(actions == a)[-self.config.blr_dataset_cap:] for a in seen]
            self.posterior.refit(cols.start + seen, [phi[s] for s in sets], [u[s] for s in sets])

    # -- checkpointing ----------------------------------------------------

    _WEIGHTS = ("mu", "omega", "omega_tilde")

    def _saved(self) -> dict[str, np.ndarray]:
        """As the base class, then the posterior; of its sampling factor
        only the rows off the prior, and their indices."""
        post = self.posterior
        rows = np.flatnonzero((post.scale != post.prior_scale).any(axis=(1, 2)))
        return {**super()._saved(),
                **{f"extra_post_{name}": getattr(post, name) for name in self._WEIGHTS},
                "extra_post_scale_rows": rows, "extra_post_scale": post.scale[rows]}

    def load_checkpoint(self, path) -> dict[str, np.ndarray]:
        """As the base class, then restore the posterior as saved, its
        sampling factor and target weights included."""
        data = super().load_checkpoint(path)
        post = self.posterior
        for name in self._WEIGHTS:
            if data[f"extra_post_{name}"].shape != getattr(post, name).shape:
                raise ValueError(f"{path}: extra_post_{name}: shape mismatch")
            setattr(post, name, data[f"extra_post_{name}"])
        rows, scale = data["extra_post_scale_rows"], data["extra_post_scale"]
        in_range = np.all((rows >= 0) & (rows < len(post.mu)))
        if scale.shape != (len(rows), post.d, post.d) or not in_range:
            raise ValueError(f"{path}: extra_post_scale: shape mismatch")
        post.set_scale_rows(rows, scale)
        self.buffer.clear_target_scores()     # omega_tilde was restored
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
) -> TrainingResult:
    """Run the full slotted learning loop for ``n_episodes`` episodes.

    ``demand_provider(e)`` returns episode e's ``(slots, n_bs, 1 + C)``
    demand array, and ``episode_seed_base + e`` is its utilization-noise
    seed, which a noisy env needs.  The schedule counters are global: with
    the Bayesian agent, posteriors are refreshed at slot counts divisible by
    ``T_p`` (before acting), the target network syncs at multiples of
    ``T_g`` and the Thompson weights are re-drawn at multiples of ``T_s``
    (both after the gradient step).
    """
    cfg = agent.config
    bayes = isinstance(agent, BayesAgent)
    result = TrainingResult()
    count = 0
    for e in range(n_episodes):
        seed = None if episode_seed_base is None else episode_seed_base + e
        state = env.reset(demand_provider(e), noise_seed=seed)
        state_vec = env.encode_state(state)
        losses: list[float] = []
        cost_sums: dict[str, float] = {}
        pen = rec = 0.0
        terminal = False
        t = 0
        while not terminal:
            if bayes and count % cfg.T_p == 0:
                agent.update_posteriors()
            idx = agent.select_action(state_vec, episode=e)
            next_state, reward, costs, terminal = env.step(idx)
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

            for key, val in costs.as_dict().items():
                cost_sums[key] = cost_sums.get(key, 0.0) + val
            pen += costs.penalty_total
            rec += costs.reconfig_total
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
            total_reward=cost_sums["reward"],
            mean_reward=cost_sums["reward"] / t,
            cost_sums=cost_sums,
            penalty_total=pen,
            reconfig_total=rec,
            routing_total=cost_sums["routing"],
            elastic_delay_total=cost_sums["elastic_delay"],
            mean_loss=float(np.mean(losses)) if losses else None,
        ))
        logger.info(
            "episode %d: mean reward %.3f penalty %.2f", e, cost_sums["reward"] / t, pen
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
        state, reward, _, terminal = env.step(idx)
        total += reward
        t += 1
    return total / t
