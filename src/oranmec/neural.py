"""Minimal dense-network core for the branching Q agents.

A shared trunk (input layer plus hidden layers, rectifier activations) feeds
one feature head per action branch.  Each head produces a feature vector; in
non-Bayesian operation a bias-free linear output layer on top of the
features yields that branch's Q row, so a branch's Q values are always an
exact linear transformation of its features.

Storage is flat: every parameter lives in one double-precision vector
(``params``) and every gradient in a second one of the same length
(``grads``); each layer's weight and bias are views into them (``w`` and
``dw``).  The branch feature heads are fused: their weights form one
(H, J*F) matrix and their biases one (J*F,) vector, branch j owning columns
j*F to (j+1)*F, so a forward or backward pass through all J heads is a
single matrix product and ``features()`` returns per-branch column views of
its output.  ``Adam`` updates the flat vector in place, one fixed-size block
at a time.  Cloning, syncing and checkpointing a network copy one array.

A network built by the constructor is trainable: each forward pass keeps
what the next backward pass needs (the trunk layers' inputs and the branch
layer's rectifier mask, plus the branch layer's output when Q heads sit on
top) and the backward pass releases it.  ``clone()`` makes an inference copy
for target networks: it has no gradient vector and keeps no activations.
Gradients for all parameters (branch errors flowing back into the shared
trunk) are formed without any autodiff dependency.
"""
from __future__ import annotations

import copy
import json
import logging
import math
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger("oranmec.neural")

CHECKPOINT_VERSION = 2

# Elements per in-place Adam block: two scratch blocks of 512 KiB.
ADAM_BLOCK = 65_536


class GradientError(ValueError):
    """Rejected update: non-finite gradient."""


@dataclass(frozen=True)
class Layers:
    """A network's tensors as views into one flat vector."""

    trunk: list[np.ndarray]         # (n_in, width) per trunk layer
    trunk_bias: list[np.ndarray]    # (width,)
    branch: np.ndarray              # (H, J*F), all branch feature heads
    branch_bias: np.ndarray         # (J*F,)
    heads: list[np.ndarray]         # (F, branch_sizes[j]); empty without heads

    def tensors(self) -> list[np.ndarray]:
        """Every view, in storage order."""
        out = []
        for w, b in zip(self.trunk, self.trunk_bias):
            out += [w, b]
        return out + [self.branch, self.branch_bias, *self.heads]


class BranchingQNet:
    """Shared trunk with one feature head (and optional Q head) per branch.

    ``branch_sizes[j]`` is the number of sub-actions of branch j; its Q row
    has that many entries.  ``features()`` returns the per-branch feature
    vectors, ``q_values()`` the linear Q rows (requires ``with_heads``).
    """

    def __init__(
        self,
        state_dim: int,
        branch_sizes: list[int],
        trunk_widths: tuple[int, ...] = (256, 256, 256),
        feature_dim: int = 128,
        with_heads: bool = True,
        seed: int | None = None,
    ):
        if len(trunk_widths) < 1:
            raise ValueError("need at least the input-layer width")
        rng = np.random.default_rng(seed)
        self.state_dim = int(state_dim)
        self.branch_sizes = [int(n) for n in branch_sizes]
        self.trunk_widths = tuple(int(w) for w in trunk_widths)
        self.feature_dim = int(feature_dim)
        self.with_heads = bool(with_heads)

        F = self.feature_dim
        self._cols = [slice(j * F, (j + 1) * F) for j in range(self.n_branches)]
        widths = (self.state_dim, *self.trunk_widths)
        self._shapes = []
        for n_in, n_out in zip(widths, widths[1:]):
            self._shapes += [(n_in, n_out), (n_out,)]
        self._shapes += [(widths[-1], self.n_branches * F), (self.n_branches * F,)]
        if self.with_heads:
            self._shapes += [(F, n) for n in self.branch_sizes]
        size = sum(math.prod(s) for s in self._shapes)
        self.params = np.zeros(size)
        self.grads = np.zeros(size)
        self.w = self._views(self.params)
        self.dw = self._views(self.grads)
        self._cache: tuple | None = None

        # Scaled-uniform fan-in init, drawn layer by layer and branch by
        # branch (trunk, branch heads, Q heads); biases start at zero.
        def init(w: np.ndarray) -> None:
            bound = 1.0 / np.sqrt(w.shape[0])
            w[...] = rng.uniform(-bound, bound, size=w.shape)

        for w in self.w.trunk:
            init(w)
        for cols in self._cols:
            init(self.w.branch[:, cols])
        for w in self.w.heads:
            init(w)

    def _views(self, flat: np.ndarray) -> Layers:
        views, start = [], 0
        for shape in self._shapes:
            size = math.prod(shape)
            views.append(flat[start:start + size].reshape(shape))
            start += size
        n = 2 * len(self.trunk_widths)
        return Layers(views[0:n:2], views[1:n:2], views[n], views[n + 1], views[n + 2:])

    @property
    def n_branches(self) -> int:
        return len(self.branch_sizes)

    # -- forward ----------------------------------------------------------

    def _check_input(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        if single:
            x = x[None, :]
        if x.ndim != 2 or x.shape[1] != self.state_dim:
            raise ValueError(f"input shape {x.shape}, expected (*, {self.state_dim})")
        return x

    def features(self, x: np.ndarray) -> list[np.ndarray]:
        """Per-branch feature matrices, shape (batch, feature_dim): column
        views of one (batch, J*F) array."""
        h = self._check_input(x)
        self._cache = None          # free the previous pass's activations first
        inputs = [h]
        for w, b in zip(self.w.trunk, self.w.trunk_bias):
            h = h @ w
            h += b
            np.maximum(h, 0.0, out=h)
            inputs.append(h)
        z = h @ self.w.branch
        z += self.w.branch_bias
        np.maximum(z, 0.0, out=z)
        if self.dw is not None:
            self._cache = (inputs, z > 0, z if self.with_heads else None)
        return [z[:, cols] for cols in self._cols]

    def q_values(self, x: np.ndarray) -> list[np.ndarray]:
        """Per-branch Q matrices, shape (batch, branch_sizes[j])."""
        if not self.with_heads:
            raise RuntimeError("network was built without Q heads")
        phis = self.features(x)
        return [phi @ w for phi, w in zip(phis, self.w.heads)]

    # -- backward ---------------------------------------------------------

    def backward_from_features(self, d_phis: list[np.ndarray]) -> None:
        """Backpropagate given the loss gradient at every branch's features,
        filling ``grads``; releases the forward pass's activations."""
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        (inputs, mask, _), self._cache = self._cache, None
        dz = np.concatenate(d_phis, axis=1)
        dz *= mask
        np.matmul(inputs[-1].T, dz, out=self.dw.branch)
        np.sum(dz, axis=0, out=self.dw.branch_bias)
        dh = dz @ self.w.branch.T
        for i in reversed(range(len(self.trunk_widths))):
            dh *= inputs[i + 1] > 0
            np.matmul(inputs[i].T, dh, out=self.dw.trunk[i])
            np.sum(dh, axis=0, out=self.dw.trunk_bias[i])
            if i:
                dh = dh @ self.w.trunk[i].T

    def backward_from_q(self, d_qs: list[np.ndarray]) -> None:
        """Backpropagate given the loss gradient at every branch's Q row."""
        if not self.with_heads:
            raise RuntimeError("network was built without Q heads")
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        z = self._cache[2]
        d_phis = []
        for cols, w, dw, d_q in zip(self._cols, self.w.heads, self.dw.heads, d_qs):
            np.matmul(z[:, cols].T, d_q, out=dw)
            d_phis.append(d_q @ w.T)
        self.backward_from_features(d_phis)

    # -- parameter plumbing -------------------------------------------------

    def parameters(self) -> list[np.ndarray]:
        """Per-layer views into ``params``, in storage order."""
        return self.w.tensors()

    def gradients(self) -> list[np.ndarray]:
        """Per-layer views into ``grads``, matching ``parameters()``."""
        return self.dw.tensors()

    def clone(self) -> "BranchingQNet":
        """Independent inference copy (a target network): same parameters,
        no gradient vector, keeps no activations, cannot run backward."""
        twin = copy.copy(self)
        twin.params = self.params.copy()
        twin.w = twin._views(twin.params)
        twin.grads = twin.dw = twin._cache = None
        return twin

    def load_params(self, flat: np.ndarray) -> None:
        """Overwrite every parameter from a flat vector of the same layout."""
        if flat.shape != self.params.shape:
            raise ValueError(
                f"parameter vector of shape {flat.shape}, expected {self.params.shape}"
            )
        self.params[...] = flat

    def arch(self) -> dict:
        return {
            "state_dim": self.state_dim,
            "branch_sizes": self.branch_sizes,
            "trunk_widths": list(self.trunk_widths),
            "feature_dim": self.feature_dim,
            "with_heads": self.with_heads,
        }


class Adam:
    """Standard Adam with bias correction over one flat parameter vector,
    updated in place in blocks of ``ADAM_BLOCK``; rejects non-finite
    gradients."""

    def __init__(
        self,
        params: np.ndarray,
        lr: float = 1e-4,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        if params.ndim != 1:
            raise ValueError(f"Adam takes one flat parameter vector, got shape {params.shape}")
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = np.zeros(params.size)
        self.v = np.zeros(params.size)
        self.t = 0
        self._scratch = np.empty((2, min(ADAM_BLOCK, params.size)))

    def step(self, grads: np.ndarray) -> None:
        if grads.shape != self.params.shape:
            raise ValueError(f"gradient shape {grads.shape} does not match {self.params.shape}")
        if not np.isfinite(grads).all():
            raise GradientError("non-finite gradient, update rejected")
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        b1t = 1.0 - b1 ** self.t
        b2t = 1.0 - b2 ** self.t
        # Each operation in the order of m = b1*m + (1-b1)*g,
        # v = b2*v + (1-b2)*g*g and p -= lr*(m/b1t) / (sqrt(v/b2t) + eps),
        # so the result is bit-equal to that unblocked formula.
        for lo in range(0, self.params.size, ADAM_BLOCK):
            p, g, m, v = (a[lo:lo + ADAM_BLOCK] for a in (self.params, grads, self.m, self.v))
            s, r = self._scratch[:, :p.size]
            m *= b1
            np.multiply(g, 1.0 - b1, out=s)
            m += s
            v *= b2
            np.multiply(g, 1.0 - b2, out=s)
            s *= g
            v += s
            np.divide(m, b1t, out=s)
            s *= self.lr
            np.divide(v, b2t, out=r)
            np.sqrt(r, out=r)
            r += self.eps
            s /= r
            p -= s

    def load_state(self, m: np.ndarray, v: np.ndarray, t: int) -> None:
        if m.shape != self.m.shape or v.shape != self.v.shape:
            raise ValueError(f"adam moments {m.shape}/{v.shape}, expected {self.m.shape}")
        self.m[...] = m
        self.v[...] = v
        self.t = int(t)


def save_checkpoint(path, net: BranchingQNet, adam: Adam | None = None, extra: dict | None = None) -> None:
    """Dump network (and optionally optimizer/posterior state) to one file.

    The archive holds the flat parameter vector, Adam's flat moments and a
    json header with the architecture.
    """
    blobs: dict[str, np.ndarray] = {"params": net.params}
    meta = {"version": CHECKPOINT_VERSION, "arch": net.arch(), "adam_t": None}
    if adam is not None:
        blobs["adam_m"] = adam.m
        blobs["adam_v"] = adam.v
        meta["adam_t"] = adam.t
    if extra:
        for key, arr in extra.items():
            blobs[f"extra_{key}"] = np.asarray(arr)
        meta["extra_keys"] = sorted(extra.keys())
    blobs["_meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(path, **blobs)


def load_checkpoint(path) -> dict:
    """Read a checkpoint into {meta, params, adam, extra}: ``params`` is the
    flat vector, ``adam`` holds moments ``m`` and ``v`` when saved."""
    with np.load(path) as archive:
        blobs = {k: archive[k] for k in archive.files}
    meta = json.loads(bytes(blobs.pop("_meta")).decode())
    if meta.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {meta.get('version')}")
    adam = {k[len("adam_"):]: v for k, v in blobs.items() if k.startswith("adam_")}
    extra = {k[len("extra_"):]: v for k, v in blobs.items() if k.startswith("extra_")}
    return {"meta": meta, "params": blobs["params"], "adam": adam, "extra": extra}
