"""Print the byte-identity fingerprints of seeded training runs.

Run from the repository root on two trees and compare the output:

    PYTHONPATH=src python3 tools/identity.py
    PYTHONPATH=src python3 tools/identity.py toy-egreedy

Each training run prints the sha256 of its slot rewards written as
``float.hex`` (one per line), the sha256 of the final ``net.params`` bytes,
the ``mean_loss`` of its last three episodes and the sha256 of every
training step's loss written as ``float.hex`` (``step_losses``: a change
that moves one step's loss in its last bit can leave the episode means
equal).  A Bayes run also prints the sha256 of its final posterior means
(``posterior.mu``) and sampling factors (``posterior.scale``) bytes, which
fingerprint the posterior refits directly.  ``toy-oracle`` prints the
exhaustive oracle's best mean reward and the ``Action`` that reaches it, so
a tie broken another way shows.  Runs are built by
``harness.seeded_run``, as ``harness.run_experiment`` builds them, with BLAS
on one thread as the benchmark runs it.

``default-bayes`` never refits a posterior (the first refresh on
``default.yaml`` is at slot 1,440), so its posterior means stay zero and
every gradient it takes is zero.  ``default-bayes-refit`` and
``default-egreedy`` set ``T_p`` and ``T_g`` to 144, so their three episodes
refresh and sync at slots 144 and 288 at full network size: their params
hash checks the backward pass and Adam at default shapes.
``default-bayes-long`` trains the same Bayes run for four episodes, so
Adam reaches t = 449 over every one of default's 21 ``ADAM_BLOCK`` blocks:
past t = 356, where ``1 - beta1**t`` rounds to exactly 1.0.  The other
default lines stop near t = 305, and toy's parameters fit in one block.

Both shipped configs are noise-free.  ``toy-noisy`` trains toy's Bayes agent
for three episodes with utilization ``noise_std`` 0.3, so the episode noise
that ``OranMecEnv.reset`` draws has a line too.
"""
from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"       # before numpy is first imported

import dataclasses  # noqa: E402
import hashlib  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from oranmec import agents, harness  # noqa: E402

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# name: (config, agent mode, experiment seed, episodes, agent overrides,
#        utilization noise_std)
PERIOD_144 = {"T_p": 144, "T_g": 144}
RUNS = {
    "toy-bayes": ("toy.yaml", "bayes", 7, 30, {}, 0.0),
    "toy-egreedy": ("toy.yaml", "egreedy", 7, 10, {}, 0.0),
    "default-bayes": ("default.yaml", "bayes", 0, 2, {}, 0.0),
    "default-bayes-refit": ("default.yaml", "bayes", 0, 3, PERIOD_144, 0.0),
    "default-egreedy": ("default.yaml", "egreedy", 0, 3, PERIOD_144, 0.0),
    "default-bayes-long": ("default.yaml", "bayes", 0, 4, PERIOD_144, 0.0),
    "toy-noisy": ("toy.yaml", "bayes", 7, 3, {}, 0.3),
}


def sha256(array: np.ndarray) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


def hex_sha256(values) -> str:
    """sha256 of the floats written as ``float.hex``, one per line."""
    return hashlib.sha256("\n".join(map(float.hex, values)).encode()).hexdigest()


def fingerprint(
    config: str, mode: str, seed: int, episodes: int, overrides: dict, noise_std: float
) -> str:
    """One seeded training run's fingerprint line: sha256 of the float-hex
    slot rewards and of the final network parameters, the last three
    episodes' ``mean_loss``, sha256 of the float-hex per-step losses and,
    for Bayes, sha256 of the final posterior means and sampling factors."""
    cfg = harness.load_experiment_config(CONFIGS / config)
    cfg = dataclasses.replace(
        cfg, utilization=dataclasses.replace(cfg.utilization, noise_std=noise_std)
    )
    env, agent, provider, episode_seed = harness.seeded_run(cfg, seed, mode=mode, **overrides)
    losses = []
    train_step = agent.train_step

    def recorded_train_step():
        loss = train_step()
        if loss is not None:
            losses.append(loss)
        return loss

    agent.train_step = recorded_train_step
    result = agents.run_training(env, agent, provider, episodes, episode_seed_base=episode_seed)
    line = (
        f"rewards {hex_sha256(s.reward for s in result.steps)} "
        f"params {sha256(agent.net.params)} "
        f"mean_loss {[r.mean_loss for r in result.episodes[-3:]]!r} "
        f"step_losses {hex_sha256(losses)}"
    )
    if mode == "bayes":
        post = agent.posterior
        line += f" posterior_mu {sha256(post.mu)} posterior_scale {sha256(post.scale)}"
    return line


def main(argv: list[str]) -> int:
    names = argv or [*RUNS, "toy-oracle"]
    for name in names:
        if name == "toy-oracle":
            best = harness.run_oracle(harness.load_experiment_config(CONFIGS / "toy.yaml"))
            print(f"toy-oracle best {best.mean_reward!r} at {best.action}")
        elif name in RUNS:
            print(f"{name} {fingerprint(*RUNS[name])}")
        else:
            print(f"unknown run {name!r}; expected one of {[*RUNS, 'toy-oracle']}", file=sys.stderr)
            return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
