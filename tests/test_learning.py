"""Learning acceptance gate: the toy Bayes agent, trained the way
``oranmec run`` trains it, ends close to the exhaustive oracle's best
stationary reward."""
import math
from pathlib import Path

import numpy as np
import pytest

from oranmec.harness import load_experiment_config, read_episode_csv, run_experiment, run_oracle

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "toy.yaml"

# Gap, in percent, of the mean reward over the last 20% of episodes to the
# oracle's best.  Over experiment seeds 0-29 the full toy schedule ended
# 0.66-19.3% away (median 2.6%); an untrained policy is about 560% away.
# The gate sits above the worst of those 30 seeds: it catches an agent that
# stopped learning, not a weaker seed.
MAX_GAP_PCT = 25.0


@pytest.mark.slow
@pytest.mark.parametrize("seed", [7, 0, 1])     # the config's seed, then two of the sweep
def test_toy_bayes_ends_near_the_oracle(tmp_path, seed):
    cfg = load_experiment_config(CONFIG)
    assert cfg.agent.mode == "bayes"
    best = run_oracle(cfg).mean_reward
    cfg.seeds = [seed]
    cfg.out_dir = tmp_path
    run_experiment(cfg)
    rows = read_episode_csv(tmp_path / f"episodes_seed{seed}_bayes.csv")
    means = [float(r["mean_reward"]) for r in rows]
    assert len(means) == cfg.episodes
    tail = means[-math.ceil(0.2 * len(means)):]
    gap = 100.0 * (best - float(np.mean(tail))) / abs(best)
    print(f"seed {seed}: oracle gap {gap!r}%")
    assert gap <= MAX_GAP_PCT
