import csv
import json
import math
import os
import re
import subprocess
import sys
import textwrap
import time
import zipfile

import numpy as np
import pytest
import yaml

from oranmec import harness
from oranmec.agents import run_training
from oranmec.cli import main as cli_main
from oranmec.env import ActionSpaceTooLarge, CostBreakdown
from oranmec.harness import (
    EPISODE_FIELDS,
    STEP_FIELDS,
    ConfigError,
    Flavors,
    Workload,
    _convergence_episode,
    build_env,
    compare_runs,
    load_experiment_config,
    make_demand_provider,
    run_experiment,
    run_oracle,
    seeded_run,
    write_episode_csv,
    write_step_csv,
)
from oranmec.workload import synth_demands
from tests.conftest import CONFIG_DIR, load_toy


def toy_config(tmp_path, **overrides):
    with open(CONFIG_DIR / "toy.yaml") as fh:
        raw = yaml.safe_load(fh)
    raw["out_dir"] = str(tmp_path / "out")
    raw["episodes"] = 2
    raw["episode_slots"] = 12
    raw.update(overrides)
    path = tmp_path / "toy.yaml"
    path.write_text(yaml.safe_dump(raw))
    return path


class TestConfig:
    def test_loads_shipped_toy(self):
        cfg = load_experiment_config(CONFIG_DIR / "toy.yaml")
        assert cfg.agent.mode == "bayes"
        assert cfg.agent.T_p == 36
        assert cfg.episodes == 30
        assert cfg.flavors.bbu == (0, 1, 2, 3)

    def test_loads_shipped_default(self):
        cfg = load_experiment_config(CONFIG_DIR / "default.yaml")
        assert cfg.agent.T_p == 1440
        assert cfg.agent.feature_dim == 128
        assert cfg.flavors.bbu == tuple(range(16))

    @pytest.mark.skipif(not yaml.__with_libyaml__, reason="libyaml is not installed")
    @pytest.mark.parametrize("name", ["toy.yaml", "default.yaml"])
    def test_libyaml_and_pure_python_loaders_agree(self, name):
        assert harness.YAML_LOADER is yaml.CSafeLoader
        text = (CONFIG_DIR / name).read_text()
        assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_experiment_config(tmp_path / "nope.yaml")

    def test_unknown_agent_key(self, tmp_path):
        path = toy_config(tmp_path)
        raw = yaml.safe_load(path.read_text())
        raw["agent"]["learning_rate"] = 0.1
        path.write_text(yaml.safe_dump(raw))
        with pytest.raises(ConfigError, match="learning_rate"):
            load_experiment_config(path)

    @pytest.mark.parametrize("value", [5, 0])
    def test_agent_seed_refused_and_pointed_to_seeds(self, tmp_path, value):
        # seeded_run replaces agent.seed with a seed derived from the entry
        # of ``seeds`` it runs, so a configured value would be ignored
        path = toy_config(tmp_path)
        raw = yaml.safe_load(path.read_text())
        raw["agent"]["seed"] = value
        path.write_text(yaml.safe_dump(raw))
        with pytest.raises(ConfigError, match=r"agent\.seed is not a config key: .* seeds"):
            load_experiment_config(path)

    def test_agent_sizes_rejected(self, tmp_path):
        path = toy_config(tmp_path)
        raw = yaml.safe_load(path.read_text())
        for key, value in [
            ("blr_dataset_cap", 0), ("sigma_eps", 0.0), ("prior_sigma", -1.0),
            ("lr", 0.0), ("lr", math.inf), ("gamma", 1.5),
            ("feature_dim", 0), ("trunk_widths", [64, 0]), ("trunk_widths", []),
        ]:
            path.write_text(yaml.safe_dump({**raw, "agent": {**raw["agent"], key: value}}))
            with pytest.raises(ConfigError, match=key):
                load_experiment_config(path)

    @pytest.mark.parametrize("section, key, value", [
        ("reward", "kappa_d", math.nan),
        ("reward", "kappa_h", math.inf),
        ("reward", "delay_slope", math.nan),
        ("reward", "max_delay_ms", math.inf),
        ("reward", "delay_threshold", {1: math.nan}),
        ("utilization.params", "bbu_base", math.nan),
        ("utilization.params", "mec_slope", [1.0, math.inf]),
        ("utilization", "noise_std", math.nan),
        ("agent", "feature_dim", 0),
        ("workload", "legacy_gbps", math.nan),
        ("workload", "legacy_gbps", -1.0),
        ("workload", "legacy_gbps", math.inf),
        ("workload", "peak_gbps", math.nan),
        ("workload", "mec_gbps", [0.6, -0.1]),
        ("workload", "mec_gbps", [0.6]),
        ("", "episode_slots", 0),
        ("workload", "source", "synthetic"),
        ("workload", "source", "trace"),
        ("agent", "trunk_widths", []),
        ("agent", "T_p", 36.9),
        ("", "episodes", 2.5),
        ("", "seeds", [7.9]),
        ("agent", "batch_size", True),
        ("reward", "kappa_d", True),
        ("agent", "T_p", math.inf),
        ("agent", "trunk_widths", "64"),
        ("agent", "trunk_widths", 64),
        ("flavors", "bbu", "0123"),
        ("reward", "delay_threshold", [1.0]),
        ("utilization.params", "mec_base", True),
        ("utilization.params", "mec_slope", True),
        ("flavors", "mec", [[0, 1, 2, 3]]),
        ("reward", "delay_threshold", {5: 1.0}),
        ("", "n_services", 0),
        ("flavors", "bbu", [-1, 2]),
        ("flavors", "bbu", [1, 1, 2]),
        ("flavors", "bbu", []),
        ("flavors", "mec", [[0, 1, 2, 3], []]),
        ("", "seeds", [-1]),
        ("workload", "seed", -2),
        ("agent", "T_p", 0),
        ("agent", "mode", "dqn"),
    ])
    def test_unusable_number_refused_at_load(self, tmp_path, capsys, section, key, value):
        # a NaN or infinite reward term leaves the oracle no action scored
        # above -inf; a NaN utilization term prices every draw as 0; an
        # infinite demand is priced at the demand cap; a NaN, negative or
        # misshapen demand, no slots, a synthetic horizon that is not whole
        # days (2 x 12 slots here) or a trace without a path would fail only
        # at run time without naming the key; a fractional or bool number
        # would be truncated or read as 1, a string read as a list of its
        # characters, and an infinite int key would raise an OverflowError;
        # a MEC flavor ladder or delay threshold per class is checked against
        # the class count; a negative flavor rung would be a negative charge,
        # a repeated one two indices for one value, and an empty ladder fails
        # in build_env; a negative seed fails at the run's start in numpy
        # without naming the key.  Each is named by its key path.
        raw = yaml.safe_load(toy_config(tmp_path).read_text())
        target = raw
        for name in filter(None, section.split(".")):     # "" is the top level
            target = target[name]
        target[key] = value
        path = tmp_path / "unusable.yaml"
        path.write_text(yaml.safe_dump(raw))
        with pytest.raises(ConfigError, match=re.escape(f"{section}.{key}") if section else key):
            load_experiment_config(path)
        for command in ("oracle", "run"):
            assert cli_main([command, "--config", str(path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and key in err

    def test_missing_topology_section_named(self, tmp_path):
        raw = yaml.safe_load(toy_config(tmp_path).read_text())
        del raw["topology"]
        path = tmp_path / "no_topology.yaml"
        path.write_text(yaml.safe_dump(raw))
        with pytest.raises(ConfigError, match="missing topology section"):
            load_experiment_config(path)

    def test_trace_without_path_names_the_key(self, tmp_path):
        path = toy_config(tmp_path, workload={"source": "trace"})
        with pytest.raises(ConfigError, match=r"workload\.source trace needs a workload\.path"):
            load_experiment_config(path)

    def test_reward_gamma_rejected(self, tmp_path):
        # the discount is agent.gamma; a reward-level gamma would do nothing
        path = toy_config(tmp_path)
        raw = yaml.safe_load(path.read_text())
        raw["reward"]["gamma"] = 0.5
        path.write_text(yaml.safe_dump(raw))
        with pytest.raises(ConfigError, match="unknown reward config keys"):
            load_experiment_config(path)

    def test_class_keys_parsed_and_services_section_refused(self, tmp_path):
        path = toy_config(tmp_path, reward={"delay_threshold": {2: 0.5}})
        cfg = load_experiment_config(path)
        assert (cfg.n_services, cfg.reward.delay_threshold) == (2, {2: 0.5})
        path = toy_config(tmp_path, services={"n_services": 2, "inelastic": [1]})
        with pytest.raises(ConfigError, match=r"unknown top-level config keys \['services'\]"):
            load_experiment_config(path)

    def test_no_seeds_rejected(self, tmp_path):
        path = toy_config(tmp_path, seeds=[])
        with pytest.raises(ConfigError):
            load_experiment_config(path)

    @pytest.mark.parametrize("section, key", [
        ("", "episdoes"),
        ("workload", "peak_gbs"),
        ("utilization", "platfrom"),
        ("utilization.params", "bbu_slop"),
        ("flavors", "mce"),
        ("topology", "capacity_rcs"),
        ("topology.waxman", "alpah"),
    ])
    def test_misspelt_key_in_each_section_rejected(self, tmp_path, section, key):
        raw = yaml.safe_load(toy_config(tmp_path).read_text())
        if section == "topology.waxman":
            raw["topology"] = {"waxman": {"n": 14, "seed": 3, "n_ru": 1}}
        target = raw
        for name in filter(None, section.split(".")):
            target = target[name]
        target[key] = 1
        path = tmp_path / "typo.yaml"
        path.write_text(yaml.safe_dump(raw))
        where = section or "top-level"
        with pytest.raises(ConfigError, match=rf"unknown {where} config keys \['{key}'\]"):
            load_experiment_config(path)

    @pytest.mark.parametrize("key", ["mec_base", "mec_slope"])
    def test_per_class_param_of_another_length_names_its_key(self, tmp_path, key):
        params = {"bbu_base": 0.2, "bbu_slope": 1.2, "mec_base": 0.2, "mec_slope": 1.0}
        path = toy_config(tmp_path, utilization={"params": {**params, key: [0.2] * 3}})
        with pytest.raises(ConfigError, match=rf"utilization\.params\.{key} needs 2 entries, got 3"):
            load_experiment_config(path)

    PARAMS = {"bbu_base": 0.2, "bbu_slope": 1.2, "mec_base": 0.2, "mec_slope": 1.0}

    @pytest.mark.parametrize("utilization, message", [
        ({"params": {**PARAMS, "bbu_base": math.nan}},
         r"utilization\.params\.bbu_base must be nonnegative and finite, got nan"),
        ({"noise_std": -1.0},
         r"utilization\.noise_std must be nonnegative and finite, got -1\.0"),
        ({"noise_std": -1.0, "params": PARAMS},
         r"utilization\.noise_std must be nonnegative and finite, got -1\.0"),
    ], ids=["param", "noise_std", "noise_std-with-params"])
    def test_refused_model_value_names_its_key_path(self, tmp_path, utilization, message):
        path = toy_config(tmp_path, utilization=utilization)
        with pytest.raises(ConfigError, match=message):
            load_experiment_config(path)

    @pytest.mark.parametrize("waxman, message", [
        ({"n": 14, "n_ru": 1},
         "topology.waxman: Waxman.__init__() missing 1 required positional argument: 'seed'"),
        ({"n": 14, "n_ru": 1, "seed": -1}, "topology.waxman.seed must be nonnegative, got -1"),
    ], ids=["missing", "negative"])
    def test_waxman_seed_names_its_section(self, tmp_path, waxman, message):
        path = toy_config(tmp_path, topology={"waxman": waxman})
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_experiment_config(path)

    @pytest.mark.parametrize("topology, message", [
        ({"du_servers": []}, "topology.du_servers leaves no DU server"),
        ({"cu_servers": []}, "topology.cu_servers leaves no CU server"),
        ({"waxman": {"n": 14, "seed": 3, "n_du": 0}}, "topology.waxman.n_du leaves no DU server"),
        ({"waxman": {"n": 14, "seed": 3, "n_cu": 0}}, "topology.waxman.n_cu leaves no CU server"),
    ], ids=["du_servers", "cu_servers", "n_du", "n_cu"])
    def test_topology_without_du_or_cu_servers_refused(self, tmp_path, topology, message):
        if "waxman" not in topology:
            topology = {**yaml.safe_load((CONFIG_DIR / "toy.yaml").read_text())["topology"],
                        **topology}
        path = toy_config(tmp_path, topology=topology)
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_experiment_config(path)

    def test_unknown_platform_rejected(self, tmp_path):
        path = toy_config(tmp_path, utilization={"platform": "C"})
        with pytest.raises(ConfigError, match="platform must be A or B, got 'C'"):
            load_experiment_config(path)

    def test_params_override_the_platform(self, tmp_path):
        params = {"bbu_base": 0.2, "bbu_slope": 1.2, "mec_base": 0.2, "mec_slope": 1.0}
        util = build_env(load_experiment_config(
            toy_config(tmp_path, utilization={"platform": "B", "params": params})
        )).util
        assert (util.bbu_base, util.bbu_slope, util.mec_base, util.mec_slope) == \
            (0.2, 1.2, (0.2, 0.2), (1.0, 1.0))
        # stock B is A with each floor times 1.1 and each slope times 1.25
        stock_b = (0.5 * 1.1, 1.5 * 1.25, (0.2 * 1.1,) * 2, (1.0 * 1.25,) * 2)
        path = toy_config(tmp_path, utilization={"platform": "B"})
        util = build_env(load_experiment_config(path)).util
        assert (util.bbu_base, util.bbu_slope, util.mec_base, util.mec_slope) == stock_b
        # a partial override keeps B's other values, not A's
        path = toy_config(tmp_path, utilization={"platform": "B", "params": {"bbu_base": 0.3}})
        util = build_env(load_experiment_config(path)).util
        assert (util.bbu_base, util.bbu_slope, util.mec_base, util.mec_slope) == \
            (0.3, *stock_b[1:])

    def test_workload_without_seed_uses_the_experiment_seed(self, tmp_path):
        for workload in ({"source": "synthetic"}, None):
            raw = yaml.safe_load(
                toy_config(tmp_path, workload=workload, episode_slots=144).read_text()
            )
            if workload is None:
                del raw["workload"]
            path = tmp_path / "seedless.yaml"
            path.write_text(yaml.safe_dump(raw))
            cfg = load_experiment_config(path)
            demands = make_demand_provider(cfg, 5)(1)
            expected = synth_demands(5, 2 * 144, 1, 2, 4.0)[144:]
            assert np.array_equal(demands, expected)

    @pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.yaml")), ids=lambda p: p.name)
    def test_every_shipped_config_loads_and_builds(self, path):
        cfg = load_experiment_config(path)
        env = build_env(cfg)
        assert env.layout.n_bs == len(cfg.topology.ru_ids)
        assert make_demand_provider(cfg, cfg.seeds[0])(0).shape == \
            (cfg.episode_slots, env.layout.n_bs, 1 + cfg.n_services)

    def test_the_oracle_path_leaves_numpy_random_unloaded(self):
        # toy.yaml's oracle draws no number, so reading the config, building
        # the env and an oracle pass leave numpy.random (~5 MB resident)
        # unloaded
        code = textwrap.dedent("""
            import sys
            from oranmec import harness
            cfg = harness.load_experiment_config(sys.argv[1])
            harness.build_env(cfg)
            harness.run_oracle(cfg)
            print("numpy.random" in sys.modules)
        """)
        out = subprocess.run(
            [sys.executable, "-c", code, str(CONFIG_DIR / "toy.yaml")],
            env={**os.environ, "PYTHONPATH": str(CONFIG_DIR.parent / "src")},
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.split() == ["False"]


class TestRunExperiment:
    def test_minimal_run_writes_records(self, tmp_path):
        cfg = load_experiment_config(toy_config(tmp_path, seeds=[1]))
        written = run_experiment(cfg)
        ep_files = [p for p in written if p.name.startswith("episodes")]
        assert len(ep_files) == 1
        rows = ep_files[0].read_text().strip().splitlines()
        assert len(rows) == 3                      # header + 2 episodes
        assert (cfg.out_dir / "checkpoint_seed1_bayes.npz").exists()

    def test_modes_write_distinct_files(self, tmp_path):
        cfg = load_experiment_config(toy_config(tmp_path, seeds=[1]))
        run_experiment(cfg)
        cfg2 = load_experiment_config(toy_config(tmp_path, seeds=[1]))
        cfg2.agent.mode = "egreedy"
        run_experiment(cfg2)
        names = {p.name for p in cfg.out_dir.iterdir()}
        assert "episodes_seed1_bayes.csv" in names
        assert "episodes_seed1_egreedy.csv" in names
        a = (cfg.out_dir / "episodes_seed1_bayes.csv").read_text()
        b = (cfg.out_dir / "episodes_seed1_egreedy.csv").read_text()
        assert a != b

    def test_seeded_rerun_is_byte_identical(self, tmp_path):
        cfg1 = load_experiment_config(toy_config(tmp_path, seeds=[5]))
        cfg1.out_dir = tmp_path / "a"
        run_experiment(cfg1)
        cfg2 = load_experiment_config(toy_config(tmp_path, seeds=[5]))
        cfg2.out_dir = tmp_path / "b"
        run_experiment(cfg2)
        for name in ("episodes_seed5_bayes.csv", "steps_seed5_bayes.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_trains_the_run_that_seeded_run_builds(self, tmp_path):
        # tools/identity.py and the tests train seeded_run's runs themselves;
        # seeded unlike run_experiment, they would check a run nobody makes
        cfg = load_experiment_config(toy_config(tmp_path, seeds=[7], episode_slots=144))
        env, agent, provider, episode_seed = seeded_run(cfg, 7)
        result = run_training(env, agent, provider, cfg.episodes, episode_seed_base=episode_seed)
        ours = [(repr(r.total_reward), repr(r.mean_reward)) for r in result.episodes]
        run_experiment(cfg)
        rows = harness.read_episode_csv(cfg.out_dir / "episodes_seed7_bayes.csv")
        assert ours == [(row["total_reward"], row["mean_reward"]) for row in rows]

    def test_default_cluster_single_episode_under_budget(self, tmp_path):
        with open(CONFIG_DIR / "default.yaml") as fh:
            raw = yaml.safe_load(fh)
        raw["episodes"] = 1
        raw["seeds"] = [0]
        raw["out_dir"] = str(tmp_path / "out")
        path = tmp_path / "default.yaml"
        path.write_text(yaml.safe_dump(raw))
        cfg = load_experiment_config(path)
        start = time.monotonic()
        run_experiment(cfg)
        assert time.monotonic() - start < 10.0


class TestClassCount:
    @pytest.mark.parametrize("mode", ["bayes", "egreedy"])
    @pytest.mark.parametrize("n", [1, 3])
    def test_toy_trains_with_other_class_counts(self, tmp_path, n, mode):
        path = toy_config(
            tmp_path, n_services=n,
            flavors={"bbu": [0, 1, 2, 3], "mec": [[0, 1, 2, 3]] * n},
            workload={"source": "constant", "legacy_gbps": 0.5, "mec_gbps": [0.6] * n},
            utilization={"params": {"bbu_base": 0.2, "bbu_slope": 1.2,
                                    "mec_base": [0.2] * n, "mec_slope": [1.0] * n}},
        )
        cfg = load_experiment_config(path)
        env, agent, provider, episode_seed = seeded_run(cfg, 7, mode=mode)
        assert env.layout.n_services == env.util.n_services == n
        result = run_training(env, agent, provider, 1, episode_seed_base=episode_seed)
        rewards = [s.reward for s in result.steps]
        assert len(rewards) == cfg.episode_slots and np.isfinite(rewards).all()

    def test_class_count_changed_in_code_builds_and_trains(self):
        # the env's utilization model follows the config's one class count
        cfg = load_toy(
            n_services=1, episode_slots=12, flavors=Flavors(bbu=(0, 1, 2, 3)),
            workload=Workload(source="constant", legacy_gbps=0.5),
        )
        env, agent, provider, episode_seed = seeded_run(cfg, 7)
        assert env.util.n_services == 1
        result = run_training(env, agent, provider, 1, episode_seed_base=episode_seed)
        assert len(result.steps) == 12 and np.isfinite([s.reward for s in result.steps]).all()


class TestOracle:
    def test_idle_network_prefers_cheap_split_and_zero_flavors(self, tmp_path):
        path = toy_config(
            tmp_path,
            workload={"source": "constant", "legacy_gbps": 0.0, "mec_gbps": [0.0, 0.0]},
            utilization={"params": {"bbu_base": 0, "bbu_slope": 0,
                                    "mec_base": 0, "mec_slope": 0}},
        )
        result = run_oracle(load_experiment_config(path))
        action = result.action
        assert action.split[0] != "S4"
        assert action.du_flavor == (0,)
        assert action.cu_flavor == (0,)
        assert action.mec_flavor == ((0, 0),)

    def test_exhaustive_count(self, tmp_path):
        cfg = load_experiment_config(toy_config(tmp_path))
        result = run_oracle(cfg)
        assert result.n_evaluated == 4 * 2 * 1 * 4 * 4 * 4 * 4 * 2 * 2

    def test_repeat_runs_identical(self, tmp_path):
        cfg = load_experiment_config(toy_config(tmp_path))
        a = run_oracle(cfg)
        b = run_oracle(cfg)
        assert a.action == b.action
        assert a.mean_reward == b.mean_reward

    def test_noisy_utilization_scores_reproducibly(self, tmp_path):
        # every action's episode draws the same noise, so repeat calls agree
        path = toy_config(
            tmp_path, episode_slots=3,
            utilization={"platform": "A", "noise_std": 0.3, "params": {
                "bbu_base": 0.2, "bbu_slope": 1.2, "mec_base": 0.2, "mec_slope": 1.0}},
        )
        cfg = load_experiment_config(path)
        a, b = run_oracle(cfg), run_oracle(cfg)
        assert (a.action, a.mean_reward) == (b.action, b.mean_reward)

    def test_oversized_space_refused(self, tmp_path):
        cfg = load_experiment_config(toy_config(tmp_path))
        with pytest.raises(ActionSpaceTooLarge, match="8192"):
            run_oracle(cfg, limit=100)

    def test_scores_demand_clipped_as_training_sees_it(self, tmp_path):
        best = []
        for legacy in (5.0, 4.0):
            path = toy_config(
                tmp_path,
                workload={"source": "constant", "legacy_gbps": legacy},
            )
            best.append(run_oracle(load_experiment_config(path)))
        assert best[0].mean_reward == best[1].mean_reward
        assert best[0].action == best[1].action

    def test_scores_read_only_demand_rows(self, tmp_path, monkeypatch):
        # a State keeps its demand as given, so the oracle must price rows
        # of its read-only ingested episode
        build = harness.build_env
        writeable = set()

        def recording_build(cfg, util_seed=None):
            env = build(cfg, util_seed=util_seed)
            compute_costs = env.compute_costs

            def recorded(state, row):
                writeable.add(state.demand.flags.writeable)
                return compute_costs(state, row)

            env.compute_costs = recorded
            return env

        monkeypatch.setattr(harness, "build_env", recording_build)
        assert run_oracle(load_experiment_config(toy_config(tmp_path))).n_evaluated == 8192
        assert writeable == {False}

    def test_oracle_upper_bounds_stationary_policies(self, tmp_path):
        import numpy as np
        from oranmec.env import State
        from oranmec.harness import build_env, make_demand_provider

        cfg = load_experiment_config(toy_config(tmp_path))
        best = run_oracle(cfg)
        env = build_env(cfg)
        demands = make_demand_provider(cfg, 0)(0)
        rng = np.random.default_rng(0)
        T = len(demands)
        for _ in range(50):
            action = tuple(int(rng.integers(n)) for n in env.layout.branch_sizes())
            r0 = env.compute_costs(State(0, demands[0], env.initial_action), action).reward
            steady = env.compute_costs(State(1, demands[0], action), action).reward
            avg = (r0 + (T - 1) * steady) / T
            assert avg <= best.mean_reward + 1e-12


class TestCompareRuns:
    def _write(self, path, rewards):
        from oranmec.agents import EpisodeRecord

        records = [
            EpisodeRecord(
                episode=i, total_reward=r * 10, mean_reward=r, cost_sums={},
                penalty_total=0.0, reconfig_total=0.0, routing_total=0.0,
                elastic_delay_total=0.0,
            )
            for i, r in enumerate(rewards)
        ]
        write_episode_csv(path, records)
        return path

    def test_identical_files_zero_difference(self, tmp_path):
        rewards = [-50.0, -40.0, -30.0, -30.0, -30.0]
        a = self._write(tmp_path / "a.csv", rewards)
        b = self._write(tmp_path / "b.csv", rewards)
        out = compare_runs([a, b])
        assert out[1].pct_vs_first == 0.0
        assert out[0].mean_reward_last20 == out[1].mean_reward_last20

    def test_constant_rewards_converge_immediately(self, tmp_path):
        a = self._write(tmp_path / "a.csv", [-10.0] * 20)
        b = self._write(tmp_path / "b.csv", [-10.0] * 20)
        out = compare_runs([a, b])
        assert out[0].convergence_episode == 1

    def test_known_gap_reported(self, tmp_path):
        a = self._write(tmp_path / "a.csv", [-40.0] * 10)
        b = self._write(tmp_path / "b.csv", [-30.0] * 10)
        out = compare_runs([a, b])
        assert out[1].pct_vs_first == pytest.approx(25.0)

    def test_worse_run_reads_negative(self, tmp_path):
        a = self._write(tmp_path / "a.csv", [-40.0] * 10)
        better = self._write(tmp_path / "better.csv", [-30.0] * 10)
        worse = self._write(tmp_path / "worse.csv", [-50.0] * 10)
        out = compare_runs([a, better, worse])
        assert out[2].pct_vs_first == pytest.approx(-25.0)
        table = harness.format_comparison(out).splitlines()
        assert table[2].endswith("+25.00%") and table[3].endswith("-25.00%")

    def test_zero_first_mean_gives_signed_infinities(self, tmp_path):
        a = self._write(tmp_path / "a.csv", [0.0] * 10)
        better = self._write(tmp_path / "better.csv", [1.0] * 10)
        worse = self._write(tmp_path / "worse.csv", [-1.0] * 10)
        same = self._write(tmp_path / "same.csv", [0.0] * 10)
        out = compare_runs([a, better, worse, same])
        assert [s.pct_vs_first for s in out] == [0.0, math.inf, -math.inf, 0.0]
        table = harness.format_comparison(out).splitlines()
        assert table[2].endswith("+inf%") and table[3].endswith("-inf%")
        assert table[4].endswith("+0.00%")

    def test_mismatched_lengths_rejected(self, tmp_path):
        a = self._write(tmp_path / "a.csv", [-1.0] * 5)
        b = self._write(tmp_path / "b.csv", [-1.0] * 6)
        with pytest.raises(ValueError, match="episode counts"):
            compare_runs([a, b])

    def test_unreadable_value_names_file_line_and_column(self, tmp_path):
        a = self._write(tmp_path / "a.csv", [-1.0] * 3)
        b = self._write(tmp_path / "b.csv", [-1.0] * 3)
        text = b.read_text().replace("-1.0", "np.float64(-1.0)")
        b.write_text(text)
        with pytest.raises(ValueError, match=r"b\.csv, line 2, column 'mean_reward'"):
            compare_runs([a, b])

    def test_file_without_rows_names_the_file(self, tmp_path, capsys):
        # a header alone must not compare as mean nan, converged@ 0 and +nan%
        a = self._write(tmp_path / "a.csv", [-1.0] * 3)
        empty = tmp_path / "empty.csv"
        empty.write_text(",".join(EPISODE_FIELDS) + "\n")
        with pytest.raises(ValueError, match=r"empty\.csv: no episode rows"):
            compare_runs([a, empty])
        assert cli_main(["compare", str(a), str(empty)]) == 1
        assert capsys.readouterr().err == f"error: {empty}: no episode rows\n"

    def test_convergence_detector_on_ramp(self):
        # 30-episode ramp: converges only near the end
        ramp = [-100.0 + 3.0 * i for i in range(30)]
        assert _convergence_episode(ramp) > 20
        # plateau after a bad start: converges once the window clears it
        plateau = [-100.0] + [-10.0] * 29
        assert _convergence_episode(plateau) <= 12


class TestMetricFileRoundTrip:
    """Episode and step files written from a real training run, so that the
    values come from ``compute_costs``, read back to the exact values."""

    INT_COLUMNS = {"episode", "step", "is_convergence_episode"}

    @pytest.fixture
    def result(self, tmp_path):
        cfg = load_experiment_config(toy_config(tmp_path))
        env, agent, provider, episode_seed = seeded_run(cfg, 3)
        return run_training(env, agent, provider, cfg.episodes, episode_seed_base=episode_seed)

    def _read_back(self, path, fields):
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            assert tuple(reader.fieldnames) == fields
            return [
                {k: int(v) if k in self.INT_COLUMNS else float(v) for k, v in row.items()}
                for row in reader
            ]

    def test_episode_file_round_trips(self, tmp_path, result):
        path = tmp_path / "episodes.csv"
        write_episode_csv(path, result.episodes)
        rows = self._read_back(path, EPISODE_FIELDS)
        assert EPISODE_FIELDS[7:18] == CostBreakdown._ITEMS
        conv = _convergence_episode([r.mean_reward for r in result.episodes])
        assert len(rows) == len(result.episodes)
        for row, r in zip(rows, result.episodes):
            expected = {
                "episode": r.episode, "total_reward": r.total_reward,
                "mean_reward": r.mean_reward, "penalty_total": r.penalty_total,
                "reconfig_total": r.reconfig_total, "routing_total": r.routing_total,
                "elastic_delay_total": r.elastic_delay_total,
                **{k: r.cost_sums[k] for k in CostBreakdown._ITEMS},
                "is_convergence_episode": int(r.episode + 1 == conv),
            }
            assert row == expected

    def test_step_file_round_trips(self, tmp_path, result):
        path = tmp_path / "steps.csv"
        write_step_csv(path, result.steps)
        rows = self._read_back(path, STEP_FIELDS)
        assert len(rows) == len(result.steps)
        for row, s in zip(rows, result.steps):
            assert row == {
                "episode": s.episode, "step": s.step, "reward": s.reward,
                "J": s.total_cost, "D": s.elastic_delay,
                "penalty_total": s.penalty_total, "reconfig_total": s.reconfig_total,
                "routing_total": s.routing_total,
            }


class TestCli:
    def test_run_and_compare(self, tmp_path, capsys):
        cfg_path = toy_config(tmp_path, seeds=[3])
        assert cli_main(["run", "--config", str(cfg_path)]) == 0
        out_dir = tmp_path / "out"
        ep = out_dir / "episodes_seed3_bayes.csv"
        assert ep.exists()

        assert cli_main(["run", "--config", str(cfg_path), "--mode", "egreedy",
                         "--out", str(out_dir)]) == 0
        ep2 = out_dir / "episodes_seed3_egreedy.csv"
        assert cli_main(["compare", str(ep), str(ep2)]) == 0
        assert "vs first" in capsys.readouterr().out

    def test_oracle_command(self, tmp_path, capsys):
        cfg_path = toy_config(tmp_path)
        assert cli_main(["oracle", "--config", str(cfg_path)]) == 0
        assert "best mean reward" in capsys.readouterr().out

    def test_bad_config_exits_nonzero(self, tmp_path, capsys):
        missing = tmp_path / "none.yaml"
        assert cli_main(["run", "--config", str(missing)]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("episodes", ["0", "-2"])
    def test_rejected_override_writes_nothing(self, tmp_path, capsys, episodes):
        cfg_path = toy_config(tmp_path)
        assert cli_main(["run", "--config", str(cfg_path), "--episodes", episodes]) == 1
        assert "episodes must be positive" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_seed_and_episode_overrides(self, tmp_path):
        cfg_path = toy_config(tmp_path, seeds=[3])
        assert cli_main(["run", "--config", str(cfg_path), "--seed", "9",
                         "--episodes", "1"]) == 0
        ep = tmp_path / "out" / "episodes_seed9_bayes.csv"
        assert len(ep.read_text().strip().splitlines()) == 2

    @pytest.mark.parametrize("mode", ["bayes", "egreedy"])
    def test_pretrained_from_the_checkpoint_that_run_writes(self, tmp_path, mode):
        # full 144-slot episodes, so Adam steps and the posterior refits
        cfg_path = toy_config(tmp_path, episode_slots=144)
        assert cli_main(["run", "--config", str(cfg_path), "--mode", mode, "--seed", "7",
                         "--episodes", "1"]) == 0
        ck = tmp_path / "out" / f"checkpoint_seed7_{mode}.npz"
        assert cli_main(["run", "--config", str(cfg_path), "--mode", mode, "--seed", "7",
                         "--episodes", "1", "--pretrained", str(ck),
                         "--out", str(tmp_path / "again")]) == 0

        agent = seeded_run(load_experiment_config(cfg_path), 7, mode=mode,
                           pretrained_checkpoint=str(ck))[1]
        with np.load(ck) as archive:
            saved = dict(archive)
        assert agent.adam.t == json.loads(bytes(saved["_meta"]).decode())["adam_t"] > 0
        assert np.array_equal(agent.net.params, saved["params"])
        assert np.array_equal(agent.target_net.params, agent.net.params)
        assert np.array_equal(agent.adam.m, saved["adam_m"])
        assert np.array_equal(agent.adam.v, saved["adam_v"])
        if mode == "bayes":
            post = agent.posterior
            for name in ("mu", "omega", "omega_tilde"):
                assert np.array_equal(getattr(post, name), saved[f"extra_post_{name}"])
            rows = saved["extra_post_scale_rows"]
            assert len(rows) > 0
            assert np.array_equal(post.scale[rows], saved["extra_post_scale"])
            prior = np.setdiff1d(np.arange(len(post.mu)), rows)
            assert (post.scale[prior] == post.prior_scale).all()

    REFUSED_CHECKPOINTS = {
        "no-header": " is not an oranmec checkpoint: missing _meta",
        "empty-zip": " is not an oranmec checkpoint: missing _meta",
        "npy": " is not an oranmec checkpoint: missing _meta",
        "bad-json": ": _meta is not a JSON header: Expecting property name",
        "not-object": ": _meta is not a JSON object: [4]",
        "no-adam_t": ": _meta adam_t must be a nonnegative integer, got None",
    }

    @pytest.mark.parametrize("kind", REFUSED_CHECKPOINTS)
    def test_pretrained_file_that_is_not_a_checkpoint(self, tmp_path, capsys, kind):
        path = tmp_path / ("x.npy" if kind == "npy" else "x.npz")
        cfg_path = toy_config(tmp_path)
        if kind == "no-header":
            np.savez(path, params=np.zeros(3))
        elif kind == "empty-zip":
            zipfile.ZipFile(path, "w").close()
        elif kind == "npy":
            np.save(path, np.zeros(3))
        else:       # a checkpoint of the right architecture, its header replaced
            seeded_run(load_experiment_config(cfg_path), 0)[1].save_checkpoint(path)
            with np.load(path) as archive:
                blobs = dict(archive)
            meta = json.loads(bytes(blobs["_meta"]).decode())
            del meta["adam_t"]
            header = {"bad-json": b"{4}", "not-object": b"[4]"}.get(kind, json.dumps(meta).encode())
            np.savez(path, **{**blobs, "_meta": np.frombuffer(header, dtype=np.uint8)})
        out = tmp_path / "refused"
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out),
                         "--pretrained", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}{self.REFUSED_CHECKPOINTS[kind]}")
        assert not out.exists()
