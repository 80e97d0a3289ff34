import logging
import re

import numpy as np
import pytest

from oranmec.splits import get_split
from oranmec.workload import (
    PLATFORMS,
    SLOTS_PER_DAY,
    TraceError,
    UtilizationModel,
    constant_demands,
    load_trace,
    synth_demands,
)
from tests.conftest import make_cost_env


def write_trace(tmp_path, rows, header="t,bs,svc,demand_gbps"):
    path = tmp_path / "trace.csv"
    lines = ([header] if header else []) + rows
    path.write_text("\n".join(lines) + ("\n" if lines else ""))
    return path


class TestLoadTrace:
    def test_basic_rows(self, tmp_path):
        path = write_trace(tmp_path, ["0,0,0,2.0", "0,0,1,0.5"])
        demand = load_trace(path, n_bs=1, n_services=1)
        assert demand.shape == (1, 1, 2)
        assert demand[0, 0, 0] == 2.0
        assert demand[0, 0, 1] == 0.5

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert len(load_trace(path, n_bs=1, n_services=1)) == 0

    def test_header_only(self, tmp_path):
        path = write_trace(tmp_path, [])
        assert len(load_trace(path, n_bs=1, n_services=1)) == 0

    def test_negative_demand_rejected(self, tmp_path):
        path = write_trace(tmp_path, ["0,0,0,-1"])
        with pytest.raises(TraceError, match="line 2"):
            load_trace(path, n_bs=1, n_services=1)

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    def test_non_finite_demand_rejected(self, tmp_path, text):
        path = write_trace(tmp_path, ["0,0,0,1.0", f"0,0,1,{text}"])
        with pytest.raises(TraceError, match="line 3: demand_gbps .* is not finite"):
            load_trace(path, n_bs=1, n_services=1)

    def test_repeated_cell_rejected(self, tmp_path):
        # a repeated cell must not let its last value win without a word
        path = write_trace(tmp_path, ["0,0,0,1.0", "0,0,1,0.5", "0,0,0,2.5"])
        with pytest.raises(TraceError, match="line 4: cell t=0, bs=0, svc=0 repeats line 2"):
            load_trace(path, n_bs=1, n_services=1)

    def test_malformed_row_reports_line(self, tmp_path):
        path = write_trace(tmp_path, ["0,0,0,1.0", "1,zero,0,1.0"])
        with pytest.raises(TraceError, match="line 3"):
            load_trace(path, n_bs=1, n_services=1)

    def test_unsorted_rows_rejected(self, tmp_path):
        path = write_trace(tmp_path, ["1,0,0,1.0", "0,0,0,1.0"])
        with pytest.raises(TraceError, match="sorted"):
            load_trace(path, n_bs=1, n_services=1)

    def test_missing_cells_default_zero(self, tmp_path, caplog):
        path = write_trace(tmp_path, ["0,0,0,1.0", "1,1,2,0.25"])
        with caplog.at_level(logging.WARNING, logger="oranmec.workload"):
            demand = load_trace(path, n_bs=2, n_services=2)
        assert len(demand) == 2
        assert demand[1, 1, 2] == 0.25
        assert demand[0, 1, 2] == 0.0
        assert any("missing" in r.message for r in caplog.records)

    def test_bad_header_rejected(self, tmp_path):
        path = write_trace(tmp_path, ["0,0,0,1.0"], header="time,cell,svc,gbps")
        with pytest.raises(TraceError, match="header"):
            load_trace(path, n_bs=1, n_services=1)

    def test_the_shape_is_the_given_one(self, tmp_path):
        path = write_trace(tmp_path, ["0,0,0,1.0"])
        demand = load_trace(path, n_bs=3, n_services=2)
        assert demand.shape == (1, 3, 3)
        assert load_trace(write_trace(tmp_path, []), n_bs=3, n_services=2).shape == (0, 3, 3)

    @pytest.mark.parametrize("cell", ["0,2,0", "0,0,3", "-1,0,0", "0,-1,0", "0,0,-1"],
                             ids=["bs", "svc", "negative-t", "negative-bs", "negative-svc"])
    def test_cell_outside_the_shape_rejected(self, tmp_path, cell):
        path = write_trace(tmp_path, ["0,0,0,1.0", f"{cell},0.5"])
        t, k, c = cell.split(",")
        message = f"line 3: cell t={t}, bs={k}, svc={c} is outside t >= 0, bs 0..1, svc 0..2"
        with pytest.raises(TraceError, match=re.escape(message)):
            load_trace(path, n_bs=2, n_services=2)


class TestSynthDemands:
    def test_deterministic(self):
        a = synth_demands(3, SLOTS_PER_DAY, 2, 2, 4.0)
        b = synth_demands(3, SLOTS_PER_DAY, 2, 2, 4.0)
        assert np.array_equal(a, b)

    def test_zero_peak(self):
        demand = synth_demands(0, SLOTS_PER_DAY, 2, 2, 0.0)
        assert np.all(demand == 0.0)

    def test_bounds(self):
        demand = synth_demands(1, SLOTS_PER_DAY, 3, 2, 4.0)
        assert demand.shape == (SLOTS_PER_DAY, 3, 3)
        assert demand.min() >= 0.0
        assert demand.max() <= 4.0

    def test_rejects_partial_days(self):
        with pytest.raises(ValueError):
            synth_demands(0, 100, 1, 1, 4.0)

    def test_constant_demands_shape(self):
        demand = constant_demands(4, 2, 1.0, [0.5, 0.25])
        assert demand.shape == (4, 2, 3)
        assert demand[3, 1, 2] == 0.25


class TestDemandArrays:
    def test_every_source_is_read_only_float64(self, tmp_path):
        path = write_trace(tmp_path, ["0,0,0,1.0", "1,0,1,0.5"])
        for demand in (
            load_trace(path, n_bs=1, n_services=1),
            synth_demands(0, SLOTS_PER_DAY, 2, 2, 4.0),
            constant_demands(3, 2, 1.0, [0.5, 0.5]),
        ):
            assert demand.dtype == np.float64 and demand.ndim == 3
            assert not demand.flags.writeable
            with pytest.raises(ValueError):
                demand[0, 0, 0] = 9.0


class TestBbuUtilization:
    def test_integrated_stack_carries_everything(self):
        m = UtilizationModel(bbu_base=0.5, bbu_slope=1.5)
        assert m.bbu_utilization(get_split("S4"), 0.0) == (0.5, 0.0)

    def test_affine_split_by_shares(self):
        m = UtilizationModel(bbu_base=0.5, bbu_slope=1.5)
        du, cu = m.bbu_utilization(get_split("S1"), 2.0)
        assert du == pytest.approx(2.8, abs=1e-12)
        assert cu == pytest.approx(0.7, abs=1e-12)

    def test_noise_free_is_repeatable(self):
        # a noise-free env draws nothing: every noise seed, or none, prices alike
        env = make_cost_env()
        demands = constant_demands(4, 1, 1.5, (0.5, 0.5))
        rewards = []
        for seed in (None, 1, 2, 1):
            env.reset(demands, noise_seed=seed)
            rewards.append([env.step(env.initial_action)[1] for _ in range(4)])
        assert rewards[1:] == rewards[:-1]

    def test_monotone_in_demand_without_noise(self):
        m = UtilizationModel()
        split = get_split("S3")
        vals = [sum(m.bbu_utilization(split, lam)) for lam in np.linspace(0, 4, 9)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


class TestMecUtilization:
    def test_zero(self):
        m = UtilizationModel(mec_base=0.0, mec_slope=1.0)
        assert m.mec_utilization(1, 0.0) == 0.0

    def test_affine(self):
        m = UtilizationModel(mec_base=0.2, mec_slope=1.0)
        assert m.mec_utilization(2, 1.0) == pytest.approx(1.2, abs=1e-12)

    def test_negative_noise_clamped(self):
        m = UtilizationModel(mec_base=0.0, mec_slope=0.0)
        assert m.mec_utilization(1, 0.0, -0.5) == 0.0
        assert m.bbu_utilization(get_split("S1"), 0.0, -0.5) == (0.0, 0.0)
        # over an episode without demand, elastic class 2's delay is its
        # congestion (z_hat / 20) ** 2: exactly 0 only where the clamp fired
        env = make_cost_env(bbu_base=0.0, bbu_slope=0.0, mec_base=0.0, mec_slope=0.0)
        env.util.noise_std = 1.0
        env.reset(np.zeros((50, 1, 3)), noise_seed=9)
        delays = [env.step(env.initial_action)[2].elastic_delay for _ in range(50)]
        assert any(d == 0.0 for d in delays)
        assert any(d > 0.0 for d in delays)

    @pytest.mark.parametrize("name, value", [
        ("bbu_base", np.nan), ("bbu_slope", np.inf), ("bbu_base", -0.1),
        ("mec_base", (0.2, np.nan)), ("mec_slope", np.inf), ("noise_std", np.nan),
    ])
    def test_unusable_parameters_rejected(self, name, value):
        # a NaN base would price every draw as 0 through max(0.0, nan)
        with pytest.raises(ValueError, match=name):
            UtilizationModel(**{name: value})

    def test_per_class_parameters(self):
        m = UtilizationModel(mec_base=(0.1, 0.3), mec_slope=(1.0, 2.0), n_services=2)
        assert m.mec_utilization(1, 1.0) == pytest.approx(1.1, abs=1e-12)
        assert m.mec_utilization(2, 1.0) == pytest.approx(2.3, abs=1e-12)


class TestPlatforms:
    def test_platforms_differ_for_same_demand(self):
        a, b = (UtilizationModel(**PLATFORMS[p]) for p in "AB")
        split = get_split("S1")
        assert a.bbu_utilization(split, 2.0) != b.bbu_utilization(split, 2.0)
        assert a.mec_utilization(1, 1.0) != b.mec_utilization(1, 1.0)

    def test_platform_b_scaling(self):
        a, b = (UtilizationModel(**PLATFORMS[p]) for p in "AB")
        assert b.bbu_slope == pytest.approx(a.bbu_slope * 1.25)
        assert b.bbu_base == pytest.approx(a.bbu_base * 1.1)

    def test_seeded_noise_streams_are_independent(self):
        demands = constant_demands(5, 1, 1.0, (1.0, 1.0))

        def rewards(env, seed):
            env.reset(demands, noise_seed=seed)
            return [env.step(env.initial_action)[1] for _ in range(5)]

        env1, env2 = make_cost_env(), make_cost_env()
        env1.util.noise_std = env2.util.noise_std = 0.5
        seq = rewards(env1, 7)
        assert rewards(env2, 7) == seq
        assert rewards(env1, 8) != seq
        assert rewards(env1, 7) == seq      # each reset draws its episode afresh
