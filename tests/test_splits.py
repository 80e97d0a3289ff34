import math

import hypothesis.strategies as st
import pytest
from hypothesis import given

from oranmec.splits import (
    BBU_FUNCTION_SHARES,
    DU_FUNCTIONS_BY_HLS,
    OPTIONS,
    SPLITS,
    delay_requirements,
    get_split,
    segment_loads,
)

ALL_SPLITS = list(SPLITS.values())


class TestOptionTable:
    def test_constant_low_layer_loads(self):
        assert OPTIONS["O7"].load(0.0) == 10.1
        assert OPTIONS["O7"].load(4.0) == 10.1
        assert OPTIONS["O8"].load(2.0) == 157.3

    def test_o6_affine_load(self):
        assert OPTIONS["O6"].load(4.0) == pytest.approx(1.02 * 4 + 0.5, abs=1e-12)
        assert OPTIONS["O6"].load(0.0) == 0.5

    def test_demand_proportional_options(self):
        for name in ("O2", "O4"):
            assert OPTIONS[name].load(2.5) == 2.5

    def test_deadlines(self):
        assert OPTIONS["O2"].delay_req_ms == 10.0
        assert OPTIONS["O4"].delay_req_ms == 1.0
        assert [OPTIONS[o].delay_req_ms for o in ("O6", "O7", "O8")] == [0.25] * 3


class TestSegmentLoads:
    def test_s1_at_two_gbps(self):
        fh, mh, bh = segment_loads(get_split("S1"), 2.0)
        assert (fh, mh, bh) == (10.1, 2.0, 2.0)

    def test_s3_midhaul_at_cap(self):
        _, mh, _ = segment_loads(get_split("S3"), 4.0)
        assert mh == pytest.approx(4.58, abs=1e-12)

    def test_s4_fronthaul_constant(self):
        fh, mh, bh = segment_loads(get_split("S4"), 1.0)
        assert fh == 157.3
        assert (mh, bh) == (1.0, 1.0)


class TestDelayRequirements:
    @pytest.mark.parametrize(
        "split_id,expected",
        [
            ("S1", (10.0, 0.25)),
            ("S2", (1.0, 0.25)),
            ("S3", (0.25, 0.25)),
            ("S4", (math.inf, 0.25)),
        ],
    )
    def test_per_split(self, split_id, expected):
        assert delay_requirements(get_split(split_id)) == expected


class TestComputeShares:
    @pytest.mark.parametrize(
        "split_id,expected",
        [
            ("S1", (0.80, 0.20)),
            ("S2", (0.79, 0.21)),
            ("S3", (0.65, 0.35)),
            ("S4", (1.00, 0.00)),
        ],
    )
    def test_values(self, split_id, expected):
        split = get_split(split_id)
        assert (split.du_compute_share, split.cu_compute_share) == expected

    def test_shares_sum_to_one_exactly(self):
        for split in ALL_SPLITS:
            assert split.du_compute_share + split.cu_compute_share == 1.0

    def test_shares_match_function_table(self):
        # DU share = sum of per-function shares below the HLS point
        for split_id, hls in (("S1", "O2"), ("S2", "O4"), ("S3", "O6")):
            du = get_split(split_id).du_compute_share
            derived = sum(BBU_FUNCTION_SHARES[f] for f in DU_FUNCTIONS_BY_HLS[hls])
            assert du == pytest.approx(derived, abs=1e-12)

    def test_centralization_ordering(self):
        cu = [get_split(s).cu_compute_share for s in ("S1", "S2", "S3")]
        assert cu[0] <= cu[1] <= cu[2]


class TestLoadProperties:
    @given(
        demand=st.floats(min_value=0.0, max_value=4.0),
        split_id=st.sampled_from(tuple(SPLITS)),
    )
    def test_loads_nonnegative(self, demand, split_id):
        loads = segment_loads(get_split(split_id), demand)
        assert all(v >= 0 for v in loads)

    @given(
        lo=st.floats(min_value=0.0, max_value=4.0),
        hi=st.floats(min_value=0.0, max_value=4.0),
        split_id=st.sampled_from(tuple(SPLITS)),
    )
    def test_loads_monotone_in_demand(self, lo, hi, split_id):
        if lo > hi:
            lo, hi = hi, lo
        low = segment_loads(get_split(split_id), lo)
        high = segment_loads(get_split(split_id), hi)
        assert all(a <= b for a, b in zip(low, high))

    @given(demand=st.floats(min_value=0.0, max_value=4.0))
    def test_legacy_fronthaul_dominates(self, demand):
        fh_s4 = segment_loads(get_split("S4"), demand)[0]
        for s in ("S1", "S2", "S3"):
            assert fh_s4 > segment_loads(get_split(s), demand)[0]

    def test_unknown_split_id(self):
        with pytest.raises(KeyError):
            get_split("S9")
