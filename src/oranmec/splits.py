"""3GPP functional-split catalogue for disaggregated base stations.

A base station is cut twice: the High Layer Split (HLS) decides which
protocol-stack functions run in the CU versus the DU, and the Low Layer
Split (LLS) decides the DU/RU boundary.  Each split option carries a
characteristic data load on the transport segment that crosses it and a
one-way delay budget for that segment.

Load figures assume a 100 MHz carrier with 256-QAM, 32 antenna ports and
8 MIMO layers, for which the achievable cell rate tops out at 4 Gbps.
Loads are in Gbps, deadlines in ms.  Option loads are affine in the cell
demand; the two low-layer options (O7/O8) carry a constant stream that
does not depend on demand.

Four composite splits are deployable per BS:

  S1  O2 (HLS) + O7 (LLS)
  S2  O4 (HLS) + O7 (LLS)
  S3  O6 (HLS) + O7 (LLS)
  S4  O8 only: the whole BBU runs integrated at the DU-side server
      (legacy C-RAN), the RU keeps just the RF.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

#: Achievable cell rate for the assumed radio configuration (Gbps).
DEMAND_CAP_GBPS = 4.0


@dataclass(frozen=True)
class SplitOption:
    """One 3GPP split point: load model and delay budget for its segment."""

    name: str
    load_slope: float     # Gbps carried per Gbps of demand
    load_offset: float    # constant Gbps component
    delay_req_ms: float

    def load(self, demand_gbps: float) -> float:
        return self.load_slope * demand_gbps + self.load_offset


#: The 3GPP options the composite splits use: O2/O4/O6 are the deployable
#: HLS choices, O7/O8 the deployable LLS choices.
OPTIONS: dict[str, SplitOption] = {
    "O2": SplitOption("O2", 1.0, 0.0, 10.0),
    "O4": SplitOption("O4", 1.0, 0.0, 1.0),
    "O6": SplitOption("O6", 1.02, 0.5, 0.25),
    "O7": SplitOption("O7", 0.0, 10.1, 0.25),
    "O8": SplitOption("O8", 0.0, 157.3, 0.25),
}

#: Share of total BBU computing effort per stack function, bottom (radio)
#: to top.  LP/HP = low/high PHY, LM/HM = low/high MAC, LR/HR = low/high
#: RLC, PD = PDCP; the residual 10% is the remaining upper stack (RRC and
#: above) so the shares total exactly 100%.
BBU_FUNCTION_SHARES: dict[str, float] = {
    "LP": 0.48,
    "HP": 0.17,
    "LM": 0.07,
    "HM": 0.07,
    "LR": 0.005,
    "HR": 0.005,
    "PD": 0.10,
    "RRC": 0.10,
}

#: Functions hosted DU-side (below the HLS point) per HLS option.
DU_FUNCTIONS_BY_HLS: dict[str, tuple[str, ...]] = {
    "O2": ("LP", "HP", "LM", "HM", "LR", "HR"),
    "O4": ("LP", "HP", "LM", "HM"),
    "O6": ("LP", "HP"),
}


@dataclass(frozen=True)
class CompositeSplit:
    """A deployable BS configuration: HLS + LLS pair (or integrated O8).

    ``du_compute_share``/``cu_compute_share`` give the fraction of the
    total BBU computing effort that lands on the DU-side and CU-side
    hosts.  They always sum to one; S4 runs everything DU-side.
    """

    id: str
    hls: SplitOption | None   # None for the integrated S4 stack
    lls: SplitOption
    du_compute_share: float
    cu_compute_share: float


SPLITS: dict[str, CompositeSplit] = {
    "S1": CompositeSplit("S1", OPTIONS["O2"], OPTIONS["O7"], 0.80, 0.20),
    "S2": CompositeSplit("S2", OPTIONS["O4"], OPTIONS["O7"], 0.79, 0.21),
    "S3": CompositeSplit("S3", OPTIONS["O6"], OPTIONS["O7"], 0.65, 0.35),
    "S4": CompositeSplit("S4", None, OPTIONS["O8"], 1.00, 0.00),
}


def get_split(split_id: str) -> CompositeSplit:
    try:
        return SPLITS[split_id]
    except KeyError:
        raise KeyError(f"unknown split {split_id!r}; expected one of {tuple(SPLITS)}") from None


def segment_loads(split: CompositeSplit, demand_gbps: float) -> tuple[float, float, float]:
    """Data flow (Gbps) on fronthaul, midhaul and backhaul for one BS.

    The LLS option sets the FH load, the HLS option the MH load, and the
    raw user demand always traverses the BH toward the core.  For the
    integrated S4 stack there is no HLS: the MH just forwards the user
    plane (demand) toward the CU site.  The demand is taken as given:
    ``OranMecEnv.ingest`` refuses a negative one and clips it to
    ``DEMAND_CAP_GBPS`` before any slot is priced.
    """
    fh = split.lls.load(demand_gbps)
    mh = split.hls.load(demand_gbps) if split.hls is not None else demand_gbps
    bh = demand_gbps
    return fh, mh, bh


def delay_requirements(split: CompositeSplit) -> tuple[float, float]:
    """(HLS deadline, LLS deadline) in ms; S4 has no HLS constraint."""
    hls_ms = split.hls.delay_req_ms if split.hls is not None else math.inf
    return hls_ms, split.lls.delay_req_ms

