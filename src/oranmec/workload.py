"""Per-slot traffic demands and the demand-to-compute utilization model.

Demands come from a trace file (csv: ``t,bs,svc,demand_gbps``), a
synthetic diurnal generator or a constant rate.  Every source returns one
read-only float64 array of shape ``(slots, n_bs, 1 + C)``: ``[t, k, 0]`` is
BS k's legacy mobile broadband demand in slot t and ``[t, k, c]`` its MEC
class-c demand (Gbps), c = 1..C.

The utilization model maps a demand to the compute (reference cores) the
hosting platform actually burns serving it.  The real relation is platform
dependent and noisy; here an affine model plus a noise term the caller
passes stands behind a small interface so a measurement-trained predictor
can be plugged in later.  The model draws nothing: ``OranMecEnv.reset``
draws an episode's noise once, from its ``noise_std``.  ``PLATFORMS`` holds
two stock parameter sets, "A" and "B", that emulate two different platforms
for transfer experiments; ``utilization.params`` override one key by key.
"""
from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass

import numpy as np

from .splits import CompositeSplit

logger = logging.getLogger("oranmec.workload")

SLOTS_PER_DAY = 144

# Stock ``UtilizationModel`` fields per platform, over its defaults (A).  B has
# A's floors times 1.1 and slopes times 1.25, written as those very products.
PLATFORMS = {
    "A": {},
    "B": {"bbu_base": 0.5 * 1.1, "bbu_slope": 1.5 * 1.25,
          "mec_base": 0.2 * 1.1, "mec_slope": 1.0 * 1.25},
}

TRACE_HEADER = ("t", "bs", "svc", "demand_gbps")


class TraceError(ValueError):
    """Malformed or invalid demand trace."""


def load_trace(path, n_bs: int, n_services: int) -> np.ndarray:
    """Read a demand trace into a ``(slots, n_bs, 1 + n_services)`` array;
    slots run from 0 to the largest ``t`` and missing cells are 0.

    Rows must be sorted by slot, no cell may appear twice, and every cell
    must lie inside that shape.
    """
    rows: list[tuple[int, int, int, float]] = []
    seen: dict[tuple[int, int, int], int] = {}      # cell -> the line that set it
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for lineno, raw in enumerate(reader, start=1):
            if not raw or (len(raw) == 1 and not raw[0].strip()):
                continue
            if lineno == 1:
                if tuple(s.strip() for s in raw) != TRACE_HEADER:
                    raise TraceError(
                        f"{path}: line 1: expected header {','.join(TRACE_HEADER)}"
                    )
                continue
            try:
                t, k, c = int(raw[0]), int(raw[1]), int(raw[2])
                demand = float(raw[3])
            except (ValueError, IndexError) as exc:
                raise TraceError(f"{path}: line {lineno}: {exc}") from exc
            if not math.isfinite(demand):
                raise TraceError(f"{path}: line {lineno}: demand_gbps {demand} is not finite")
            if demand < 0:
                raise TraceError(f"{path}: line {lineno}: negative demand {demand}")
            if t < 0 or not (0 <= k < n_bs and 0 <= c <= n_services):
                raise TraceError(
                    f"{path}: line {lineno}: cell t={t}, bs={k}, svc={c} is outside "
                    f"t >= 0, bs 0..{n_bs - 1}, svc 0..{n_services}"
                )
            if rows and t < rows[-1][0]:
                raise TraceError(f"{path}: line {lineno}: rows not sorted by t")
            first = seen.setdefault((t, k, c), lineno)
            if first != lineno:
                raise TraceError(
                    f"{path}: line {lineno}: cell t={t}, bs={k}, svc={c} repeats line {first}"
                )
            rows.append((t, k, c, demand))

    horizon = rows[-1][0] + 1 if rows else 0
    demand = np.zeros((horizon, n_bs, 1 + n_services))
    for t, k, c, d in rows:
        demand[t, k, c] = d
    n_missing = demand.size - len(rows)     # each row sets its own cell
    if n_missing:
        logger.warning("%s: %d missing (t,bs,svc) cells defaulted to 0", path, n_missing)
    return _read_only(demand)


def synth_demands(
    seed: int,
    horizon: int,
    n_bs: int,
    n_services: int,
    peak_gbps: float,
    noise_frac: float = 0.05,
) -> np.ndarray:
    """Synthetic diurnal demands: one sinusoidal day-cycle per (BS, service)
    with a per-BS phase offset plus seeded noise, clipped to [0, peak]."""
    if horizon % SLOTS_PER_DAY != 0:
        raise ValueError(f"horizon {horizon} must be a multiple of {SLOTS_PER_DAY}")
    rng = np.random.default_rng(seed)
    phase = rng.uniform(0.0, 1.0, size=n_bs)
    amp = rng.uniform(0.4, 1.0, size=(n_bs, 1 + n_services)) * peak_gbps / 2.0
    t = np.arange(horizon)[:, None, None]
    wave = 1.0 + np.sin(2.0 * math.pi * (t / SLOTS_PER_DAY + phase[None, :, None]))
    demand = amp[None, :, :] * wave
    demand += rng.normal(0.0, noise_frac * peak_gbps, size=demand.shape)
    return _read_only(np.clip(demand, 0.0, peak_gbps))


def constant_demands(horizon: int, n_bs: int, legacy_gbps: float, mec_gbps) -> np.ndarray:
    """Stationary demands (toy environments and oracles): the same row for
    every slot and BS."""
    row = np.array([legacy_gbps, *mec_gbps], dtype=float)
    return np.broadcast_to(row, (horizon, n_bs, row.size))


def _read_only(demand: np.ndarray) -> np.ndarray:
    demand.setflags(write=False)
    return demand


def _per_class(value, n_services: int, name: str) -> tuple[float, ...]:
    if np.isscalar(value):
        return (float(value),) * n_services
    out = tuple(float(v) for v in value)
    if len(out) != n_services:
        raise ValueError(f"{name} needs {n_services} entries, got {len(out)}")
    return out


@dataclass
class UtilizationModel:
    """Affine demand-to-reference-cores map plus a given noise term.

    The BBU total is split between the DU and CU hosts according to the
    active composite split; each MEC class has its own affine parameters.
    Outputs are clamped at zero.  Demands and class indices are taken as
    given: ``OranMecEnv`` refuses a model whose class count differs from its
    layout, and its ``ingest`` refuses negative and NaN demands.
    ``noise_std`` is the standard deviation of the Gaussian noise that
    ``OranMecEnv.reset`` draws per episode; the model holds no random state.
    """

    bbu_base: float = 0.5
    bbu_slope: float = 1.5
    mec_base: tuple[float, ...] | float = 0.2
    mec_slope: tuple[float, ...] | float = 1.0
    noise_std: float = 0.0
    n_services: int = 2

    def __post_init__(self):
        self.mec_base = _per_class(self.mec_base, self.n_services, "mec_base")
        self.mec_slope = _per_class(self.mec_slope, self.n_services, "mec_slope")
        for name in ("bbu_base", "bbu_slope", "mec_base", "mec_slope", "noise_std"):
            value = getattr(self, name)
            values = value if isinstance(value, tuple) else (value,)
            if not all(0.0 <= v < math.inf for v in values):     # NaN fails too
                raise ValueError(f"{name} must be nonnegative and finite, got {value}")

    def bbu_utilization(
        self, split: CompositeSplit, legacy_gbps: float, noise: float = 0.0
    ) -> tuple[float, float]:
        """Actual (DU, CU) reference-core draw for one BS's BBU, ``noise``
        added to the total."""
        total = max(0.0, self.bbu_base + self.bbu_slope * legacy_gbps + noise)
        return split.du_compute_share * total, split.cu_compute_share * total

    def mec_utilization(self, c: int, demand_gbps: float, noise: float = 0.0) -> float:
        """Actual reference-core draw for MEC class ``c`` (1-based), ``noise``
        added."""
        base = self.mec_base[c - 1]
        slope = self.mec_slope[c - 1]
        return max(0.0, base + slope * demand_gbps + noise)
