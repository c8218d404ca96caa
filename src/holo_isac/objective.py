"""Composite design objective and the interference-free sum-rate ceiling
used as a runtime sanity rail.

The objective blends four normalized-weight components: sum rate, sensing
utility (log2(1 + SINR) per target), energy efficiency, and Jain fairness.
price_streams and price_split are the one kernel that prices a design point,
over rates.stream_rates and sensing.echo_sinrs and over any number of
stacked candidates; the optimizers add their QoS penalty to it, and
price_design prices one design point for the result rows.
composite_objective is a one-call view of price_design that the benchmark
tracer times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import ArrayGeometry
from .rates import (RsNomaSolution, StreamLayout, allocate, common_shares,
                    stream_gains, stream_rates)
from .sensing import SensingScene, echo_sinrs


@dataclass(frozen=True)
class ObjectiveWeights:
    """Finite nonnegative component weights, renormalized to sum to one."""

    alpha_rate: float = 0.25
    alpha_sensing: float = 0.25
    alpha_energy: float = 0.25
    alpha_fairness: float = 0.25

    def __post_init__(self):
        vals = self.as_array()
        if not np.all((vals >= 0.0) & (vals < np.inf)):
            raise ValueError(f"alpha* must be finite and >= 0, got {vals}")
        total = vals.sum()
        if total <= 0.0:
            raise ValueError(f"alpha* must have a positive sum, got {vals}")
        if abs(total - 1.0) > 1e-12:
            vals = vals / total
            object.__setattr__(self, "alpha_rate", float(vals[0]))
            object.__setattr__(self, "alpha_sensing", float(vals[1]))
            object.__setattr__(self, "alpha_energy", float(vals[2]))
            object.__setattr__(self, "alpha_fairness", float(vals[3]))

    def as_array(self) -> np.ndarray:
        return np.array([self.alpha_rate, self.alpha_sensing,
                         self.alpha_energy, self.alpha_fairness], dtype=float)


@dataclass(frozen=True)
class QosLimits:
    """Operating limits that the optimizers' QoS penalty holds a design
    to; crlb_max = inf disables the CRLB limit, and NaN passes no check."""

    p_max: float
    r_min: float = 0.0
    p_d_min: float = 0.0
    crlb_max: float = np.inf
    p_fa: float = 1e-3

    def __post_init__(self):
        for name, ok, rule in (
                ("p_max", 0.0 < self.p_max < np.inf, "finite and > 0"),
                ("r_min", 0.0 <= self.r_min < np.inf, "finite and >= 0"),
                ("p_d_min", 0.0 <= self.p_d_min < 1.0, "in [0, 1)"),
                ("crlb_max", self.crlb_max > 0.0, "> 0"),
                ("p_fa", 0.0 < self.p_fa < 1.0, "in (0, 1)")):
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)}")


@dataclass
class ObjectiveComponents:
    """Raw component values behind one composite-objective evaluation."""

    sum_rate: float
    sensing_utility: float
    energy_efficiency: float
    fairness: float

    def as_array(self) -> np.ndarray:
        return np.array([self.sum_rate, self.sensing_utility,
                         self.energy_efficiency, self.fairness])


def _rowdot(a: np.ndarray, b: np.ndarray):
    """a @ b over the last axis, for every leading index of a.

    Each row is one BLAS dot, the call a 1-D a @ b makes, so a row gives the
    same bits whether or not it sits in a stack; two vectors take that call
    directly."""
    if a.ndim == 1 and b.ndim == 1:
        return a @ b
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _pow2(x):
    """x ** 2 of a float64 scalar, or of each entry of an array.

    A float64 scalar squares through libm pow, which can round differently
    from the x * x that array ** 2 takes, so stacked entries take the scalar
    route too and match a lone candidate's value."""
    if np.ndim(x) == 0:
        return x ** 2
    return np.array([v ** 2 for v in x])


# =====================================================================
# Pricing kernel
# =====================================================================

def price_streams(g2: np.ndarray, m2: np.ndarray, p: np.ndarray,
                  layout: StreamLayout, scene: SensingScene,
                  sigma_n2: float, sigma_s2: float) -> dict:
    """Everything that depends on the beams and powers alone.

    g2 and m2 are the user and target gains of every stream
    (|h_k^H w_s|^2, |a_l^H w_s|^2) and p the stream powers; any leading axes
    index candidates. Holds the stream signals, denominators, SINRs and
    rates (rates.stream_rates), the echo SINRs (sensing.echo_sinrs) and the
    sensing utility sum_l log2(1 + Gamma_l)."""
    out = stream_rates(g2, p, layout, sigma_n2)
    beam_sum, d_l, gam_l = echo_sinrs(m2, p, scene, sigma_s2)
    out.update(beam_sum=beam_sum, d_l=d_l, gam_l=gam_l,
               util=np.log2(1.0 + gam_l).sum(axis=-1))
    return out


class SplitPrice(NamedTuple):
    """The entries of a design point that depend on the common split."""

    alloc: np.ndarray
    total_rate: np.ndarray
    rate_sum: np.ndarray
    ee: np.ndarray
    fair: np.ndarray
    value: np.ndarray


def price_split(cap: np.ndarray, p_rate: np.ndarray, util, shares: np.ndarray,
                power: float, aw: np.ndarray) -> SplitPrice:
    """The common split and the weighted blend over a priced stream part.

    cap is each user's group common capacity (the stream part's group_c
    taken at the user's group), p_rate and util the private rates and the
    sensing utility of price_streams, shares the per-user shares of the
    group common capacity, power the transmit power that energy efficiency
    divides by and aw the component weights. Holds the allocation, per-user
    total rates, sum rate, energy efficiency, Jain fairness and the blend
    aw . (sum rate, utility, EE, fairness), each over the leading candidate
    axes of the stream part. A caller that moves only the shares takes cap,
    p_rate and util once."""
    alloc, total_rate = allocate(cap, p_rate, shares)
    rate_sum = total_rate.sum(axis=-1)
    ee = rate_sum / power if power > 0.0 else 0.0 * rate_sum
    # rates are >= 0, so a zero sum of squares means all are zero; the
    # smallest subnormal floor then turns 0 / 0 into a fairness of 0 and
    # leaves every positive sum of squares as it is
    sq = np.maximum(_rowdot(total_rate, total_rate), 5e-324)
    fair = _pow2(rate_sum) / (total_rate.shape[-1] * sq)
    comps = np.array([rate_sum, util, ee, fair]).T
    return SplitPrice(alloc, total_rate, rate_sum, ee, fair,
                      _rowdot(np.ascontiguousarray(comps), aw))


@dataclass
class DesignPrice:
    """One design point priced by the kernel (no QoS penalty)."""

    value: float
    components: ObjectiveComponents
    total_rate: np.ndarray
    echo_sinr: np.ndarray


def price_design(solution: RsNomaSolution, channels: np.ndarray,
                 scene: SensingScene, weights: ObjectiveWeights,
                 sigma_n2: float, sigma_s2: float) -> DesignPrice:
    """Composite objective, its components, the user rates and the echo
    SINRs of one design point; energy efficiency divides by
    solution.total_power()."""
    if sigma_s2 <= 0.0:
        raise ValueError(f"sensing noise power must be > 0, got {sigma_s2}")
    aw = weights.as_array()
    power = solution.total_power()
    layout = StreamLayout(solution.grouping)
    g2, m2 = stream_gains(solution, channels, scene.steer)
    streams = price_streams(g2, m2, solution.stacked_powers(), layout, scene,
                            sigma_n2, sigma_s2)
    split = price_split(streams["group_c"][layout.assign], streams["p_rate"],
                        streams["util"],
                        common_shares(solution.rho, layout.members), power, aw)
    comps = ObjectiveComponents(float(split.rate_sum), float(streams["util"]),
                                float(split.ee), float(split.fair))
    return DesignPrice(value=float(split.value), components=comps,
                       total_rate=split.total_rate,
                       echo_sinr=streams["gam_l"])


def composite_objective(solution: RsNomaSolution, channels: np.ndarray, targets,
                        geom: ArrayGeometry, weights: ObjectiveWeights,
                        sigma_n2: float, sigma_s2: float):
    """(value, ObjectiveComponents) of price_design on the scene of targets."""
    price = price_design(solution, channels, SensingScene(targets, geom),
                         weights, sigma_n2, sigma_s2)
    return price.value, price.components


# =====================================================================
# Closed-form rails
# =====================================================================

def sum_rate_upper_bound(channels: np.ndarray, p_max: float, sigma_n2: float) -> float:
    """Interference-free sum-rate ceiling.

    min of (i) every user alone with the full budget,
    sum_k log2(1 + P_max ||h_k||^2 / sigma_n2), and (ii) the spatial-DoF cap
    M log2(1 + P_max lambda_max(H^H H) / (K sigma_n2)).
    """
    channels = np.asarray(channels)
    if p_max <= 0.0 or sigma_n2 <= 0.0:
        raise ValueError("p_max and sigma_n2 must be > 0")
    k_total, m_total = channels.shape
    norms2 = np.sum(np.abs(channels) ** 2, axis=1)
    bound_solo = float(np.sum(np.log2(1.0 + p_max * norms2 / sigma_n2)))
    gram = channels.conj() @ channels.T  # (K, K), same nonzero spectrum as H^H H
    lam_max = float(np.linalg.eigvalsh(gram)[-1].real)
    bound_dof = float(m_total * np.log2(1.0 + p_max * lam_max / (k_total * sigma_n2)))
    return min(bound_solo, bound_dof)
