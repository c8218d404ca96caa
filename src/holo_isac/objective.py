"""Composite design objective, QoS constraint audit, and the closed-form
performance bounds used as runtime sanity rails.

The objective blends four normalized-weight components: sum rate, sensing
utility (log2(1 + SINR) per target), energy efficiency, and Jain fairness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import ArrayGeometry
from .rates import RsNomaSolution, rate_breakdown
from .sensing import crlb_closed_form, detection_probability, sensing_sinrs


@dataclass(frozen=True)
class ObjectiveWeights:
    """Nonnegative component weights, renormalized to sum to one."""

    alpha_rate: float = 0.25
    alpha_sensing: float = 0.25
    alpha_energy: float = 0.25
    alpha_fairness: float = 0.25

    def __post_init__(self):
        vals = self.as_array()
        if np.any(vals < 0.0):
            raise ValueError(f"weights must be >= 0, got {vals}")
        total = vals.sum()
        if total <= 0.0:
            raise ValueError("at least one weight must be positive")
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
    """Operating limits audited by check_constraints."""

    p_max: float
    r_min: float = 0.0
    p_d_min: float = 0.0
    crlb_max: float = np.inf
    p_fa: float = 1e-3

    def __post_init__(self):
        if self.p_max <= 0.0:
            raise ValueError(f"power budget must be > 0, got {self.p_max}")
        if not 0.0 < self.p_fa < 1.0:
            raise ValueError(f"false-alarm rate must be in (0, 1), got {self.p_fa}")


def sensing_utility(gamma: float) -> float:
    """Concave sensing reward log2(1 + gamma)."""
    if gamma < 0.0:
        raise ValueError(f"sensing SINR must be >= 0, got {gamma}")
    return float(np.log2(1.0 + gamma))


def energy_efficiency(total_rate: float, total_power: float) -> float:
    """Rate per unit transmit power (bit/s/Hz per watt)."""
    if total_power <= 0.0:
        if total_rate == 0.0:
            return 0.0
        raise ValueError("nonzero rate with zero transmit power")
    return float(total_rate / total_power)


def jain_fairness(user_rates) -> float:
    """Jain index (sum r)^2 / (K sum r^2); 1 when rates are equal, 1/K when
    one user takes everything."""
    r = np.asarray(user_rates, dtype=float)
    if r.size == 0:
        raise ValueError("fairness of an empty rate vector is undefined")
    if np.any(r < 0.0):
        raise ValueError(f"rates must be >= 0, got {r}")
    denom = r.size * float(r @ r)
    if denom == 0.0:
        raise ValueError("fairness of an all-zero rate vector is undefined")
    return float(r.sum() ** 2 / denom)


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


def composite_objective(solution: RsNomaSolution, channels: np.ndarray, targets,
                        geom: ArrayGeometry, weights: ObjectiveWeights,
                        sigma_n2: float, sigma_s2: float,
                        component_scales=None):
    """Weighted blend of rate, sensing, efficiency, and fairness.

    The value is linear in the weights for fixed component values. With
    component_scales (length-4 positive array) each raw component is divided
    by its scale first, which keeps weight sweeps comparable across regimes
    while preserving that linearity. An all-zero rate vector contributes
    fairness 0 rather than raising (the strict jain_fairness is for callers
    who want the error).

    Returns:
        (value, ObjectiveComponents) pair; the components are the raw
        (unscaled) values.
    """
    bd = rate_breakdown(solution, channels, sigma_n2)
    util = sum(sensing_utility(g)
               for g in sensing_sinrs(solution, targets, sigma_s2, geom))
    power = solution.total_power()
    ee = energy_efficiency(bd.sum_rate, power) if power > 0.0 else 0.0
    fair = jain_fairness(bd.total_rate) if np.any(bd.total_rate > 0.0) else 0.0
    comps = ObjectiveComponents(bd.sum_rate, float(util), ee, fair)
    vec = comps.as_array()
    if component_scales is not None:
        scales = np.asarray(component_scales, dtype=float)
        if scales.shape != (4,) or np.any(scales <= 0.0):
            raise ValueError(f"component scales must be 4 positive values, got {scales}")
        vec = vec / scales
    value = float(weights.as_array() @ vec)
    return value, comps


@dataclass
class ConstraintReport:
    """Signed slacks for every operating constraint (negative = violated)."""

    power_margin: float
    rate_slack: np.ndarray
    detection_slack: np.ndarray
    crlb_slack: np.ndarray
    rho_in_bounds: bool
    norm_residual: float
    feasible: bool


_FEAS_TOL = 1e-9


def check_constraints(solution: RsNomaSolution, channels: np.ndarray, targets,
                      geom: ArrayGeometry, limits: QosLimits,
                      sigma_n2: float, sigma_s2: float) -> ConstraintReport:
    """Audit power budget, per-user QoS, sensing QoS, rho bounds, beam norms.

    A solution is feasible iff every slack clears -1e-9, rho stays in [0, 1]
    to the same tolerance, and all beamformer norms sit within 1e-9 of one.
    """
    bd = rate_breakdown(solution, channels, sigma_n2)
    power_margin = float(limits.p_max - solution.total_power())
    rate_slack = bd.total_rate - limits.r_min

    sinrs = sensing_sinrs(solution, targets, sigma_s2, geom)
    det_slack = np.array([
        detection_probability(g, limits.p_fa) - limits.p_d_min for g in sinrs
    ])
    crlbs = np.array([crlb_closed_form(t, solution, geom, sigma_s2) for t in targets])
    with np.errstate(invalid="ignore"):
        crlb_slack = limits.crlb_max - crlbs
    crlb_slack = np.where(np.isnan(crlb_slack), 0.0, crlb_slack)  # inf - inf

    rho_ok = bool(np.all(solution.rho >= -_FEAS_TOL)
                  and np.all(solution.rho <= 1.0 + _FEAS_TOL))
    beams = solution.stacked_beams()
    norm_residual = float(np.max(np.abs(np.linalg.norm(beams, axis=1) - 1.0)))

    feasible = (
        power_margin >= -_FEAS_TOL
        and bool(np.all(rate_slack >= -_FEAS_TOL))
        and bool(np.all(det_slack >= -_FEAS_TOL))
        and bool(np.all(crlb_slack >= -_FEAS_TOL))
        and rho_ok
        and norm_residual <= _FEAS_TOL
    )
    return ConstraintReport(
        power_margin=power_margin,
        rate_slack=rate_slack,
        detection_slack=det_slack,
        crlb_slack=crlb_slack,
        rho_in_bounds=rho_ok,
        norm_residual=norm_residual,
        feasible=feasible,
    )


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


def critical_correlation(num_users: int) -> float:
    """Correlation threshold 1 - 1/sqrt(K) above which a shared common stream
    is provably worth carrying."""
    if num_users < 1:
        raise ValueError(f"need at least one user, got {num_users}")
    return 1.0 - 1.0 / np.sqrt(num_users)


def rs_gain_lower_bound(rho_c: float, p_common: float, mean_channel: np.ndarray,
                        sigma_n2: float) -> float:
    """Guaranteed rate gain of the split design in the correlated regime:
    log2(1 + rho_c^2 P_c ||h_bar||^2 / ((1 - rho_c^2) sigma_n2))."""
    if not 0.0 <= rho_c < 1.0:
        raise ValueError(f"correlation must be in [0, 1), got {rho_c}")
    if p_common < 0.0:
        raise ValueError(f"common power must be >= 0, got {p_common}")
    h_bar2 = float(np.real(np.vdot(mean_channel, mean_channel)))
    return float(np.log2(1.0 + rho_c**2 * p_common * h_bar2
                         / ((1.0 - rho_c**2) * sigma_n2)))
