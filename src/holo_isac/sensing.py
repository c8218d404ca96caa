"""Sensing-side metrics: echo SINR, detection probability, Fisher information,
and Cramer-Rao bounds for target angle estimation.

The Gaussian tail function Q and its inverse are implemented locally (erf
Maclaurin series below |x| = 2, Laplace continued fraction above) so the
detection chain has no dependencies beyond numpy; both are accurate to well
under 1e-10 absolute.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .channel import SensingTarget, echo_amplitude
from .geometry import ArrayGeometry, array_response, steering_derivative
from .rates import RsNomaSolution


# =====================================================================
# Echo SINR
# =====================================================================

def fast_sensing_sinrs(solution: RsNomaSolution, steering: np.ndarray,
                       echo_power: np.ndarray, sigma_s2: float) -> np.ndarray:
    """All target SINRs from precomputed steering vectors.

    steering is the (L, M) matrix of target array responses and echo_power[l]
    is rcs_l * amplitude_l^2. Since tr(H_l W) = c_l sum_i p_i |a_l^H w_i|^2,
    the L echo traces reduce to one (L, M) x (M, S) product, and no M x M
    matrix is formed. Each target's clutter sums the other targets' echoes
    directly, so a dominant echo never cancels against itself.
    """
    beams = solution.stacked_beams()
    powers = solution.stacked_powers()
    gains = np.abs(steering.conj() @ beams.T) ** 2  # (L, S)
    beam_sum = gains @ powers
    echoes = echo_power * beam_sum**2
    clutter = (1.0 - np.eye(len(echoes))) @ echoes
    return echoes / (clutter + sigma_s2)


def sensing_sinrs(solution: RsNomaSolution, targets, sigma_s2: float,
                  geom: ArrayGeometry) -> np.ndarray:
    """Echo SINR of every target under the current transmit covariance.

    Gamma_l = rcs_l |tr(H_l W)|^2 / (I_cs + sigma_s2) where the cross-target
    clutter I_cs sums rcs_l' |tr(H_l' W)|^2 over the other targets. Steering
    vectors and echo amplitudes are computed once per call and the traces go
    through the rank-one identity of fast_sensing_sinrs.
    """
    if sigma_s2 <= 0.0:
        raise ValueError(f"sensing noise power must be > 0, got {sigma_s2}")
    if not len(targets):
        return np.zeros(0)
    steering = np.vstack([array_response(geom, t.theta, t.phi, t.r)
                          for t in targets])
    echo_power = np.array([t.rcs * echo_amplitude(geom, t) ** 2 for t in targets])
    return fast_sensing_sinrs(solution, steering, echo_power, sigma_s2)


def sensing_sinr(l: int, solution: RsNomaSolution, targets,
                 sigma_s2: float, geom: ArrayGeometry) -> float:
    """Echo SINR of target l; one entry of sensing_sinrs."""
    if not 0 <= l < len(targets):
        raise ValueError(f"target index {l} out of range for {len(targets)} targets")
    return float(sensing_sinrs(solution, targets, sigma_s2, geom)[l])


# =====================================================================
# Gaussian tail function
# =====================================================================

def _erfc(x: float) -> float:
    """Complementary error function, |error| < 1e-13.

    Maclaurin series of erf for |x| <= 2; for larger arguments the Laplace
    continued fraction erfc(x) = exp(-x^2)/sqrt(pi) / (x + 1/2/(x + 1/(x +
    3/2/(x + ...)))) evaluated by backward recurrence.
    """
    ax = abs(x)
    if ax <= 2.0:
        # erf(x) = 2/sqrt(pi) * sum_n (-1)^n x^(2n+1) / (n! (2n+1))
        term = ax
        total = ax
        x2 = ax * ax
        for n in range(1, 200):
            term *= -x2 / n
            inc = term / (2 * n + 1)
            total += inc
            if abs(inc) < 1e-17 * abs(total) + 1e-300:
                break
        erf = 2.0 / np.sqrt(np.pi) * total
        val = 1.0 - erf
    else:
        cf = 0.0
        for k in range(60, 0, -1):
            cf = (k / 2.0) / (ax + cf)
        val = np.exp(-ax * ax) / np.sqrt(np.pi) / (ax + cf)
    return val if x >= 0.0 else 2.0 - val


def q_function(x):
    """Gaussian tail probability Q(x) = P(N(0,1) > x) = erfc(x / sqrt 2) / 2."""
    xs = np.asarray(x, dtype=float)
    flat = np.array([0.5 * _erfc(v / np.sqrt(2.0)) for v in np.atleast_1d(xs)])
    return float(flat[0]) if xs.ndim == 0 else flat.reshape(xs.shape)


@functools.lru_cache(maxsize=64)
def q_inverse(p: float) -> float:
    """Inverse Gaussian tail function: the x with Q(x) = p.

    Bisection on [-40, 40] against q_function (Q is strictly decreasing), so
    the round trip q_function(q_inverse(p)) matches to near machine accuracy.
    Cached: callers price many SINRs at one false-alarm rate.

    Raises:
        ValueError: if p is outside the open interval (0, 1).
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"tail probability must be in (0, 1), got {p}")
    lo, hi = -40.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if q_function(mid) > p:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-14 * max(1.0, abs(mid)):
            break
    return 0.5 * (lo + hi)


def detection_probability(gamma: float, p_fa: float) -> float:
    """Neyman-Pearson detection probability Q(Q^-1(p_fa) - sqrt(2 gamma)).

    Zero SINR collapses to the false-alarm floor exactly; the function is
    strictly increasing in gamma.
    """
    if gamma < 0.0:
        raise ValueError(f"sensing SINR must be >= 0, got {gamma}")
    if gamma == 0.0:
        if not 0.0 < p_fa < 1.0:
            raise ValueError(f"false-alarm rate must be in (0, 1), got {p_fa}")
        return p_fa
    return q_function(q_inverse(p_fa) - np.sqrt(2.0 * gamma))


# =====================================================================
# Fisher information and CRLB
# =====================================================================

def fisher_information(target: SensingTarget, solution: RsNomaSolution,
                       geom: ArrayGeometry, sigma_s2: float) -> float:
    """Single-parameter Fisher information for the target's polar angle.

    The noise-free echo is mu(theta) = sqrt(P_s rcs) a(theta, phi, r) (unit
    energy probing symbol), so J = (2 / sigma_s2) Re{(dmu)^H dmu}
    = (2 / sigma_s2) P_s rcs ||da/dtheta||^2, evaluated with the analytic
    steering derivative.
    """
    if sigma_s2 <= 0.0:
        raise ValueError(f"sensing noise power must be > 0, got {sigma_s2}")
    da = steering_derivative(geom, target.theta, target.phi, target.r, mode="analytic")
    dmu = np.sqrt(solution.p_sensing * target.rcs) * da
    return float(2.0 / sigma_s2 * np.real(dmu.conj() @ dmu))


def crlb_closed_form(target: SensingTarget, solution: RsNomaSolution,
                     geom: ArrayGeometry, sigma_s2: float) -> float:
    """Angle-estimation CRLB sigma_s2 / (2 P_s rcs ||da/dtheta||^2).

    Uses the finite-difference steering derivative (independent of the
    analytic route inside fisher_information, so the two cross-check each
    other). Zero sensing power or a degenerate derivative yields +inf.
    """
    da = steering_derivative(geom, target.theta, target.phi, target.r, mode="fd")
    dn2 = float(np.real(da.conj() @ da))
    if solution.p_sensing <= 0.0 or dn2 <= 1e-300:
        return np.inf
    return float(sigma_s2 / (2.0 * solution.p_sensing * target.rcs * dn2))


def crlb_sinr_form(target: SensingTarget, gamma: float, geom: ArrayGeometry,
                   sigma_s2: float) -> float:
    """Alternative CRLB written against the achieved echo SINR,
    sigma_s2 / (2 gamma ||da/dtheta||^2)."""
    da = steering_derivative(geom, target.theta, target.phi, target.r, mode="fd")
    dn2 = float(np.real(da.conj() @ da))
    if gamma <= 0.0 or dn2 <= 1e-300:
        return np.inf
    return float(sigma_s2 / (2.0 * gamma * dn2))


def crlb_lower_bound(target: SensingTarget, geom: ArrayGeometry,
                     sigma_s2: float, p_max: float) -> float:
    """Best-case CRLB with the whole budget on the probe:
    sigma_s2 / (2 P_max rcs ||da/dtheta||^2)."""
    if p_max <= 0.0:
        raise ValueError(f"power budget must be > 0, got {p_max}")
    da = steering_derivative(geom, target.theta, target.phi, target.r, mode="fd")
    dn2 = float(np.real(da.conj() @ da))
    if dn2 <= 1e-300:
        return np.inf
    return float(sigma_s2 / (2.0 * p_max * target.rcs * dn2))


@dataclass
class SensingEvaluation:
    """Per-target sensing metrics for one design point."""

    sinr: np.ndarray
    sinr_db: np.ndarray
    detection_prob: np.ndarray
    crlb: np.ndarray
    crlb_floor: np.ndarray

    @property
    def num_targets(self) -> int:
        return len(self.sinr)


def evaluate_sensing(solution: RsNomaSolution, targets, geom: ArrayGeometry,
                     sigma_s2: float, p_fa: float, p_max: float) -> SensingEvaluation:
    """Bundle SINR, detection probability, and CRLB for every target."""
    sinr = sensing_sinrs(solution, targets, sigma_s2, geom)
    with np.errstate(divide="ignore"):
        sinr_db = 10.0 * np.log10(sinr)
    pd = np.array([detection_probability(g, p_fa) for g in sinr])
    crlb = np.array([
        crlb_closed_form(t, solution, geom, sigma_s2) for t in targets
    ])
    floor = np.array([
        crlb_lower_bound(t, geom, sigma_s2, p_max) for t in targets
    ])
    return SensingEvaluation(sinr=sinr, sinr_db=sinr_db, detection_prob=pd,
                             crlb=crlb, crlb_floor=floor)

