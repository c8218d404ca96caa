"""Sensing-side metrics: echo SINR, detection probability, Fisher information,
and Cramer-Rao bounds for target angle estimation.

echo_sinrs over a SensingScene (one instance's target tables) is the echo
half of the one pricing kernel (objective.price_streams / price_split);
the optimizers and the result rows price echoes there, and
SensingScene.evaluation bundles a row's echo SINRs with their detection
probabilities and CRLBs. sensing_sinr and evaluate_sensing are one-call
views of the scene that the benchmark tracer times.

The Gaussian tail function Q is the standard library's math.erfc, and its
inverse a bisection on Q, so the detection chain needs nothing beyond numpy
and the standard library.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channel import SensingTarget, echo_amplitude, target_responses
from .geometry import ArrayGeometry, steering_derivative
from .rates import RsNomaSolution, stream_gains


# =====================================================================
# Echo SINR
# =====================================================================

class SensingScene:
    """Per-instance target tables: steering vectors, echo powers and the
    clutter pattern, plus the CRLB derivative norms on first use."""

    def __init__(self, targets, geom: ArrayGeometry):
        self.targets = list(targets)
        self.geom = geom
        self.num_targets = len(self.targets)
        self.steer = target_responses(geom, self.targets)
        self.steer_c = self.steer.conj()
        self.rcs = np.array([t.rcs for t in self.targets])
        amp = np.array([echo_amplitude(geom, t) for t in self.targets])
        self.echo_power = self.rcs * amp**2
        # clutter of target l: the other targets' echoes, summed directly
        self.other_targets = 1.0 - np.eye(self.num_targets)

    @functools.cached_property
    def dn2(self) -> np.ndarray:
        """||da/dtheta||^2 of every target (finite-difference derivative)."""
        return np.array([_derivative_norm2(self.geom, t) for t in self.targets])

    def sinrs(self, solution: RsNomaSolution, sigma_s2: float) -> np.ndarray:
        """Echo SINR of every target under the solution's covariance."""
        if sigma_s2 <= 0.0:
            raise ValueError(f"sensing noise power must be > 0, got {sigma_s2}")
        m2, = stream_gains(solution, self.steer)
        return echo_sinrs(m2, solution.stacked_powers(), self, sigma_s2)[2]

    def crlb(self, power: float, sigma_s2: float) -> np.ndarray:
        """Angle CRLB of every target with `power` on the probe; see
        crlb_closed_form."""
        return np.array([_crlb(sigma_s2, power, rcs, dn2)
                         for rcs, dn2 in zip(self.rcs, self.dn2)])

    def evaluation(self, sinr: np.ndarray, p_sensing: float, sigma_s2: float,
                   p_fa: float, p_max: float) -> "SensingEvaluation":
        """Detection probabilities and CRLBs bundled with given echo SINRs."""
        if p_max <= 0.0:
            raise ValueError(f"power budget must be > 0, got {p_max}")
        with np.errstate(divide="ignore"):
            sinr_db = 10.0 * np.log10(sinr)
        pd = np.array([detection_probability(g, p_fa) for g in sinr])
        return SensingEvaluation(sinr=sinr, sinr_db=sinr_db, detection_prob=pd,
                                 crlb=self.crlb(p_sensing, sigma_s2),
                                 crlb_floor=self.crlb(p_max, sigma_s2))


def echo_sinrs(m2: np.ndarray, p: np.ndarray, scene: SensingScene,
               sigma_s2: float):
    """Echo SINR of every target from the beam gains
    m2[..., l, s] = |a_l^H w_s|^2 and the stream powers p; any leading axes
    index candidates.

    Gamma_l = rcs_l |tr(H_l W)|^2 / (I_cs + sigma_s2), where the clutter I_cs
    sums the other targets' echoes. Since tr(H_l W) = c_l sum_s p_s
    |a_l^H w_s|^2, no M x M matrix is formed. Each clutter sums the other
    echoes directly, so a dominant echo never cancels against itself.

    Returns:
        (beam_sum, d_l, gam_l): sum_s p_s |a_l^H w_s|^2, clutter plus noise,
        and the echo SINR of each target.
    """
    beam_sum = m2 @ p
    echoes = scene.echo_power * beam_sum**2
    d_l = (scene.other_targets @ echoes[..., None])[..., 0] + sigma_s2
    return beam_sum, d_l, echoes / d_l


def sensing_sinr(l: int, solution: RsNomaSolution, targets,
                 sigma_s2: float, geom: ArrayGeometry) -> float:
    """Echo SINR of target l: one entry of SensingScene.sinrs."""
    if not 0 <= l < len(targets):
        raise ValueError(f"target index {l} out of range for {len(targets)} targets")
    return float(SensingScene(targets, geom).sinrs(solution, sigma_s2)[l])


# =====================================================================
# Gaussian tail function
# =====================================================================

def q_function(x):
    """Gaussian tail probability Q(x) = P(N(0,1) > x) = erfc(x / sqrt 2) / 2."""
    xs = np.asarray(x, dtype=float)
    flat = np.array([0.5 * math.erfc(v / np.sqrt(2.0)) for v in xs.ravel()])
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


def _derivative_norm2(geom: ArrayGeometry, target: SensingTarget) -> float:
    """||da/dtheta||^2 from the finite-difference steering derivative."""
    da = steering_derivative(geom, target.theta, target.phi, target.r, mode="fd")
    return float(np.real(da.conj() @ da))


def _crlb(sigma_s2: float, power: float, rcs: float, dn2: float) -> float:
    """sigma_s2 / (2 power rcs dn2); +inf for zero power or a degenerate
    derivative."""
    if power <= 0.0 or dn2 <= 1e-300:
        return np.inf
    return float(sigma_s2 / (2.0 * power * rcs * dn2))


def crlb_closed_form(target: SensingTarget, solution: RsNomaSolution,
                     geom: ArrayGeometry, sigma_s2: float) -> float:
    """Angle-estimation CRLB sigma_s2 / (2 P_s rcs ||da/dtheta||^2).

    Uses the finite-difference steering derivative (independent of the
    analytic route inside fisher_information, so the two cross-check each
    other). Zero sensing power or a degenerate derivative yields +inf.
    """
    return _crlb(sigma_s2, solution.p_sensing, target.rcs,
                 _derivative_norm2(geom, target))


def crlb_lower_bound(target: SensingTarget, geom: ArrayGeometry,
                     sigma_s2: float, p_max: float) -> float:
    """Best-case CRLB with the whole budget on the probe:
    sigma_s2 / (2 P_max rcs ||da/dtheta||^2)."""
    if p_max <= 0.0:
        raise ValueError(f"power budget must be > 0, got {p_max}")
    return _crlb(sigma_s2, p_max, target.rcs, _derivative_norm2(geom, target))


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
    """SensingScene.evaluation of the targets' echo SINRs under solution."""
    scene = SensingScene(targets, geom)
    return scene.evaluation(scene.sinrs(solution, sigma_s2), solution.p_sensing,
                            sigma_s2, p_fa, p_max)
