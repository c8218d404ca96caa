"""Multipath user channels, sensing targets and their echo amplitudes.

User channels follow a clustered near-field model: a handful of point-source
paths, each with its own (theta, phi, r) and a complex Gaussian gain whose
variance is an equal share of the total power. A point target's echo is
rank-one; its amplitude follows the radar equation (echo_amplitude).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import ArrayGeometry, array_response


@dataclass(frozen=True)
class SensingTarget:
    """Point sensing target with RCS and bistatic antenna gains."""

    theta: float
    phi: float
    r: float
    rcs: float
    gain_tx: float = 1.0
    gain_rx: float = 1.0

    def __post_init__(self):
        if self.rcs <= 0.0:
            raise ValueError(f"target RCS must be > 0, got {self.rcs}")
        if self.r <= 0.0:
            raise ValueError(f"target range must be > 0, got {self.r}")


@dataclass(frozen=True)
class PathSampler:
    """Uniform sampler for path angles and ranges.

    Defaults: theta on [-pi/3, pi/3], phi on [-pi, pi), ranges on
    [max(0.1 * R_Rayleigh, 10 * max(dx, dy)), 2 * R_Rayleigh] (the lower end is
    floored at the steering-vector near-singularity bound so that small desk
    arrays, whose 0.1 * R_Rayleigh falls inside the bound, stay sampleable),
    and 6 paths per channel.
    """

    theta_lo: float = -np.pi / 3.0
    theta_hi: float = np.pi / 3.0
    phi_lo: float = -np.pi
    phi_hi: float = np.pi
    r_lo: float | None = None
    r_hi: float | None = None
    num_paths: int = 6

    def range_bounds(self, geom: ArrayGeometry):
        lo = self.r_lo
        hi = self.r_hi
        if lo is None:
            lo = max(0.1 * geom.rayleigh_distance, 10.0 * max(geom.dx, geom.dy))
        if hi is None:
            hi = 2.0 * geom.rayleigh_distance
        if not lo < hi:
            raise ValueError(f"empty range interval [{lo}, {hi}]")
        return lo, hi


def free_space_beta(geom: ArrayGeometry, r: float) -> float:
    """Free-space-like large-scale gain (wavelength / (4 pi r))^2."""
    return (geom.wavelength / (4.0 * np.pi * r)) ** 2


def draw_channels(geom: ArrayGeometry, rng: np.random.Generator,
                  num_users: int, sampler: PathSampler | None = None) -> tuple:
    """Draw num_users multipath channels, h = sqrt(beta) sum_p alpha_p a(path_p).

    Path gains alpha_p are complex Gaussian with variance 1/P, so
    E||h||^2 = beta * E||a||^2 under the sampler; beta is each user's
    free-space value at its first path's range. The stream is read
    user by user (paths, then path gains), so each row is bit for bit its
    user's channel drawn alone. The responses come from one broadcast
    array_response call per chunk of max(1, num_users // P) users, which
    keeps every temporary within the (num_users, M) result once
    num_users >= P, and h is summed path by path over all users at once.

    Returns:
        (h, coords, beta): the (num_users, M) channels, each path's
        (theta, phi, r) in a (num_users, P, 3) array, and each user's beta.
    """
    sampler = sampler or PathSampler()
    num_paths = sampler.num_paths
    r_lo, r_hi = sampler.range_bounds(geom)
    lo = (sampler.theta_lo, sampler.phi_lo, r_lo)
    hi = (sampler.theta_hi, sampler.phi_hi, r_hi)
    coords = np.empty((num_users, num_paths, 3))
    normals = np.empty((num_users, num_paths, 2))
    for i in range(num_users):
        coords[i] = rng.uniform(lo, hi, (num_paths, 3))
        normals[i] = rng.standard_normal((num_paths, 2))
    beta = [free_space_beta(geom, r) for r in coords[:, 0, 2].tolist()]
    alpha = (normals[..., 0] + 1j * normals[..., 1]) \
        * np.sqrt(1.0 / num_paths / 2.0)
    h = np.zeros((num_users, geom.m_total), dtype=complex)
    chunk = max(1, num_users // num_paths)
    for start in range(0, num_users, chunk):
        rows = slice(start, start + chunk)
        responses = array_response(geom, *coords[rows].transpose(2, 0, 1))
        for p in range(num_paths):
            h[rows] += alpha[rows, p, None] * responses[:, p]
    return np.sqrt(beta)[:, None] * h, coords, beta


def target_responses(geom: ArrayGeometry, targets) -> np.ndarray:
    """The (L, M) table of the targets' array responses, one row per target,
    from one broadcast array_response call: each row is bit for bit the
    target's response alone."""
    coords = np.array([(t.theta, t.phi, t.r) for t in targets],
                      dtype=float).reshape(-1, 3)
    return array_response(geom, *coords.T)


def echo_amplitude(geom: ArrayGeometry, target: SensingTarget) -> float:
    """Radar-equation echo amplitude
    sqrt(rcs * G_tx * G_rx * wavelength^2 / ((4 pi)^3 R^4))."""
    return float(np.sqrt(
        target.rcs * target.gain_tx * target.gain_rx * geom.wavelength**2
        / ((4.0 * np.pi) ** 3 * target.r**4)
    ))

