"""Multipath user channels, sensing targets and their echo amplitudes.

User channels follow a clustered near-field model: a handful of point-source
paths, each with its own (theta, phi, r) and a complex Gaussian gain whose
variance is the path's share of the total power. A point target's echo is
rank-one; its amplitude follows the radar equation (echo_amplitude).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import ArrayGeometry, array_response

_FRACTION_TOL = 1e-9


@dataclass(frozen=True)
class PathComponent:
    """One propagation path: angles/range plus its power fraction."""

    theta: float
    phi: float
    r: float
    sigma2: float  # power fraction; fractions across a channel sum to 1

    def __post_init__(self):
        if self.sigma2 < 0.0:
            raise ValueError(f"path power fraction must be >= 0, got {self.sigma2}")
        if self.r <= 0.0:
            raise ValueError(f"path range must be > 0, got {self.r}")


@dataclass
class UserChannel:
    """Generated channel vector together with the paths that produced it."""

    h: np.ndarray
    paths: list
    beta: float


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

    def draw_paths(self, geom: ArrayGeometry, rng: np.random.Generator) -> list:
        """Draw num_paths PathComponents with uniform 1/P power fractions."""
        r_lo, r_hi = self.range_bounds(geom)
        out = []
        for _ in range(self.num_paths):
            theta = rng.uniform(self.theta_lo, self.theta_hi)
            phi = rng.uniform(self.phi_lo, self.phi_hi)
            r = rng.uniform(r_lo, r_hi)
            out.append(PathComponent(theta, phi, r, 1.0 / self.num_paths))
        return out


def free_space_beta(geom: ArrayGeometry, r: float) -> float:
    """Free-space-like large-scale gain (wavelength / (4 pi r))^2."""
    return (geom.wavelength / (4.0 * np.pi * r)) ** 2


def generate_user_channel(geom: ArrayGeometry, rng: np.random.Generator,
                          sampler: PathSampler | None = None,
                          beta: float | None = None) -> UserChannel:
    """Draw one multipath user channel h = sqrt(beta) * sum_p alpha_p a(path_p).

    Path gains alpha_p are complex Gaussian with variance sigma2_p, the path
    power fractions (which sum to one), so E||h||^2 = beta * E||a||^2 under the
    sampler. beta defaults to the free-space value at the first path's range.

    Returns:
        UserChannel with the channel vector, the drawn paths, and beta.
    """
    sampler = sampler or PathSampler()
    paths = sampler.draw_paths(geom, rng)
    if beta is None:
        beta = free_space_beta(geom, paths[0].r)
    responses = array_response(geom, [p.theta for p in paths],
                               [p.phi for p in paths], [p.r for p in paths])
    h = np.zeros(geom.m_total, dtype=complex)
    for p, a in zip(paths, responses):
        alpha = (rng.standard_normal() + 1j * rng.standard_normal()) * np.sqrt(p.sigma2 / 2.0)
        h += alpha * a
    return UserChannel(h=np.sqrt(beta) * h, paths=paths, beta=beta)


def spatial_correlation(geom: ArrayGeometry, paths) -> np.ndarray:
    """Spatial correlation matrix R = sum_p sigma2_p a_p a_p^H.

    The path power fractions must sum to one (checked to 1e-9). The result is
    Hermitian positive semidefinite by construction.
    """
    total = sum(p.sigma2 for p in paths)
    if abs(total - 1.0) > _FRACTION_TOL:
        raise ValueError(f"path power fractions must sum to 1, got {total!r}")
    m = geom.m_total
    cov = np.zeros((m, m), dtype=complex)
    for p in paths:
        a = array_response(geom, p.theta, p.phi, p.r)
        cov += p.sigma2 * np.outer(a, a.conj())
    return cov


def condition_number(matrix: np.ndarray) -> float:
    """Eigenvalue condition number of a Hermitian PSD matrix.

    Returns lambda_max / lambda_min, or +inf once lambda_min drops below
    1e-14 * lambda_max (rank-deficient to machine precision).

    Raises:
        ValueError: if the matrix is not Hermitian within 1e-9.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    if np.max(np.abs(matrix - matrix.conj().T)) > 1e-9:
        raise ValueError("matrix is not Hermitian within 1e-9")
    eigs = np.linalg.eigvalsh(matrix)
    lam_min, lam_max = eigs[0], eigs[-1]
    if lam_max <= 0.0:
        return np.inf
    if lam_min <= 1e-14 * lam_max:
        return np.inf
    return float(lam_max / lam_min)


def echo_amplitude(geom: ArrayGeometry, target: SensingTarget) -> float:
    """Radar-equation echo amplitude
    sqrt(rcs * G_tx * G_rx * wavelength^2 / ((4 pi)^3 R^4))."""
    return float(np.sqrt(
        target.rcs * target.gain_tx * target.gain_rx * geom.wavelength**2
        / ((4.0 * np.pi) ** 3 * target.r**4)
    ))

