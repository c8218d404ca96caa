"""Planar-array geometry and near-field steering vectors.

The transmit surface is an mx-by-my grid of elements in the z=0 plane with
spacings (dx, dy). A point source at spherical coordinates (theta, phi, r)
sits at r * (sin(theta)cos(phi), sin(theta)sin(phi), cos(theta)); element
(m, n) sits at (m*dx, n*dy, 0). All distances are exact Euclidean distances,
so spherical-wavefront curvature across the aperture is kept, not expanded
away. The Fresnel expansion is provided separately for comparison.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


def vector_norm(x: np.ndarray) -> float:
    """Euclidean norm of a 1-D real or complex vector, bit for bit
    np.linalg.norm(x), from matmul dot products: np.linalg.norm's
    ndarray.dot hands the interpreter lock to other threads, matmul keeps
    it."""
    if np.iscomplexobj(x):
        re, im = x.real, x.imag
        return np.sqrt(re @ re + im @ im)
    return np.sqrt(x @ x)


@functools.lru_cache(maxsize=16)
def _element_grid(mx: int, my: int) -> tuple:
    """Read-only (m, n) index grids of an mx-by-my array."""
    m, n = np.meshgrid(np.arange(mx), np.arange(my), indexing="ij")
    m.flags.writeable = n.flags.writeable = False
    return m, n


@dataclass(frozen=True)
class ArrayGeometry:
    """Immutable description of the planar array.

    Attributes:
        mx, my: element counts along x and y (each >= 1).
        dx, dy: element spacings in meters (> 0).
        wavelength: carrier wavelength in meters (> 0).
    """

    mx: int
    my: int
    dx: float
    dy: float
    wavelength: float

    def __post_init__(self):
        if self.mx < 1 or self.my < 1:
            raise ValueError(f"element counts must be >= 1, got ({self.mx}, {self.my})")
        if self.dx <= 0.0 or self.dy <= 0.0:
            raise ValueError(f"element spacings must be > 0, got ({self.dx}, {self.dy})")
        if self.wavelength <= 0.0:
            raise ValueError(f"wavelength must be > 0, got {self.wavelength}")

    @property
    def m_total(self) -> int:
        """Total element count M = mx * my."""
        return self.mx * self.my

    @property
    def wavenumber(self) -> float:
        """Free-space wavenumber k0 = 2*pi/wavelength."""
        return 2.0 * np.pi / self.wavelength

    @property
    def aperture(self) -> float:
        """Effective aperture diameter sqrt(M) * max(dx, dy)."""
        return np.sqrt(self.m_total) * max(self.dx, self.dy)

    @property
    def rayleigh_distance(self) -> float:
        """Near-field/far-field boundary 2 * aperture^2 / wavelength."""
        return 2.0 * self.aperture**2 / self.wavelength

    def element_offsets(self):
        """Grid index arrays (m, n), each of shape (mx, my), read-only and
        built once per array size (meshgrid and arange release the
        interpreter lock)."""
        return _element_grid(self.mx, self.my)


def element_distance(geom: ArrayGeometry, theta, phi, r, m, n):
    """Exact source-to-element distance for element (m, n).

    Evaluates sqrt(r^2 + dx^2 m^2 + dy^2 n^2
                   - 2 r dx m sin(theta)cos(phi) - 2 r dy n sin(theta)sin(phi)),
    which is the Euclidean distance between the source point and the element,
    with no far-field or Fresnel approximation. Broadcasts over m and n.

    Raises:
        ValueError: if r <= 0, or if the radicand goes negative (possible only
            for inconsistent inputs; the offending indices are named).
    """
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError(f"source range must be > 0, got {r}")
    m = np.asarray(m)
    n = np.asarray(n)
    st = np.sin(theta)
    radicand = (
        r**2
        + (geom.dx * m) ** 2
        + (geom.dy * n) ** 2
        - 2.0 * r * geom.dx * m * st * np.cos(phi)
        - 2.0 * r * geom.dy * n * st * np.sin(phi)
    )
    bad = np.atleast_1d(radicand < 0.0)
    if bad.any():
        where = np.argwhere(bad)[:4].tolist()
        raise ValueError(f"negative radicand in element distance at element indices {where}")
    return np.sqrt(radicand)


def fresnel_distance(geom: ArrayGeometry, theta, phi, r, m, n):
    """Second-order Fresnel expansion of the element distance.

    r - dx m sin(theta)cos(phi) - dy n sin(theta)sin(phi)
      + (dx^2 m^2 + dy^2 n^2) / (2 r).

    Valid deep in the radiating near field and beyond; the relative error
    against the exact distance falls below 1e-4 once r exceeds roughly
    100 aperture diameters.
    """
    if r <= 0.0:
        raise ValueError(f"source range must be > 0, got {r}")
    m = np.asarray(m)
    n = np.asarray(n)
    st = np.sin(theta)
    return (
        r
        - geom.dx * m * st * np.cos(phi)
        - geom.dy * n * st * np.sin(phi)
        + ((geom.dx * m) ** 2 + (geom.dy * n) ** 2) / (2.0 * r)
    )


def array_response(geom: ArrayGeometry, theta, phi, r) -> np.ndarray:
    """Near-field array response (steering) vector for a point source.

    Element (m, n) contributes (1/sqrt(M)) * exp(j k0 r_mn) / r_mn with r_mn the
    exact element distance, so both the phase curvature and the amplitude taper
    across the aperture are modeled. Elements are stacked row-major with the
    n index fastest: flat index = m * my + n.

    theta, phi and r may be arrays that broadcast against each other, one
    source per entry; each response then equals, bit for bit, the response
    of its source alone.

    Args:
        geom: array description.
        theta: polar angle in radians.
        phi: azimuth angle in radians.
        r: source range in meters; must be at least 10 * max(dx, dy) to keep
            the 1/r_mn amplitudes away from the array singularity.

    Returns:
        Complex array of shape (*broadcast shape, geom.m_total): a vector of
        length geom.m_total for scalar arguments.

    Raises:
        ValueError: for r below the near-singularity bound or a negative
            radicand in the distance evaluation.
    """
    theta, phi, r = np.broadcast_arrays(*(np.asarray(x, dtype=float)
                                          for x in (theta, phi, r)))
    near_bound = 10.0 * max(geom.dx, geom.dy)
    if np.any(r < near_bound):
        raise ValueError(
            f"source range {np.min(r):.6g} m is inside the near-singularity bound "
            f"{near_bound:.6g} m (10 * max element spacing)"
        )
    m, n = geom.element_offsets()
    grid = (..., None, None)
    dist = element_distance(geom, theta[grid], phi[grid], r[grid], m, n)
    # in place, so a batch of sources holds one complex array at a time
    a = 1j * geom.wavenumber * dist
    np.exp(a, out=a)
    a /= dist
    a = a.reshape(*theta.shape, geom.m_total)
    a /= np.sqrt(geom.m_total)
    return a


def steering_derivative(geom: ArrayGeometry, theta: float, phi: float, r: float,
                        mode: str = "fd") -> np.ndarray:
    """Derivative of the array response with respect to the polar angle.

    mode="fd" uses a central finite difference with step 1e-5 rad on the exact
    array response; mode="analytic" differentiates the closed form,
    da_i/dtheta = a_i * (j k0 - 1/r_i) * dr_i/dtheta with
    dr_i/dtheta = -r (dx m cos(theta)cos(phi) + dy n cos(theta)sin(phi)) / r_i.
    The two agree to a relative error of about 1e-4 or better.
    """
    if mode == "fd":
        h = 1e-5
        return (array_response(geom, theta + h, phi, r)
                - array_response(geom, theta - h, phi, r)) / (2.0 * h)
    if mode == "analytic":
        m, n = geom.element_offsets()
        dist = element_distance(geom, theta, phi, r, m, n)
        ddist = -r * np.cos(theta) * (
            geom.dx * m * np.cos(phi) + geom.dy * n * np.sin(phi)
        ) / dist
        a = np.exp(1j * geom.wavenumber * dist) / dist / np.sqrt(geom.m_total)
        return (a * (1j * geom.wavenumber - 1.0 / dist) * ddist).reshape(-1)
    raise ValueError(f"unknown derivative mode {mode!r}")
