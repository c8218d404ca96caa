import numpy as np
import pytest

from holo_isac.geometry import (
    ArrayGeometry,
    array_response,
    element_distance,
    fresnel_distance,
    steering_derivative,
)


def desk_geom(mx=8, my=8, spacing_frac=0.25, wavelength=3e-3):
    d = spacing_frac * wavelength
    return ArrayGeometry(mx, my, d, d, wavelength)


def source_point(theta, phi, r):
    return r * np.array([
        np.sin(theta) * np.cos(phi),
        np.sin(theta) * np.sin(phi),
        np.cos(theta),
    ])


# =====================================================================
# Construction and derived scalars
# =====================================================================

def test_geometry_validation():
    with pytest.raises(ValueError):
        ArrayGeometry(0, 4, 1e-3, 1e-3, 3e-3)
    with pytest.raises(ValueError):
        ArrayGeometry(4, 4, 0.0, 1e-3, 3e-3)
    with pytest.raises(ValueError):
        ArrayGeometry(4, 4, 1e-3, 1e-3, -1.0)


def test_derived_scalars():
    g = desk_geom(4, 8)
    assert g.m_total == 32
    assert g.wavenumber == pytest.approx(2.0 * np.pi / 3e-3, rel=1e-15)
    assert g.aperture == pytest.approx(np.sqrt(32) * 0.75e-3, rel=1e-15)


def test_rayleigh_distance_full_scale_value():
    # 32x32 at quarter-wavelength spacing and 3 mm carrier: the near-field
    # boundary lands at 0.384 m. Hand arithmetic: aperture = 32 * 0.75 mm
    # = 24 mm, 2 * 0.024^2 / 0.003 = 0.384.
    g = desk_geom(32, 32)
    assert g.rayleigh_distance == pytest.approx(0.384, abs=1e-12)


def test_element_offsets_layout():
    g = desk_geom(3, 2)
    m, n = g.element_offsets()
    assert m.shape == (3, 2) and n.shape == (3, 2)
    assert m[2, 0] == 2 and n[0, 1] == 1
    # row-major with n fastest matches the documented flat index
    flat_m = m.reshape(-1)
    assert flat_m[1] == 0 and flat_m[2] == 1


# =====================================================================
# Exact distances vs a coordinate-geometry oracle
# =====================================================================

def test_element_distance_matches_euclidean_oracle():
    g = desk_geom(6, 5)
    rng = np.random.default_rng(1203)
    m, n = g.element_offsets()
    for _ in range(25):
        theta = rng.uniform(-np.pi / 2, np.pi / 2)
        phi = rng.uniform(-np.pi, np.pi)
        r = rng.uniform(0.02, 2.0)
        got = element_distance(g, theta, phi, r, m, n)
        src = source_point(theta, phi, r)
        expected = np.sqrt(
            (src[0] - g.dx * m) ** 2 + (src[1] - g.dy * n) ** 2 + src[2] ** 2
        )
        assert np.allclose(got, expected, rtol=1e-12, atol=0.0)


def test_element_distance_rejects_bad_range():
    g = desk_geom()
    m, n = g.element_offsets()
    with pytest.raises(ValueError):
        element_distance(g, 0.3, 0.1, 0.0, m, n)
    with pytest.raises(ValueError):
        element_distance(g, 0.3, 0.1, -1.0, m, n)


def test_fresnel_error_shrinks_with_range():
    g = desk_geom(16, 16)
    m, n = g.element_offsets()
    theta, phi = 0.7, -1.2
    errs = []
    for r in (2.0 * g.aperture, 20.0 * g.aperture, 200.0 * g.aperture):
        exact = element_distance(g, theta, phi, r, m, n)
        approx = fresnel_distance(g, theta, phi, r, m, n)
        errs.append(np.max(np.abs(approx - exact) / exact))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-4


def test_fresnel_rejects_bad_range():
    g = desk_geom()
    m, n = g.element_offsets()
    with pytest.raises(ValueError):
        fresnel_distance(g, 0.0, 0.0, 0.0, m, n)


# =====================================================================
# Array response
# =====================================================================

def test_array_response_matches_manual_formula():
    g = desk_geom(5, 3)
    theta, phi, r = 0.4, 2.0, 0.5
    a = array_response(g, theta, phi, r)
    assert a.shape == (15,)
    m, n = g.element_offsets()
    dist = element_distance(g, theta, phi, r, m, n)
    manual = (np.exp(1j * g.wavenumber * dist) / dist).reshape(-1) / np.sqrt(15)
    assert np.allclose(a, manual, rtol=1e-13, atol=0.0)


def test_array_response_broadcasts_sources_bit_for_bit():
    g = desk_geom(5, 3)
    rng = np.random.default_rng(78)
    theta = rng.uniform(-1.0, 1.0, (2, 3))
    phi = rng.uniform(-np.pi, np.pi, (2, 3))
    r = rng.uniform(0.05, 0.5, 3)               # broadcast along the rows
    a = array_response(g, theta, phi, r)
    assert a.shape == (2, 3, 15)
    for i in range(2):
        for j in range(3):
            alone = array_response(g, theta[i, j], phi[i, j], r[j])
            assert a[i, j].tobytes() == alone.tobytes()
    assert array_response(g, [], [], []).shape == (0, 15)
    with pytest.raises(ValueError):
        array_response(g, [0.0, 0.1], 0.0, [0.5, 9.0 * g.dx])


def test_array_response_near_singularity_guard():
    g = desk_geom()
    with pytest.raises(ValueError):
        array_response(g, 0.0, 0.0, 9.0 * g.dx)
    # exactly at the bound is allowed
    array_response(g, 0.0, 0.0, 10.0 * g.dx)


def test_array_response_amplitude_taper():
    # the far corner element sits farther from a broadside source than the
    # origin element, so its amplitude must be strictly smaller
    g = desk_geom(8, 8)
    a = array_response(g, 0.0, 0.0, 0.05)
    assert np.abs(a[-1]) < np.abs(a[0])


# =====================================================================
# Steering derivative
# =====================================================================

def test_steering_derivative_modes_agree():
    g = desk_geom(8, 8)
    rng = np.random.default_rng(77)
    for _ in range(8):
        theta = rng.uniform(-1.0, 1.0)
        phi = rng.uniform(-np.pi, np.pi)
        r = rng.uniform(0.05, 0.5)
        fd = steering_derivative(g, theta, phi, r, mode="fd")
        an = steering_derivative(g, theta, phi, r, mode="analytic")
        rel = np.linalg.norm(fd - an) / np.linalg.norm(an)
        assert rel < 1e-3


def test_steering_derivative_unknown_mode():
    g = desk_geom()
    with pytest.raises(ValueError):
        steering_derivative(g, 0.1, 0.1, 0.1, mode="symbolic")
