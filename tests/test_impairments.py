import numpy as np
import pytest

from holo_isac.geometry import ArrayGeometry
from holo_isac.impairments import (
    ImpairmentChain,
    coupling_matrix,
    effective_channel,
    inject_csi_error,
    iq_coefficients,
    irr_db,
    phase_noise_from_dbc,
    phase_noise_init,
    phase_noise_step,
    solve_iq_for_irr,
)
from oracles import apply_impairments


def small_geom(mx=3, my=3):
    return ArrayGeometry(mx, my, 0.75e-3, 0.75e-3, 3e-3)


# =====================================================================
# Mutual coupling
# =====================================================================

def test_coupling_ring_one_adjacency():
    # 3x3 grid, first ring couples side neighbors only. The center element
    # (flat index 4) has four side neighbors: 1, 3, 5, 7.
    c = coupling_matrix(small_geom(), [0.2])
    assert c.shape == (9, 9)
    assert np.allclose(np.diag(c), 1.0)
    row = c[4]
    neighbors = {1, 3, 5, 7}
    for j in range(9):
        if j == 4:
            continue
        expected = 0.2 if j in neighbors else 0.0
        assert row[j] == pytest.approx(expected)


def test_coupling_second_ring_hits_diagonals():
    c = coupling_matrix(small_geom(), [0.2, 0.1])
    # corners relative to the center are the second ring (distance sqrt 2)
    assert c[4, 0] == pytest.approx(0.1)
    assert c[4, 8] == pytest.approx(0.1)


def test_coupling_decay_shrinks_outer_rings():
    c0 = coupling_matrix(small_geom(), [0.2, 0.2], decay=0.0)
    c1 = coupling_matrix(small_geom(), [0.2, 0.2], decay=1.0)
    assert abs(c1[4, 0]) < abs(c0[4, 0])
    assert c1[4, 1] == pytest.approx(c0[4, 1])  # first ring unscaled


def test_coupling_validation():
    with pytest.raises(ValueError):
        coupling_matrix(small_geom(), [0.5])
    with pytest.raises(ValueError):
        coupling_matrix(small_geom(), [0.1], decay=-1.0)
    with pytest.raises(ValueError):
        coupling_matrix(small_geom(), [0.1] * 50)  # more rings than the grid has


# =====================================================================
# Phase noise
# =====================================================================

def test_phase_noise_state_and_increment():
    st = phase_noise_init(16, c0=1e-18, ts=1e-6)
    assert st.phases.shape == (16,)
    assert st.increment_variance == pytest.approx(4.0 * np.pi**2 * 1e-18 * 1e-6)
    with pytest.raises(ValueError):
        phase_noise_init(4, c0=-1.0)


def test_phase_noise_from_dbc_variance():
    st = phase_noise_from_dbc(8, -30.0, ts=1e-6)
    assert st.increment_variance == pytest.approx(1e-3, rel=1e-12)


def test_phase_noise_step_statistics():
    st = phase_noise_from_dbc(4000, -20.0)
    rng = np.random.default_rng(5)
    stepped = phase_noise_step(st, rng)
    assert stepped is not st
    assert np.all(st.phases == 0.0)  # original untouched
    var = np.var(stepped.phases)
    assert var == pytest.approx(st.increment_variance, rel=0.1)


# =====================================================================
# I/Q imbalance
# =====================================================================

def test_iq_coefficients_formula():
    mu = iq_coefficients(0.1, 0.2)
    eps = 1.2 / 0.8
    assert mu == pytest.approx(np.cos(0.1) + 1j * eps * np.sin(0.1))
    with pytest.raises(ValueError):
        iq_coefficients(0.1, 1.0)


def test_irr_perfect_hardware_is_infinite():
    assert irr_db(0.0, 1.0) == np.inf


def test_solve_iq_round_trip():
    for target in (20.0, 30.0, 45.0):
        psi, g = solve_iq_for_irr(target)
        eps = (1.0 + g) / (1.0 - g)
        assert irr_db(psi, eps) == pytest.approx(target, abs=0.02)
    assert solve_iq_for_irr(np.inf) == (0.0, 0.0)
    with pytest.raises(ValueError):
        solve_iq_for_irr(-3.0)


# =====================================================================
# Cascade
# =====================================================================

def test_chain_identity_when_empty():
    t = ImpairmentChain().transform(6)
    assert np.allclose(t, np.eye(6))


def test_chain_composition_order():
    rng = np.random.default_rng(11)
    m = 9
    c = coupling_matrix(small_geom(), [0.15])
    st = phase_noise_step(phase_noise_from_dbc(m, -25.0), rng)
    mu = iq_coefficients(0.05, 0.1)
    chain = ImpairmentChain(coupling=c, phase_state=st, iq_mu=mu)
    t = chain.transform(m)
    manual = np.diag(np.exp(1j * st.phases)) @ (mu * np.eye(m)) @ c
    assert np.allclose(t, manual, rtol=1e-12)

    x = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    assert np.allclose(apply_impairments(x, chain), t @ x, rtol=1e-12)
    h = rng.standard_normal((3, m)) + 1j * rng.standard_normal((3, m))
    assert np.allclose(effective_channel(h, chain), h @ t.conj(), rtol=1e-12)
    # one matrix-vector product per user, bit for bit
    per_user = np.vstack([t.conj().T @ row for row in h])
    assert effective_channel(h, chain).tobytes() == per_user.tobytes()


def test_transform_matches_the_dense_cascade():
    # row scalings of a copy of C give the dense product D_PN @ D_IQ @ C
    rng = np.random.default_rng(12)
    m = 9
    c = coupling_matrix(small_geom(), [0.15, 0.05])
    c.flags.writeable = False  # as experiments._coupling shares it
    st = phase_noise_step(phase_noise_from_dbc(m, -25.0), rng)
    mu = iq_coefficients(0.05, 0.1)
    d_pn = np.diag(np.exp(1j * st.phases))
    d_iq = np.diag(np.broadcast_to(mu, (m,)))
    cases = [
        (ImpairmentChain(coupling=c, phase_state=st, iq_mu=mu), d_pn @ d_iq @ c),
        (ImpairmentChain(coupling=c), c),
        (ImpairmentChain(coupling=c, iq_mu=mu), d_iq @ c),
        (ImpairmentChain(phase_state=st, iq_mu=mu), d_pn @ d_iq),
    ]
    for chain, dense in cases:
        t = chain.transform(m)
        assert t.dtype == complex
        assert np.allclose(t, dense, rtol=1e-14, atol=0.0)
        assert not np.shares_memory(t, c)


def test_effective_channel_identity_chain():
    h = np.array([[1.0 + 2.0j, -0.5j, 0.25], [0.5, 1.0j, -2.0]])
    assert np.allclose(effective_channel(h, ImpairmentChain()), h)


# =====================================================================
# CSI error
# =====================================================================

def test_inject_csi_error_exact_fraction():
    rng = np.random.default_rng(3)
    h = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    for eps in (0.05, 0.2, 0.5):
        h_hat = inject_csi_error(h, eps, rng)
        rel = np.linalg.norm(h_hat - h) / np.linalg.norm(h)
        assert rel == pytest.approx(eps, rel=1e-12)


def test_inject_csi_error_edge_cases():
    rng = np.random.default_rng(4)
    h = np.ones(4, dtype=complex)
    out = inject_csi_error(h, 0.0, rng)
    assert np.all(out == h) and out is not h
    with pytest.raises(ValueError):
        inject_csi_error(h, -0.1, rng)
    with pytest.raises(ValueError):
        inject_csi_error(np.zeros(4, dtype=complex), 0.1, rng)
