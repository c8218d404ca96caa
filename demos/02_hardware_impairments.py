"""Hardware impairment chain tour.

Walks the four front-end stages one at a time: nearest-neighbor mutual
coupling, IQ imbalance pinned to a target image-rejection ratio, a phase
noise random walk, and Gaussian CSI estimation error. For each stage the
script reports how far a trial's effective channels drift from the ideal
ones.
"""

import numpy as np

from holo_isac import (ArrayGeometry, ImpairmentChain, coupling_matrix,
                       draw_channels, effective_channel, inject_csi_error,
                       iq_coefficients, irr_db, phase_noise_from_dbc,
                       phase_noise_step, solve_iq_for_irr)

rng = np.random.default_rng(11)

lam = 3.0e-3
geom = ArrayGeometry(mx=4, my=4, dx=lam / 4.0, dy=lam / 4.0, wavelength=lam)
h, _, _ = draw_channels(geom, rng, 4)     # one trial's four users


def drift(h_eff):
    """The largest relative change of any user's channel."""
    return np.max(np.linalg.norm(h_eff - h, axis=1) / np.linalg.norm(h, axis=1))


# ===== mutual coupling ===============================================

print("mutual coupling, nearest-neighbor strength kappa:")
for kappa in (0.0, 0.05, 0.15, 0.2):
    c = coupling_matrix(geom, kappa)
    chain = ImpairmentChain(coupling=c)
    print(f"  kappa = {kappa:4.2f}: channel drift = {drift(effective_channel(h, chain)):.4f}")
try:
    coupling_matrix(geom, 0.3)
except ValueError as exc:
    print(f"  kappa = 0.30: rejected ({exc})")

# ===== iq imbalance ==================================================

print("\niq imbalance solved for a target image-rejection ratio:")
for target in (40.0, 30.0, 20.0):
    psi, g = solve_iq_for_irr(target)
    chain = ImpairmentChain(iq_mu=iq_coefficients(psi, g))
    achieved = irr_db(psi, (1.0 + g) / (1.0 - g))
    print(f"  target {target:4.1f} dB -> psi = {psi:.5f} rad, g = {g:.5f} "
          f"(achieved {achieved:.2f} dB), drift = "
          f"{drift(effective_channel(h, chain)):.4f}")

# ===== phase noise random walk =======================================

print("\nphase noise at -80 dBc/Hz, walking 5 steps:")
state = phase_noise_from_dbc(geom.m_total, -80.0)
for step in range(5):
    state = phase_noise_step(state, rng)
    chain = ImpairmentChain(phase_state=state)
    print(f"  step {step + 1}: phase std = {np.std(state.phases):.4f} rad, "
          f"drift = {drift(effective_channel(h, chain)):.4f}")

# ===== csi estimation error ==========================================

print("\ncsi error injection (relative error is exact by construction):")
for eps in (0.0, 0.1, 0.2, 0.4):
    h_est = np.vstack([inject_csi_error(row, eps, rng) for row in h])
    print(f"  eps = {eps:3.1f}: ||h_est - h|| / ||h|| = {drift(h_est):.12f}")
