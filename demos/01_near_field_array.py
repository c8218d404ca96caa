"""Near-field array walk-through.

Builds a quarter-wave 16x16 planar array at 100 GHz, checks how fast the
second-order distance expansion converges to the exact spherical distance,
and shows the part that makes the near field interesting: steering vectors
focused at different ranges along the same bearing decorrelate, so the array
can resolve range, not just angle. Ends with one trial's multipath user
channels, drawn as the experiments draw them.
"""

import numpy as np

from holo_isac import (ArrayGeometry, PathSampler, array_response,
                       draw_channels, element_distance, fresnel_distance)

rng = np.random.default_rng(7)

lam = 3.0e-3
geom = ArrayGeometry(mx=16, my=16, dx=lam / 4.0, dy=lam / 4.0, wavelength=lam)

print("array: 16x16, quarter-wave spacing at 100 GHz")
print(f"  aperture          = {1e3 * geom.aperture:.1f} mm")
print(f"  rayleigh distance = {geom.rayleigh_distance:.4f} m")

# ===== expansion accuracy vs range ===================================

m, n = geom.element_offsets()
thetas = np.linspace(-np.pi / 3.0, np.pi / 3.0, 9)
phis = np.linspace(-np.pi, np.pi, 9, endpoint=False)

print("\nsecond-order expansion, worst relative distance error:")
for factor in (2.0, 10.0, 100.0, 1000.0):
    r = factor * geom.aperture
    worst = 0.0
    for theta in thetas:
        for phi in phis:
            exact = element_distance(geom, theta, phi, r, m, n)
            approx = fresnel_distance(geom, theta, phi, r, m, n)
            worst = max(worst, float(np.max(np.abs(approx - exact) / exact)))
    print(f"  r = {factor:6.0f} apertures ({r:7.3f} m): {worst:.3e}")

# ===== range focusing inside the rayleigh region =====================

theta0, phi0 = 0.35, 1.2
r_focus = 0.4 * geom.rayleigh_distance
a_focus = array_response(geom, theta0, phi0, r_focus)

ranges = np.sort(np.append(np.geomspace(0.1, 4.0, 8) * geom.rayleigh_distance,
                           r_focus))
print(f"\nfocal correlation along the bearing (focus at {r_focus:.3f} m):")
for r in ranges:
    a = array_response(geom, theta0, phi0, r)
    corr = abs(np.vdot(a_focus, a)) / (np.linalg.norm(a_focus) * np.linalg.norm(a))
    marker = " <-- focus" if r == r_focus else ""
    print(f"  r = {r:7.4f} m: |correlation| = {corr:.4f}{marker}")
print("  (a far-field array would sit at 1.0000 for every range)")

# ===== multipath draws ===============================================

sampler = PathSampler(num_paths=6)
h, coords, beta = draw_channels(geom, rng, 4, sampler)

print("\nfour multipath users, 6 paths each (one whole-trial draw):")
for k in range(4):
    print(f"  user {k}: first path at {coords[k, 0, 2]:.3f} m, "
          f"beta = {beta[k]:.3e}, ||h|| = {np.linalg.norm(h[k]):.3e}")

sv = np.linalg.svd(h, compute_uv=False)
print(f"  user-separability (channel singular value spread) = "
      f"{sv[0] / sv[-1]:.2f}")
