"""Sensing metric chain on one illuminated target.

Builds a design point, prices it as a result row is priced (price_design on
the targets' SensingScene), and follows each target's echo SINR through the
two downstream metrics: detection probability at a fixed false alarm rate
and the angle CRLB. Also cross-checks the closed-form CRLB
against the Fisher information route and shows the full-power floor.
"""

import numpy as np

from holo_isac import (ArrayGeometry, ObjectiveWeights, PathSampler,
                       SensingScene, crlb_closed_form, crlb_lower_bound,
                       detection_probability, draw_channels,
                       fisher_information, init_hao_sca, price_design)
from holo_isac.channel import SensingTarget

rng = np.random.default_rng(31)

lam = 3.0e-3
geom = ArrayGeometry(mx=8, my=8, dx=lam / 4.0, dy=lam / 4.0, wavelength=lam)
sigma_n2 = 1e-12
sigma_s2 = 10.0 ** (-11.5)
p_max = 100.0

channels, _, _ = draw_channels(geom, rng, 4, PathSampler(num_paths=6))
targets = [SensingTarget(theta=0.4, phi=0.8, r=0.05, rcs=0.8),
           SensingTarget(theta=-0.2, phi=-1.5, r=0.08, rcs=0.3)]

sol = init_hao_sca(channels, targets, geom, num_groups=2,
                   p_max=p_max, sigma_n2=sigma_n2)

# ===== echo sinr and the bundled evaluation ==========================

scene = SensingScene(targets, geom)
price = price_design(sol, channels, scene, ObjectiveWeights(), sigma_n2,
                     sigma_s2)
report = scene.evaluation(price.echo_sinr, sol.p_sensing, sigma_s2,
                          p_fa=1e-3, p_max=p_max)
print("per-target sensing evaluation (p_fa = 1e-3):")
for l, t in enumerate(targets):
    print(f"  target {l} (rcs {t.rcs:.1f} at r = {t.r:.2f} m): "
          f"sinr = {report.sinr_db[l]:6.2f} dB, "
          f"p_detect = {report.detection_prob[l]:.4f}, "
          f"crlb = {report.crlb[l]:.3e} rad^2, "
          f"floor = {report.crlb_floor[l]:.3e} rad^2")

# ===== detection probability vs sinr =================================

print("\ndetection probability against echo sinr:")
print("  sinr        p_fa=1e-3   p_fa=0.05")
for gamma in (0.0, 1.0, 5.0, 10.0, 25.0, 50.0):
    row = [detection_probability(gamma, pfa) for pfa in (1e-3, 0.05)]
    print(f"  {gamma:5.1f}       {row[0]:.5f}     {row[1]:.5f}")
print("  (gamma = 0 returns the false alarm rate exactly)")

# ===== crlb scaling and the dual route ===============================

print("\ncrlb vs sensing power (fixed beams):")
base_ps = sol.p_sensing
for scale in (0.5, 1.0, 2.0, 4.0):
    sol.p_sensing = base_ps * scale
    print(f"  p_sensing = {sol.p_sensing:7.3f} W: "
          f"crlb = {crlb_closed_form(targets[0], sol, geom, sigma_s2):.4e} rad^2")
sol.p_sensing = base_ps

prod = crlb_closed_form(targets[0], sol, geom, sigma_s2) \
    * fisher_information(targets[0], sol, geom, sigma_s2)
print(f"\nclosed form x fisher information = {prod:.6f} (want ~1; the two"
      " routes use independent derivative discretizations)")

floor = crlb_lower_bound(targets[0], geom, sigma_s2, p_max)
gamma0 = report.sinr[0]
print(f"full-power floor = {floor:.4e} rad^2 at echo sinr {gamma0:.2f}")
