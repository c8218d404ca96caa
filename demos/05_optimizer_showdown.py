"""All four solvers on the same instance.

One seeded desk-scale draw, four algorithms: the block-ascent solver with
its two-start procedure, the extended weighted-MMSE sweep, the fractional
programming sweep, and the conventional grouped-NOMA baseline. Reports
final objectives, iteration counts, and the objective trace of the block
ascent to show the monotone climb.
"""

import time

import numpy as np

from holo_isac import (SensingScene, generate_trial_data, preset_config,
                       price_design, solve_instance)

cfg = preset_config("desk_tiny")
rng = np.random.default_rng(np.random.SeedSequence((cfg.experiment.master_seed, 0, 0)))
data = generate_trial_data(cfg, rng)

scene = SensingScene(data.targets, cfg.array_geometry())
weights = cfg.objective_weights()
s2n, s2s = cfg.sigma_n2_watts, cfg.sigma_s2_watts

print(f"instance: {cfg.geometry.mx}x{cfg.geometry.my} array, "
      f"{cfg.population.num_users} users, "
      f"{cfg.population.num_targets} targets, channel {data.channel_hash}")

print("\n  algorithm   objective  sum_rate  iters  monotone  seconds")
results = {}
for name in ("hao_sca", "e_wmmse", "fp", "conv_noma"):
    t0 = time.perf_counter()
    sol, trace = solve_instance(name, data.channels_est, data.targets, cfg)
    dt = time.perf_counter() - t0
    price = price_design(sol, data.channels_true, scene, weights, s2n, s2s)
    results[name] = (sol, trace, price)
    print(f"  {name:10s}  {price.value:9.3f}  "
          f"{price.components.sum_rate:8.3f}  "
          f"{trace.iterations_used:5d}  {str(trace.monotone):8s}  {dt:7.2f}")

print("\n(the e_wmmse sweep uses closed-form filter updates and is not an"
      " ascent on the composite, so its monotone flag is reported, not"
      " promised. the fp sweep chases the private-rate term alone, which"
      " can land the highest composite at rate-heavy weights like these)")

# ===== the block-ascent trace ========================================

trace = results["hao_sca"][1]
print(f"\nblock-ascent objective trace ({trace.iterations_used} sweeps, "
      f"converged = {trace.converged}):")
objs = np.asarray(trace.objectives)
for i, v in enumerate(objs):
    bar = "#" * int(round(40.0 * (v - objs[0]) / max(objs[-1] - objs[0], 1e-12)))
    print(f"  sweep {i:2d}: {v:9.4f} {bar}")

# ===== operating limits ==============================================

sol, _, price = results["hao_sca"]
limits = cfg.qos_limits()
print("\noperating limits of the block-ascent solution (true channels):")
print(f"  power used = {sol.total_power():.3f} / {limits.p_max:.0f} W")
print(f"  lowest user rate = {price.total_rate.min():.3f} bit/s/Hz "
      f"(floor {limits.r_min:g})")
