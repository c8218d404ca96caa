"""Monte Carlo experiment driver with reproducible parallel RNG streams.

A plan is a scenario config plus an algorithm list, a trial count, a master
seed, and an optional sweep axis. Every trial draws its own RNG stream from
(master_seed, sweep index, trial index), so results are bit-identical no
matter how trials are scheduled across workers. Within a trial all
algorithms see the same channel realization (paired design); the estimated
channels go to the optimizers while metrics are computed on the true
impaired channels.
"""

from __future__ import annotations

import functools
import hashlib
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .channel import PathSampler, SensingTarget, draw_channels
from .config import ALGORITHM_NAMES, ScenarioConfig, WeightSection
from .geometry import ArrayGeometry
from .impairments import (
    ImpairmentChain,
    coupling_matrix,
    inject_csi_error,
    iq_coefficients,
    phase_noise_from_dbc,
    phase_noise_step,
    solve_iq_for_irr,
)
from .objective import price_design
from .optimizers import (SolveInstance, ensure_instance, run_e_wmmse, run_fp,
                         run_hao_sca)
from .sensing import SensingScene

SWEEP_AXES = ("none", "alpha", "antennas", "impairment", "csi_eps")

# The interpreter's forced switch interval while a thread pool runs. At the
# default 5 ms, each forced hand-off of the interpreter lock moved the running
# task to the other core. On a 2-core host with BLAS on one thread, one
# 2-thread round of the benchmark's tiny_impaired_sweep input (72 impaired
# desk_tiny tasks, all four algorithms) made 8.7-9.0 k voluntary context
# switches and took 13.3-15.6 s at 5 ms, and made 2.1-2.3 k and took
# 10.3-12.2 s at 50 ms; 20, 50 and 100 ms gave the same gain within noise.
# The lock releases inside BLAS, QR and large ufuncs are not forced and do
# not change. At paper_full they let two trials overlap in some phases only:
# run on two threads against one after the other, the channel draw (a few
# whole-trial array calls) ran at 1.9x, e_wmmse at 2.0x and the row metrics
# at 1.3x, while conv_noma, hao_sca and fp ran at about 0.9x at the default
# budget (medians, same settings; README, "At paper scale").
POOL_SWITCH_INTERVAL_S = 0.05


# =====================================================================
# Plan and result types
# =====================================================================

@dataclass(frozen=True)
class ExperimentPlan:
    """One batch of paired Monte Carlo trials, optionally swept over an axis.

    sweep_axis "none" runs the scenario as configured; the other axes
    reinterpret sweep_values as, in order: the rate-vs-sensing weight split
    (alpha, 1 - alpha), the square-array side length, the phase-noise level
    in dBc, and the CSI error fraction.
    """

    config: ScenarioConfig
    algorithms: tuple
    num_trials: int
    master_seed: int
    sweep_axis: str = "none"
    sweep_values: tuple = ()

    def __post_init__(self):
        if self.num_trials < 2:
            raise ValueError("num_trials must be at least 2")
        if not self.algorithms:
            raise ValueError("algorithm list must not be empty")
        for name in self.algorithms:
            if name not in ALGORITHM_NAMES:
                raise ValueError(f"unknown algorithm {name!r}")
        if len(set(self.algorithms)) != len(self.algorithms):
            raise ValueError("algorithm list names an algorithm more than once")
        if self.sweep_axis not in SWEEP_AXES:
            raise ValueError(f"unknown sweep axis {self.sweep_axis!r}")
        if self.sweep_axis != "none" and len(self.sweep_values) == 0:
            raise ValueError("sweep grid must not be empty")

    @property
    def grid(self) -> tuple:
        """Sweep points; a single None entry when there is no sweep."""
        if self.sweep_axis == "none":
            return (None,)
        return tuple(self.sweep_values)


def make_plan(config: ScenarioConfig, sweep_axis: str = "none",
              sweep_values=(), algorithms=None, num_trials=None,
              master_seed=None) -> ExperimentPlan:
    """Plan from a config with optional overrides."""
    return ExperimentPlan(
        config=config,
        algorithms=tuple(algorithms) if algorithms is not None
        else tuple(config.experiment.algorithms),
        num_trials=int(num_trials) if num_trials is not None
        else config.experiment.trials,
        master_seed=int(master_seed) if master_seed is not None
        else config.experiment.master_seed,
        sweep_axis=sweep_axis,
        sweep_values=tuple(sweep_values),
    )


@dataclass
class TrialResult:
    """One (sweep point, algorithm, trial) outcome; all metrics on the true
    impaired channels. sinr_db carries one value per sensing target."""

    sweep_index: int
    sweep_value: float | None
    algorithm: str
    trial_index: int
    channel_hash: str
    failed: bool
    converged: bool
    monotone: bool
    iterations_used: int
    objective: float
    sum_rate: float
    sinr_db: tuple
    detection_prob: float
    crlb: float
    energy_efficiency: float
    fairness: float

    def sort_key(self):
        return (self.sweep_index, self.algorithm, self.trial_index)


# =====================================================================
# Sweep application
# =====================================================================

def apply_sweep(config: ScenarioConfig, axis: str, value) -> ScenarioConfig:
    """A copy of the config with one sweep point applied."""
    if axis == "none":
        return config
    if axis == "alpha":
        v = float(value)
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"alpha sweep value {v} outside [0, 1]")
        return replace(config,
                       weights=WeightSection(alpha1=v, alpha2=1.0 - v,
                                             alpha3=0.0, alpha4=0.0))
    if axis == "antennas":
        side = int(value)
        if side < 1:
            raise ValueError(f"antenna sweep value {value} must be >= 1")
        return replace(config,
                       geometry=replace(config.geometry, mx=side, my=side))
    if axis == "impairment":
        return replace(config,
                       impairments=replace(config.impairments,
                                           phase_noise_dbc=float(value)))
    if axis == "csi_eps":
        v = float(value)
        if not 0.0 <= v < 1.0:
            raise ValueError(f"csi_eps sweep value {v} outside [0, 1)")
        return replace(config,
                       impairments=replace(config.impairments, csi_eps=v))
    raise ValueError(f"unknown sweep axis {axis!r}")


# =====================================================================
# Trial data generation
# =====================================================================

@dataclass
class TrialData:
    """Channels and targets for one trial: true (impaired) and estimated."""

    channels_true: np.ndarray
    channels_est: np.ndarray
    targets: list
    channel_hash: str


@functools.lru_cache(maxsize=4)
def _coupling(geom: ArrayGeometry, kappa: float) -> np.ndarray:
    """coupling_matrix(geom, [kappa]), conditioning check included, formed
    once per (geometry, kappa) instead of once per trial. Every trial of a
    plan shares the array, so it is read-only."""
    c = coupling_matrix(geom, [kappa])
    c.flags.writeable = False
    return c


def _impairment_chain(cfg: ScenarioConfig, num_antennas: int,
                      rng: np.random.Generator) -> ImpairmentChain | None:
    imp = cfg.impairments
    coupling = None
    if imp.coupling_kappa != 0.0:
        coupling = _coupling(cfg.array_geometry(), imp.coupling_kappa)
    phase = None
    if imp.phase_noise_dbc > -500.0:
        phase = phase_noise_step(
            phase_noise_from_dbc(num_antennas, imp.phase_noise_dbc), rng)
    mu = None
    if math.isfinite(imp.irr_db):
        psi, g = solve_iq_for_irr(imp.irr_db)
        mu = iq_coefficients(psi, g)
    if coupling is None and phase is None and mu is None:
        return None
    return ImpairmentChain(coupling=coupling, phase_state=phase, iq_mu=mu)


def generate_trial_data(cfg: ScenarioConfig,
                        rng: np.random.Generator) -> TrialData:
    """Draw channels, targets, impairments, and CSI error for one trial.

    Draw order is fixed (shared fading component, per-user channels, targets,
    impairments, CSI noise), so a given RNG stream always produces the same
    realization.
    """
    geom = cfg.array_geometry()
    sampler = PathSampler(num_paths=cfg.channel.num_paths)
    k = cfg.population.num_users
    rho_c = cfg.channel.rho_c

    if rho_c > 0.0:
        # the shared component is drawn first, then the k private ones
        h, _, _ = draw_channels(geom, rng, k + 1, sampler)
        h = np.sqrt(rho_c) * h[0] + np.sqrt(1.0 - rho_c) * h[1:]
    else:
        h, _, _ = draw_channels(geom, rng, k, sampler)

    t = cfg.targets
    r_lo, r_hi = sampler.range_bounds(geom)
    targets = [
        SensingTarget(theta=rng.uniform(-t.theta_abs, t.theta_abs),
                      phi=rng.uniform(-t.phi_abs, t.phi_abs),
                      r=rng.uniform(r_lo, r_hi),
                      rcs=rng.uniform(t.rcs_lo, t.rcs_hi))
        for _ in range(cfg.population.num_targets)
    ]

    chain = _impairment_chain(cfg, geom.m_total, rng)
    if chain is not None:
        # effective_channel's product per user, with the cascade formed once
        t_h = chain.transform(geom.m_total).conj().T
        h_true = np.vstack([t_h @ h[i] for i in range(k)])
    else:
        h_true = h

    eps = cfg.impairments.csi_eps
    if eps > 0.0:
        h_est = np.vstack([inject_csi_error(h_true[i], eps, rng)
                           for i in range(k)])
    else:
        h_est = h_true.copy()

    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(h_true).tobytes())
    digest.update(np.ascontiguousarray(h_est).tobytes())
    digest.update(np.array([[tt.theta, tt.phi, tt.r, tt.rcs]
                            for tt in targets], dtype=float).tobytes())
    return TrialData(channels_true=h_true, channels_est=h_est,
                     targets=targets, channel_hash=digest.hexdigest()[:16])


# =====================================================================
# Per-trial solve and metric extraction
# =====================================================================

def solve_instance(algorithm: str, channels, targets, cfg: ScenarioConfig,
                   noma_solution=None, instance: SolveInstance | None = None):
    """Run one algorithm on one instance; returns (solution, trace).

    The hao_sca entry is the full two-start procedure: a run from the
    standard initialization and a run warm-started from the converged
    conventional-NOMA point, keeping whichever ends with the better
    objective. The RS problem contains the NOMA point, so the warm leg
    guarantees the RS solution never falls below the NOMA baseline.

    noma_solution, for hao_sca only, is that conventional-NOMA point when
    the caller already holds it: the solution of
    solve_instance("conv_noma", ...) on the same instance, which is the same
    deterministic solve, so passing it changes no result.

    instance is the trial's SolveInstance (trial_instance), which every
    solve of the trial shares; it is built here when not given.
    """
    if algorithm not in ALGORITHM_NAMES:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    geom = cfg.array_geometry()
    weights = cfg.objective_weights()
    limits = cfg.qos_limits()
    opt = cfg.optimizer_config()
    s2n, s2s = cfg.sigma_n2_watts, cfg.sigma_s2_watts
    instance = ensure_instance(instance, channels, targets, geom,
                               cfg.population.num_groups, limits.p_max, s2n)
    args = (channels, targets, geom, weights, limits, s2n, s2s, opt)

    if algorithm == "hao_sca":
        if noma_solution is None:
            noma_solution, _ = run_hao_sca(*args, conventional_noma=True,
                                           instance=instance)
        sol_w, tr_w = run_hao_sca(*args, warm_start=noma_solution,
                                  instance=instance)
        sol_c, tr_c = run_hao_sca(*args, instance=instance)
        if tr_c.objectives[-1] >= tr_w.objectives[-1]:
            return sol_c, tr_c
        return sol_w, tr_w
    if algorithm == "conv_noma":
        return run_hao_sca(*args, conventional_noma=True, instance=instance)
    if algorithm == "e_wmmse":
        return run_e_wmmse(*args, instance=instance)
    return run_fp(*args, instance=instance)


def trial_instance(channels, targets, cfg: ScenarioConfig) -> SolveInstance:
    """The SolveInstance of one trial's solves: its scene, stream tables,
    span basis and init_hao_sca start."""
    return ensure_instance(None, channels, targets, cfg.array_geometry(),
                           cfg.population.num_groups, cfg.p_max_watts,
                           cfg.sigma_n2_watts)


def _evaluate_trial(sol, trace, data: TrialData, scene: SensingScene,
                    cfg: ScenarioConfig, sweep_index: int, sweep_value,
                    algorithm: str, trial_index: int) -> TrialResult:
    """One row's metrics on the true channels, priced once; scene holds the
    trial's target tables, shared by its rows."""
    s2s = cfg.sigma_s2_watts
    price = price_design(sol, data.channels_true, scene,
                         cfg.objective_weights(), cfg.sigma_n2_watts, s2s)
    comps = price.components
    if data.targets:
        ev = scene.evaluation(price.echo_sinr, sol.p_sensing, s2s,
                              cfg.limits.p_fa, cfg.p_max_watts)
        sinr_db = tuple(float(x) for x in ev.sinr_db)
        det = float(np.mean(ev.detection_prob))
        crlb = float(np.mean(ev.crlb))
    else:
        sinr_db, det, crlb = (), 0.0, math.inf
    return TrialResult(
        sweep_index=sweep_index,
        sweep_value=sweep_value,
        algorithm=algorithm,
        trial_index=trial_index,
        channel_hash=data.channel_hash,
        failed=False,
        converged=bool(trace.converged),
        monotone=bool(trace.monotone),
        iterations_used=int(trace.iterations_used),
        objective=price.value,
        sum_rate=comps.sum_rate,
        sinr_db=sinr_db,
        detection_prob=det,
        crlb=crlb,
        energy_efficiency=comps.energy_efficiency,
        fairness=comps.fairness,
    )


def _failure_result(sweep_index, sweep_value, algorithm, trial_index,
                    channel_hash, num_targets) -> TrialResult:
    """A failed row: its metrics read NaN and its CRLB +inf (no estimate),
    so a consumer that forgets the failed flag sees no perfect sensing."""
    nan = math.nan
    return TrialResult(
        sweep_index=sweep_index, sweep_value=sweep_value, algorithm=algorithm,
        trial_index=trial_index, channel_hash=channel_hash, failed=True,
        converged=False, monotone=False, iterations_used=0, objective=nan,
        sum_rate=nan, sinr_db=tuple(nan for _ in range(num_targets)),
        detection_prob=nan, crlb=math.inf, energy_efficiency=nan,
        fairness=nan)


def _run_task(plan: ExperimentPlan, sweep_index: int, sweep_value,
              trial_index: int) -> list[TrialResult]:
    """All algorithms on one trial's shared channel draw (paired design)."""
    cfg = apply_sweep(plan.config, plan.sweep_axis, sweep_value)
    seed = np.random.SeedSequence((plan.master_seed, sweep_index, trial_index))
    rng = np.random.default_rng(seed)
    data = generate_trial_data(cfg, rng)
    rows = {}
    shared = {}
    failures = (ValueError, RuntimeError, np.linalg.LinAlgError)
    try:
        instance = trial_instance(data.channels_est, data.targets, cfg)
    except failures:
        # every solve starts from the instance, so every row fails
        return [_failure_result(sweep_index, sweep_value, algorithm,
                                trial_index, data.channel_hash,
                                len(data.targets))
                for algorithm in plan.algorithms]
    # conv_noma first: its solution is the warm start of hao_sca's NOMA leg
    for algorithm in sorted(plan.algorithms, key=lambda a: a != "conv_noma"):
        extra = shared if algorithm == "hao_sca" else {}
        try:
            sol, trace = solve_instance(algorithm, data.channels_est,
                                        data.targets, cfg, instance=instance,
                                        **extra)
            if algorithm == "conv_noma":
                shared["noma_solution"] = sol
            rows[algorithm] = _evaluate_trial(sol, trace, data,
                                              instance.scene, cfg,
                                              sweep_index, sweep_value,
                                              algorithm, trial_index)
        except failures:
            rows[algorithm] = _failure_result(sweep_index, sweep_value,
                                              algorithm, trial_index,
                                              data.channel_hash,
                                              len(data.targets))
    return [rows[algorithm] for algorithm in plan.algorithms]


class _PoolSwitchInterval:
    """Context manager that holds sys.setswitchinterval at least
    POOL_SWITCH_INTERVAL_S while any thread pool runs. The interval is
    process-wide, so overlapping pools share one count: the first to enter
    saves the caller's interval, and the last to leave, normally or by an
    exception, puts it back. A caller's longer interval is never lowered."""

    def __init__(self):
        self._lock = threading.Lock()
        self._active = 0
        self._saved = None

    def __enter__(self):
        with self._lock:
            if self._active == 0:
                self._saved = sys.getswitchinterval()
                if self._saved < POOL_SWITCH_INTERVAL_S:
                    sys.setswitchinterval(POOL_SWITCH_INTERVAL_S)
            self._active += 1

    def __exit__(self, *exc_info):
        with self._lock:
            self._active -= 1
            if self._active == 0 and self._saved < POOL_SWITCH_INTERVAL_S:
                # the interpreter keeps whole microseconds n and reads back
                # 1e-6 * n, which setswitchinterval can truncate to n - 1;
                # half a microsecond more puts back n exactly
                sys.setswitchinterval(self._saved + 0.5e-6)


_pool_switch_interval = _PoolSwitchInterval()


def run_experiment(plan: ExperimentPlan, threads: int = 1) -> list[TrialResult]:
    """Execute the plan; rows come back canonically sorted.

    Each (sweep point, trial) pair is an independent work unit with its own
    RNG stream, so the result list is identical for any thread count.

    With threads > 1 the tasks run on a thread pool, and while it runs the
    interpreter's switch interval (sys.setswitchinterval), which is
    process-wide, is at least POOL_SWITCH_INTERVAL_S, so a worker holds the
    interpreter lock in longer slices instead of handing the running task to
    another core every 5 ms. The caller's interval is back when the call
    returns or raises. One thread leaves the interval alone.
    """
    if threads < 1:
        raise ValueError("threads must be at least 1")
    tasks = [
        (sweep_index, sweep_value, trial)
        for sweep_index, sweep_value in enumerate(plan.grid)
        for trial in range(plan.num_trials)
    ]
    if threads == 1:
        batches = [_run_task(plan, *task) for task in tasks]
    else:
        with _pool_switch_interval, \
                ThreadPoolExecutor(max_workers=threads) as pool:
            batches = list(pool.map(lambda t: _run_task(plan, *t), tasks))
    results = [row for batch in batches for row in batch]
    results.sort(key=TrialResult.sort_key)
    return results
