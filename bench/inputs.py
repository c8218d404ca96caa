"""Workload inputs: scenario config files and synthetic result rows.

Every input is a pure function of (workload, seed). The program under test
only ever sees the files written here: a key=value scenario config for the
solver workloads, and record files for ``records_stats``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

ALGORITHMS = ("hao_sca", "e_wmmse", "fp", "conv_noma")

# The desk_small preset spelled out key by key, so the benchmark's inputs do
# not move when the program's built-in presets change.
DESK_SMALL = {
    "geometry.mx": 8,
    "geometry.my": 8,
    "geometry.spacing_over_lambda": 0.25,
    "geometry.carrier_hz": 1.0e11,
    "population.num_users": 8,
    "population.num_targets": 2,
    "population.num_groups": 4,
    "powers.p_max_dbm": 50.0,
    "powers.sigma_n_dbm": -90.0,
    "powers.sigma_s_dbm": -85.0,
    "targets.rcs_lo": 0.1,
    "targets.rcs_hi": 1.0,
    "targets.theta_abs": 1.0,
    "targets.phi_abs": 3.0,
    "channel.num_paths": 6,
    "channel.rho_c": 0.0,
    "impairments.phase_noise_dbc": -1000.0,
    "impairments.irr_db": "inf",
    "impairments.coupling_kappa": 0.0,
    "impairments.csi_eps": 0.0,
    "weights.alpha1": 0.6,
    "weights.alpha2": 0.2,
    "weights.alpha3": 0.1,
    "weights.alpha4": 0.1,
    "limits.r_min": 0.0,
    "limits.p_d_min": 0.0,
    "limits.crlb_max": "inf",
    "limits.p_fa": 1.0e-3,
    "optimizer.max_iters": 50,
    "optimizer.epsilon": 1.0e-4,
    "optimizer.inner_steps": 20,
    "optimizer.step_size": 0.1,
    "optimizer.backtrack": 0.5,
    "optimizer.max_backtracks": 8,
    "optimizer.qos_penalty": 10.0,
    "optimizer.adaptive_weights": "false",
}

DESK_TINY = {**DESK_SMALL,
             "geometry.mx": 4, "geometry.my": 4,
             "population.num_users": 4, "population.num_targets": 2,
             "population.num_groups": 2,
             "optimizer.max_iters": 25}

PAPER_FULL = {**DESK_SMALL,
              "geometry.mx": 32, "geometry.my": 32,
              "population.num_users": 64, "population.num_targets": 8,
              "population.num_groups": 16}


@dataclass(frozen=True)
class SolverWorkload:
    """A scenario config plus the CLI command that runs it."""

    name: str
    scenario: dict
    algorithms: tuple
    trials: int
    threads: int
    sweep_axis: str | None = None
    sweep_grid: tuple = ()

    @property
    def tasks_per_round(self) -> int:
        """(sweep point, trial) tasks in one run of the plan."""
        return max(1, len(self.sweep_grid)) * self.trials

    @property
    def rows_per_round(self) -> int:
        return self.tasks_per_round * len(self.algorithms)

    def config_text(self, seed: int) -> str:
        keys = dict(self.scenario)
        keys["experiment.trials"] = self.trials
        keys["experiment.master_seed"] = derived_seed(self.name, seed)
        keys["experiment.algorithms"] = ", ".join(self.algorithms)
        lines = [f"# {self.name} input for benchmark seed {seed}"]
        lines += [f"{key} = {value}" for key, value in keys.items()]
        return "\n".join(lines) + "\n"

    def cli_args(self, config_path: str, out_dir: str) -> list:
        command = "run" if self.sweep_axis is None else "sweep"
        args = [command, "--config", config_path, "--out", out_dir,
                "--threads", str(self.threads)]
        if self.sweep_axis is not None:
            args += ["--axis", self.sweep_axis,
                     "--grid", ",".join(repr(v) for v in self.sweep_grid)]
        return args

    def warm_up(self) -> "SolverWorkload":
        """The same command on a desk_tiny-sized scenario with a one-sweep
        budget: loads every code path of the workload at negligible cost."""
        scenario = {**self.scenario,
                    **{k: DESK_TINY[k] for k in (
                        "geometry.mx", "geometry.my", "population.num_users",
                        "population.num_targets", "population.num_groups")},
                    "optimizer.max_iters": 1, "optimizer.inner_steps": 2}
        grid = self.sweep_grid[:2]
        return SolverWorkload(self.name, scenario, self.algorithms, 2,
                              self.threads, self.sweep_axis, grid)


# tiny_impaired_sweep caps the optimizer at 3 sweeps instead of the preset's
# 25. How long a solve runs before its convergence test stops it depends on
# the channel draw; under the cap fp, conv_noma and e_wmmse use all three
# sweeps in nearly every solve and hao_sca about two, so the work of a
# round varies less from seed to seed (over ten seeds the evaluate calls
# of 40 tasks spread 0.058, quartile distance over median, against 0.092
# with a cap of 10), and a task is cheap enough that 72 distinct tasks fill a
# round of about 28 s on two threads, longer than a run's measured time.
# Each sweep does the same work as at the preset budget.
SOLVER_WORKLOADS = {
    "tiny_impaired_sweep": SolverWorkload(
        "tiny_impaired_sweep",
        {**DESK_TINY,
         "impairments.coupling_kappa": 0.1,
         "impairments.irr_db": 25.0,
         "impairments.phase_noise_dbc": -25.0,
         "optimizer.max_iters": 3},
        ALGORITHMS, trials=18, threads=2,
        sweep_axis="csi_eps", sweep_grid=(0.0, 0.05, 0.1, 0.2)),
    "paper_slice": SolverWorkload(
        "paper_slice", {**PAPER_FULL, "optimizer.max_iters": 1},
        ("hao_sca",), trials=2, threads=2),
}


def derived_seed(workload: str, seed: int) -> int:
    """A 32-bit master seed tied to both the workload and the bench seed."""
    return random.Random(f"{workload}:{seed}").getrandbits(32)


# =====================================================================
# Synthetic result rows for records_stats
# =====================================================================

@dataclass(frozen=True)
class RecordsWorkload:
    """Seeded synthetic result rows at the paper's trial count."""

    name: str = "records_stats"
    trials: int = 5000
    sweep_values: tuple = (0.0, 0.1, 0.2)
    algorithms: tuple = ALGORITHMS
    num_targets: int = 2
    threads: int = 1

    @property
    def rows_per_round(self) -> int:
        return self.trials * len(self.sweep_values) * len(self.algorithms)

    @property
    def tasks_per_round(self) -> int:
        return self.trials * len(self.sweep_values)

    def warm_up(self) -> "RecordsWorkload":
        return RecordsWorkload(self.name, trials=20,
                               sweep_values=self.sweep_values[:2])


RECORDS_WORKLOAD = RecordsWorkload()

# Mean offset of each algorithm's objective from the shared per-trial level
# (paired design). hao_sca is conv_noma plus a nonnegative gain that is
# exactly zero on about half the trials, as the two-start solver gives on
# real channels.
_OFFSETS = {"e_wmmse": -18.0, "fp": -2.5, "conv_noma": -1.2}


def synthetic_rows(spec: RecordsWorkload, seed: int, trial_result,
                   baseline: bool = False):
    """Canonically sorted TrialResult rows drawn from the seed.

    trial_result is the program's row type. baseline=True gives an
    independent draw shifted down a little, a plausible earlier run to
    compare against.
    """
    rng = np.random.default_rng([derived_seed(spec.name, seed), baseline])
    shift = -0.4 if baseline else 0.0
    n_sweep, n_trial = len(spec.sweep_values), spec.trials
    level = rng.normal(60.0, 8.0, size=(n_sweep, n_trial))
    hashes = rng.integers(0, 2**63, size=(n_sweep, n_trial))
    rows = []
    for s, sweep_value in enumerate(spec.sweep_values):
        objectives = {}
        for alg in sorted(spec.algorithms):     # conv_noma before hao_sca
            if alg == "hao_sca":
                gain = np.abs(rng.normal(0.0, 2.5, size=n_trial))
                objective = objectives["conv_noma"] \
                    + gain * (rng.random(n_trial) < 0.5)
            else:
                objective = level[s] - 4.0 * sweep_value + _OFFSETS[alg] \
                    + rng.normal(0.0, 2.0, size=n_trial) + shift
            objectives[alg] = objective
            sum_rate = 1.3 * objective + rng.normal(0.0, 1.0, size=n_trial)
            sinr_db = rng.normal(10.0, 6.0, size=(n_trial, spec.num_targets))
            det = rng.uniform(0.5, 1.0, size=n_trial)
            crlb = rng.lognormal(-14.0, 1.0, size=n_trial)
            fair = rng.uniform(0.3, 1.0, size=n_trial)
            iters = rng.integers(1, 51, size=n_trial)
            converged = rng.random(n_trial) < 0.4
            for t in range(n_trial):
                rows.append(trial_result(
                    sweep_index=s, sweep_value=float(sweep_value),
                    algorithm=alg, trial_index=t,
                    channel_hash=f"{int(hashes[s, t]):016x}", failed=False,
                    converged=bool(converged[t]), monotone=True,
                    iterations_used=int(iters[t]),
                    objective=float(objective[t]),
                    sum_rate=float(sum_rate[t]),
                    sinr_db=tuple(float(v) for v in sinr_db[t]),
                    detection_prob=float(det[t]), crlb=float(crlb[t]),
                    energy_efficiency=float(sum_rate[t] / 100.0),
                    fairness=float(fair[t])))
    return rows
