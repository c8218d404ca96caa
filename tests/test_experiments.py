import hashlib
import math
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

import holo_isac.experiments as experiments
import holo_isac.optimizers as optimizers
from holo_isac.config import ALGORITHM_NAMES as ALGORITHMS
from holo_isac.config import preset_config
from holo_isac.impairments import coupling_matrix, effective_channel
from holo_isac.rates import Grouping
from holo_isac.records import format_record, write_records
from holo_isac.experiments import (
    ExperimentPlan,
    TrialResult,
    apply_sweep,
    generate_trial_data,
    make_plan,
    run_experiment,
    solve_instance,
)
from oracles import loop_trial_data


def tiny_config(trials=2, algorithms=("fp", "conv_noma")):
    cfg = preset_config("desk_tiny")
    cfg.optimizer.max_iters = 2
    cfg.optimizer.inner_steps = 4
    cfg.experiment.trials = trials
    cfg.experiment.algorithms = tuple(algorithms)
    return cfg


def trial_rng(master_seed, sweep_index, trial_index):
    return np.random.default_rng(
        np.random.SeedSequence((master_seed, sweep_index, trial_index)))


def impaired_config(trials=2, algorithms=("fp", "conv_noma")):
    cfg = tiny_config(trials, algorithms)
    cfg.impairments.coupling_kappa = 0.1
    cfg.impairments.irr_db = 25.0
    cfg.impairments.phase_noise_dbc = -25.0
    cfg.impairments.csi_eps = 0.1
    return cfg


# =====================================================================
# Plans
# =====================================================================

def test_plan_validation():
    cfg = tiny_config()
    with pytest.raises(ValueError):
        ExperimentPlan(cfg, ("fp",), num_trials=1, master_seed=1)
    with pytest.raises(ValueError):
        ExperimentPlan(cfg, (), num_trials=2, master_seed=1)
    with pytest.raises(ValueError):
        ExperimentPlan(cfg, ("nope",), num_trials=2, master_seed=1)
    with pytest.raises(ValueError):
        ExperimentPlan(cfg, ("fp",), num_trials=2, master_seed=1,
                       sweep_axis="bogus")
    with pytest.raises(ValueError):
        ExperimentPlan(cfg, ("fp",), num_trials=2, master_seed=1,
                       sweep_axis="alpha", sweep_values=())
    # every sweep point is applied and validated before any trial runs
    for axis, grid in (("alpha", (0.5, -0.1)), ("csi_eps", (0.1, 1.0)),
                       ("antennas", (4.0, 4.5))):
        with pytest.raises(ValueError, match=f"sweep {axis} = "):
            ExperimentPlan(cfg, ("fp",), num_trials=2, master_seed=1,
                           sweep_axis=axis, sweep_values=grid)
    cfg.geometry.mx = 0
    with pytest.raises(ValueError, match="geometry.mx"):
        ExperimentPlan(cfg, ("fp",), num_trials=2, master_seed=1)


def test_plan_grid_property():
    cfg = tiny_config()
    flat = ExperimentPlan(cfg, ("fp",), num_trials=2, master_seed=1)
    assert flat.grid == (None,)
    swept = ExperimentPlan(cfg, ("fp",), num_trials=2, master_seed=1,
                           sweep_axis="alpha", sweep_values=(0.2, 0.8))
    assert swept.grid == (0.2, 0.8)


def test_make_plan_falls_back_to_config():
    cfg = tiny_config(trials=7, algorithms=("fp",))
    cfg.experiment.master_seed = 99
    plan = make_plan(cfg)
    assert plan.num_trials == 7
    assert plan.algorithms == ("fp",)
    assert plan.master_seed == 99
    override = make_plan(cfg, num_trials=3, master_seed=5,
                         algorithms=["conv_noma"])
    assert (override.num_trials, override.master_seed) == (3, 5)
    assert override.algorithms == ("conv_noma",)


# =====================================================================
# Sweep application
# =====================================================================

def test_apply_sweep_axes():
    cfg = tiny_config()
    a = apply_sweep(cfg, "alpha", 0.3)
    assert a.weights.alpha1 == pytest.approx(0.3)
    assert a.weights.alpha2 == pytest.approx(0.7)
    assert a.weights.alpha3 == 0.0
    ant = apply_sweep(cfg, "antennas", 6)
    assert ant.geometry.mx == ant.geometry.my == 6
    imp = apply_sweep(cfg, "impairment", -40.0)
    assert imp.impairments.phase_noise_dbc == -40.0
    eps = apply_sweep(cfg, "csi_eps", 0.15)
    assert eps.impairments.csi_eps == 0.15
    assert apply_sweep(cfg, "none", None) is cfg
    # the original instance is never mutated
    assert cfg.weights.alpha1 == 0.6
    assert cfg.impairments.csi_eps == 0.0


def test_apply_sweep_rejects_bad_values():
    # apply_sweep refuses what no config can hold; validate checks ranges
    cfg = tiny_config()
    for axis, value in (("alpha", 1.2), ("alpha", math.nan),
                        ("antennas", 0), ("impairment", math.inf),
                        ("csi_eps", 1.0)):
        with pytest.raises(ValueError):
            apply_sweep(cfg, axis, value).validate()
    for value in (4.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="whole number"):
            apply_sweep(cfg, "antennas", value)
    with pytest.raises(ValueError):
        apply_sweep(cfg, "diagonal", 1.0)


# =====================================================================
# Trial data
# =====================================================================

def test_trial_data_shapes_and_determinism():
    cfg = tiny_config()
    d1 = generate_trial_data(cfg, trial_rng(7, 0, 3))
    d2 = generate_trial_data(cfg, trial_rng(7, 0, 3))
    k = cfg.population.num_users
    m = cfg.geometry.mx * cfg.geometry.my
    assert d1.channels_true.shape == (k, m)
    assert len(d1.targets) == cfg.population.num_targets
    assert len(d1.channel_hash) == 16
    assert np.array_equal(d1.channels_true, d2.channels_true)
    assert d1.channel_hash == d2.channel_hash
    d3 = generate_trial_data(cfg, trial_rng(7, 0, 4))
    assert d3.channel_hash != d1.channel_hash


def test_perfect_csi_copies_channels():
    cfg = tiny_config()
    d = generate_trial_data(cfg, trial_rng(11, 0, 0))
    assert np.array_equal(d.channels_est, d.channels_true)
    assert d.channels_est is not d.channels_true


def test_csi_noise_leaves_true_channels_paired():
    # the CSI draw happens after everything else, so two configs that differ
    # only in csi_eps see identical true channels under the same stream
    clean = tiny_config()
    noisy = tiny_config()
    noisy.impairments.csi_eps = 0.3
    for trial in range(3):
        a = generate_trial_data(clean, trial_rng(21, 0, trial))
        b = generate_trial_data(noisy, trial_rng(21, 0, trial))
        assert np.array_equal(a.channels_true, b.channels_true)
        assert [(t.theta, t.r) for t in a.targets] == \
            [(t.theta, t.r) for t in b.targets]
        assert not np.array_equal(b.channels_est, b.channels_true)
        err = np.linalg.norm(b.channels_est - b.channels_true) \
            / np.linalg.norm(b.channels_true)
        assert err == pytest.approx(0.3, rel=1e-9)


def test_impaired_draw_matches_the_per_user_effective_channel():
    cfg = impaired_config()
    plain = tiny_config()
    for trial in range(3):
        data = generate_trial_data(cfg, trial_rng(23, 0, trial))
        # the clean draw consumes the stream up to the impairments, which
        # are then drawn from where generate_trial_data draws them
        rng = trial_rng(23, 0, trial)
        h = generate_trial_data(plain, rng).channels_true
        chain = experiments._impairment_chain(cfg, h.shape[1], rng)
        assert data.channels_true.tobytes() == \
            effective_channel(h, chain).tobytes()
    geom = cfg.array_geometry()
    c = experiments._coupling(geom, 0.1)
    assert experiments._coupling(geom, 0.1) is c
    assert not c.flags.writeable
    assert np.array_equal(c, coupling_matrix(geom, [0.1]))


def trial_case(name):
    """tiny_config with one feature of the trial draw switched on."""
    cfg = impaired_config() if name == "impaired" else tiny_config()
    if name == "shared":
        cfg.channel.rho_c = 0.3
        cfg.impairments.csi_eps = 0.05
    elif name == "csi":
        cfg.impairments.csi_eps = 0.2
    elif name == "one_user_one_path":
        cfg.population.num_users = cfg.population.num_groups = 1
        cfg.channel.num_paths = 1
    elif name == "no_targets":
        cfg.population.num_targets = 0
    elif name == "many_users":
        cfg.population.num_users = 20
    return cfg


@pytest.mark.parametrize("case", ["plain", "shared", "impaired", "csi",
                                  "one_user_one_path", "no_targets",
                                  "many_users"])
def test_trial_draw_equals_the_per_user_loop(case):
    cfg = trial_case(case)
    for trial in range(3):
        data = generate_trial_data(cfg, trial_rng(61, 0, trial))
        loop = loop_trial_data(cfg, trial_rng(61, 0, trial))
        assert data.channels_true.tobytes() == loop.channels_true.tobytes()
        assert data.channels_est.tobytes() == loop.channels_est.tobytes()
        assert data.targets == loop.targets
        assert data.channel_hash == loop.channel_hash


def test_shared_component_raises_user_correlation():
    plain = tiny_config()
    mixed = tiny_config()
    mixed.channel.rho_c = 0.9
    def mean_corr(cfg, seed):
        vals = []
        for trial in range(20):
            h = generate_trial_data(cfg, trial_rng(seed, 0, trial)).channels_true
            hn = h / np.linalg.norm(h, axis=1)[:, None]
            c = np.abs(hn.conj() @ hn.T)
            iu = np.triu_indices_from(c, k=1)
            vals.append(c[iu].mean())
        return np.mean(vals)
    assert mean_corr(mixed, 31) > mean_corr(plain, 31) + 0.2


# =====================================================================
# Instance solving
# =====================================================================

def test_solve_instance_all_algorithms():
    cfg = tiny_config()
    data = generate_trial_data(cfg, trial_rng(41, 0, 0))
    for name in ("hao_sca", "e_wmmse", "fp", "conv_noma"):
        sol, trace = solve_instance(name, data.channels_est, data.targets, cfg)
        assert sol.total_power() <= cfg.p_max_watts * (1.0 + 1e-9)
        assert trace.iterations_used >= 1
    with pytest.raises(ValueError):
        solve_instance("gradient_descent", data.channels_est, data.targets, cfg)


def test_split_solver_never_below_frozen_baseline():
    cfg = tiny_config()
    cfg.optimizer.max_iters = 4
    data = generate_trial_data(cfg, trial_rng(43, 0, 1))
    _, tr_rs = solve_instance("hao_sca", data.channels_est, data.targets, cfg)
    _, tr_noma = solve_instance("conv_noma", data.channels_est, data.targets, cfg)
    assert tr_rs.objectives[-1] >= tr_noma.objectives[-1] - 1e-9


# =====================================================================
# Batch driver
# =====================================================================

def test_run_experiment_rows_and_order():
    cfg = tiny_config(trials=2)
    plan = make_plan(cfg, sweep_axis="csi_eps", sweep_values=(0.0, 0.2))
    rows = run_experiment(plan)
    assert len(rows) == 2 * 2 * 2  # sweep points x algorithms x trials
    keys = [r.sort_key() for r in rows]
    assert keys == sorted(keys)
    # paired design: every algorithm at one (sweep, trial) sees the same draw
    by_cell = {}
    for r in rows:
        by_cell.setdefault((r.sweep_index, r.trial_index), set()).add(r.channel_hash)
    assert all(len(hashes) == 1 for hashes in by_cell.values())
    assert all(not r.failed for r in rows)


def test_run_experiment_thread_invariance():
    cfg = tiny_config(trials=3, algorithms=("fp",))
    plan = make_plan(cfg)
    serial = run_experiment(plan, threads=1)
    threaded = run_experiment(plan, threads=3)
    assert serial == threaded
    with pytest.raises(ValueError):
        run_experiment(plan, threads=0)


def test_small_array_many_user_records_identical_across_thread_counts(
        tmp_path):
    # M = 16 antennas and 20 users: the draw's chunks hold three users each
    cfg = trial_case("many_users")
    cfg.population.num_groups = 4
    plan = make_plan(cfg, algorithms=ALGORITHMS)
    written = []
    for threads in (1, 2):
        rows = run_experiment(plan, threads=threads)
        assert len(rows) == 2 * 4 and not any(r.failed for r in rows)
        path = tmp_path / f"threads{threads}.records"
        write_records(rows, path)
        written.append(path.read_bytes())
    assert written[0] == written[1]


def test_impaired_sweep_records_identical_across_thread_counts(tmp_path):
    # the benchmark's path: all four algorithms, impairments, a csi_eps sweep
    plan = make_plan(impaired_config(algorithms=ALGORITHMS),
                     sweep_axis="csi_eps", sweep_values=(0.0, 0.1))
    written = []
    for threads in (1, 2):
        rows = run_experiment(plan, threads=threads)
        assert len(rows) == 2 * 2 * 4 and not any(r.failed for r in rows)
        path = tmp_path / f"threads{threads}.records"
        write_records(rows, path)
        written.append(path.read_bytes())
    assert written[0] == written[1]


# =====================================================================
# Switch interval while a thread pool runs
# =====================================================================

def microseconds(interval):
    """The interpreter keeps the switch interval in whole microseconds."""
    return round(interval * 1e6)


@pytest.fixture
def caller_interval():
    """Sets a caller's switch interval of 5 ms and restores the one before."""
    before = sys.getswitchinterval()
    sys.setswitchinterval(0.005)
    try:
        yield sys.getswitchinterval()
    finally:
        sys.setswitchinterval(before)


@pytest.fixture
def seen_intervals(monkeypatch):
    """Replaces each task by one that records the switch interval it sees."""
    seen = []

    def record(plan, sweep_index, sweep_value, trial_index):
        seen.append(sys.getswitchinterval())
        return []

    monkeypatch.setattr(experiments, "_run_task", record)
    return seen


def test_pool_holds_long_switch_slices_and_restores_the_callers(
        caller_interval, seen_intervals):
    plan = make_plan(tiny_config(trials=4))
    assert run_experiment(plan, threads=2) == []
    assert len(seen_intervals) == 4
    assert min(microseconds(x) for x in seen_intervals) >= 50_000
    assert sys.getswitchinterval() == caller_interval
    # one thread leaves the interval alone
    seen_intervals.clear()
    run_experiment(plan, threads=1)
    assert seen_intervals == [caller_interval] * 4
    assert sys.getswitchinterval() == caller_interval


def test_pool_restores_the_exact_interval(caller_interval, seen_intervals):
    # 1001 us, which setswitchinterval(getswitchinterval()) lowers to 1000 us
    sys.setswitchinterval(0.0010015)
    caller = sys.getswitchinterval()
    assert microseconds(caller) == 1001
    run_experiment(make_plan(tiny_config(trials=2)), threads=2)
    assert sys.getswitchinterval() == caller


def test_pool_keeps_a_longer_interval(caller_interval, seen_intervals):
    sys.setswitchinterval(0.2)
    caller = sys.getswitchinterval()
    run_experiment(make_plan(tiny_config(trials=2)), threads=2)
    assert seen_intervals == [caller] * 2
    assert sys.getswitchinterval() == caller


def test_pool_restores_the_callers_interval_when_a_task_raises(
        caller_interval, monkeypatch):
    def blow_up(plan, sweep_index, sweep_value, trial_index):
        raise RuntimeError("synthetic task failure")

    monkeypatch.setattr(experiments, "_run_task", blow_up)
    with pytest.raises(RuntimeError, match="synthetic"):
        run_experiment(make_plan(tiny_config(trials=2)), threads=2)
    assert sys.getswitchinterval() == caller_interval


def test_overlapping_pools_restore_the_callers_interval_once_both_end(
        caller_interval, monkeypatch):
    # every task of both runs meets at the barrier, so the two pools overlap;
    # run 2's tasks then wait until run 1 has returned
    met = threading.Barrier(4, timeout=30)
    first_done = threading.Event()
    late = []

    def task(plan, sweep_index, sweep_value, trial_index):
        met.wait()
        if plan.master_seed == 2:
            assert first_done.wait(timeout=30)
            late.append(sys.getswitchinterval())
        return []

    monkeypatch.setattr(experiments, "_run_task", task)
    cfg = tiny_config(trials=2)

    def run(seed):
        run_experiment(make_plan(cfg, master_seed=seed), threads=2)
        if seed == 1:
            first_done.set()

    runs = [threading.Thread(target=run, args=(seed,)) for seed in (1, 2)]
    for t in runs:
        t.start()
    for t in runs:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in runs)
    # the first run's end left the second's slices in place
    assert len(late) == 2
    assert min(microseconds(x) for x in late) >= 50_000
    assert sys.getswitchinterval() == caller_interval


def test_run_experiment_survives_solver_failure(monkeypatch):
    cfg = tiny_config(trials=2)
    plan = make_plan(cfg)
    real = solve_instance

    def flaky(algorithm, channels, targets, config, **kwargs):
        if algorithm == "conv_noma":
            raise RuntimeError("synthetic solver blowup")
        return real(algorithm, channels, targets, config, **kwargs)

    monkeypatch.setattr(experiments, "solve_instance", flaky)
    rows = run_experiment(plan)
    assert len(rows) == 4
    bad = [r for r in rows if r.algorithm == "conv_noma"]
    good = [r for r in rows if r.algorithm == "fp"]
    assert all(r.failed for r in bad)
    # a failed row carries no metric: NaN everywhere, and no CRLB estimate
    for r in bad:
        assert not r.converged and r.crlb == math.inf
        assert all(math.isnan(x) for x in (
            r.objective, r.sum_rate, r.detection_prob, r.energy_efficiency,
            r.fairness, *r.sinr_db))
        assert len(r.sinr_db) == cfg.population.num_targets
    assert all(not r.failed for r in good)


def test_shared_noma_solve_leaves_each_algorithm_rows_unchanged(monkeypatch):
    cfg = impaired_config(trials=2)
    legs = []
    real = experiments.run_hao_sca

    def counted(*args, **kwargs):
        legs.append(kwargs.get("conventional_noma", False))
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, "run_hao_sca", counted)
    both = run_experiment(make_plan(cfg, algorithms=("hao_sca", "conv_noma")))
    # one NOMA solve per trial, shared by the conv_noma row and hao_sca
    assert legs.count(True) == 2 and len(legs) == 6
    for algorithm in ("hao_sca", "conv_noma"):
        alone = run_experiment(make_plan(cfg, algorithms=(algorithm,)))
        shared = [r for r in both if r.algorithm == algorithm]
        assert [format_record(r) for r in shared] == \
            [format_record(r) for r in alone]


def instance_digest(instance) -> str:
    """sha256 over the shared start, its span coordinates and the span
    basis of a SolveInstance."""
    start = instance.start
    digest = hashlib.sha256()
    for a in (start.w_common, start.w_private, start.w_sensing,
              start.p_common, start.p_private, np.float64(start.p_sensing),
              start.rho, start.grouping.assignment, instance.start_beams,
              *instance.start_span, *instance.span):
        digest.update(np.ascontiguousarray(a).tobytes())
    digest.update(repr(start.grouping.sic_order).encode())
    return digest.hexdigest()


def test_a_trials_solves_share_one_instance_and_leave_it_unchanged():
    """Each solve gives on an instance of its own the solution and trace it
    gives on the shared one, hao_sca with the warm start of a conv_noma
    solve on another instance, whose grouping equals the shared one in
    value only. A warm start whose grouping differs in value raises."""
    cfg = impaired_config(algorithms=ALGORITHMS)
    data = generate_trial_data(cfg, trial_rng(47, 0, 0))
    args = (data.channels_est, data.targets, cfg)
    instance = experiments.trial_instance(*args)
    before = instance_digest(instance)
    noma, _ = solve_instance("conv_noma", *args, instance=instance)
    noma_apart, _ = solve_instance("conv_noma", *args)
    assert noma_apart.grouping is not instance.grouping
    for algorithm in ALGORITHMS:
        shared = solve_instance(algorithm, *args, noma_solution=noma,
                                instance=instance)
        alone = solve_instance(algorithm, *args, noma_solution=noma_apart)
        assert design_bytes(*shared) == design_bytes(*alone)
    assert instance_digest(instance) == before
    grouping = noma.grouping
    flipped = replace(noma, grouping=Grouping(
        grouping.assignment, [order[::-1] for order in grouping.sic_order]))
    with pytest.raises(ValueError, match="different groupings"):
        solve_instance("hao_sca", *args, noma_solution=flipped,
                       instance=instance)


def design_bytes(sol, trace) -> tuple:
    """The bytes of a solve's beams, powers, split and trace values."""
    return (sol.stacked_beams().tobytes(), sol.stacked_powers().tobytes(),
            sol.rho.tobytes(), trace.objectives.tobytes())


def test_a_task_builds_one_start_and_one_span_basis(monkeypatch):
    """Four desk_tiny trials (master seed 7, all four algorithms) build one
    start and one span basis each and enter the span 8 times: the start's
    coordinates and the warm hao_sca leg's, once per trial. They form
    M-wide stream gains 104 times, all in e_wmmse's evaluations; no
    block-ascent solve forms them."""
    counts = {}

    def counted(name, real):
        def spy(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        counts[name] = 0
        return spy

    for owner, name in ((optimizers, "init_hao_sca"), (np.linalg, "qr"),
                        (optimizers, "_span_coordinates"),
                        (optimizers.SolveInstance, "gains")):
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    rows = run_experiment(make_plan(preset_config("desk_tiny"),
                                    num_trials=4, master_seed=7))
    assert len(rows) == 16 and not any(r.failed for r in rows)
    assert counts == {"init_hao_sca": 4, "qr": 4, "_span_coordinates": 8,
                      "gains": 104}


def test_result_sort_key():
    r = TrialResult(1, 0.5, "fp", 3, "abc", False, True, True, 4,
                    1.0, 2.0, (3.0,), 0.9, 1e-4, 0.01, 0.8)
    assert r.sort_key() == (1, "fp", 3)
