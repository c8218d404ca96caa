import functools
from dataclasses import replace

import numpy as np
import pytest

import holo_isac.optimizers as optimizers
from holo_isac.channel import SensingTarget
from holo_isac.config import preset_config
from holo_isac.experiments import (generate_trial_data, solve_instance,
                                   trial_instance)
from holo_isac.geometry import ArrayGeometry
from holo_isac.objective import (
    ObjectiveWeights,
    QosLimits,
    composite_objective,
)
from holo_isac.optimizers import (
    ConvergenceTrace,
    OptimizerConfig,
    SolveInstance,
    adaptive_weights,
    _EvalContext,
    _loaded_solve,
    init_hao_sca,
    run_e_wmmse,
    run_fp,
    run_hao_sca,
    sca_surrogate_gamma,
)
from holo_isac.rates import (Grouping, RsNomaSolution, rate_breakdown,
                             stream_rates)
from holo_isac.sensing import SensingScene
from oracles import (GatherTables, e_wmmse_mse_weight,
                     e_wmmse_receive_filter, feasible, gather_beam_coefficients,
                     gather_group_sums, gather_power_gradient_rates,
                     gather_stream_rates, golden_rho_block,
                     loop_e_wmmse_sweep, m_space_beam_gradient,
                     sequential_power_block)

SIGMA_N2 = 1e-12
SIGMA_S2 = 10.0 ** (-11.5)
P_MAX = 100.0


def desk_geom():
    lam = 3.0e-3
    return ArrayGeometry(mx=4, my=4, dx=lam / 4, dy=lam / 4, wavelength=lam)


def start_instance(channels, targets, geom):
    """The SolveInstance of the two-group init_hao_sca start at P_MAX."""
    return SolveInstance.from_start(channels, targets, geom, 2, P_MAX, SIGMA_N2)


def start_entry(channels, targets, geom, weights, limits):
    """(ctx, w, p, rho) at the start of start_instance, penalty 10."""
    ctx = _EvalContext(start_instance(channels, targets, geom), weights, limits,
                       SIGMA_N2, SIGMA_S2, 10.0)
    sol = ctx.instance.start
    return ctx, sol.stacked_beams(), sol.stacked_powers(), sol.rho.copy()


def build_problem(seed=41, k=4):
    """Synthetic instance at desk scales (channel entries ~ 1e-4)."""
    rng = np.random.default_rng(seed)
    geom = desk_geom()
    m = geom.m_total
    channels = 1e-4 * (rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m)))
    targets = [SensingTarget(theta=0.3, phi=0.6, r=0.5, rcs=0.5),
               SensingTarget(theta=-0.4, phi=-0.9, r=0.7, rcs=1.0)]
    weights = ObjectiveWeights(0.6, 0.2, 0.1, 0.1)
    limits = QosLimits(p_max=P_MAX)
    return channels, targets, geom, weights, limits


# =====================================================================
# Config and trace plumbing
# =====================================================================

def test_optimizer_config_validation():
    OptimizerConfig(max_iters=1, inner_steps=0)
    with pytest.raises(ValueError):
        OptimizerConfig(max_iters=0)
    with pytest.raises(ValueError):
        OptimizerConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        OptimizerConfig(backtrack=1.0)


def test_trace_monotone_property():
    up = ConvergenceTrace(np.array([1.0, 2.0, 3.0]), 2, True)
    assert up.monotone
    dip = ConvergenceTrace(np.array([1.0, 2.0, 1.5]), 2, True)
    assert not dip.monotone
    jitter = ConvergenceTrace(np.array([1.0, 1.0 - 5e-10]), 1, True)
    assert jitter.monotone


# =====================================================================
# SCA surrogate
# =====================================================================

def test_surrogate_tight_at_anchor():
    rng = np.random.default_rng(42)
    for _ in range(20):
        m = 8
        h = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        w = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        interf = float(rng.uniform(0.0, 5.0))
        s2 = 0.3
        true = np.abs(np.vdot(h, w)) ** 2 / (interf + s2)
        sur = sca_surrogate_gamma(w, w, h, interf, s2)
        assert sur == pytest.approx(true, rel=1e-12)


def test_surrogate_is_global_minorant():
    rng = np.random.default_rng(43)
    for _ in range(200):
        m = 6
        h = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        w = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        w0 = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        interf = float(rng.uniform(0.0, 4.0))
        s2 = 0.5
        true = np.abs(np.vdot(h, w)) ** 2 / (interf + s2)
        sur = sca_surrogate_gamma(w, w0, h, interf, s2)
        assert sur <= true + 1e-12


def test_surrogate_validation():
    h = np.ones(3, dtype=complex)
    with pytest.raises(ValueError):
        sca_surrogate_gamma(h, h, h, -1.0, 1.0)
    with pytest.raises(ValueError):
        sca_surrogate_gamma(h, h, h, 1.0, 0.0)


# =====================================================================
# Initialization
# =====================================================================

def test_init_structure():
    channels, targets, geom, _, limits = build_problem()
    sol = init_hao_sca(channels, targets, geom, 2, limits.p_max, SIGMA_N2)
    beams = sol.stacked_beams()
    assert np.allclose(np.linalg.norm(beams, axis=1), 1.0, atol=1e-12)
    assert sol.total_power() == pytest.approx(limits.p_max, rel=1e-12)
    assert np.all(sol.rho == 0.5)
    assert sol.w_common.shape == (2, geom.m_total)


def test_init_single_user_private_is_matched_filter():
    rng = np.random.default_rng(44)
    geom = desk_geom()
    h = 1e-4 * (rng.standard_normal((1, 16)) + 1j * rng.standard_normal((1, 16)))
    targets = [SensingTarget(theta=0.1, phi=0.2, r=0.5, rcs=1.0)]
    sol = init_hao_sca(h, targets, geom, 1, P_MAX, SIGMA_N2)
    # no other users to suppress, so the MMSE direction collapses onto h
    cos = np.abs(np.vdot(sol.w_private[0], h[0])) / np.linalg.norm(h[0])
    assert cos == pytest.approx(1.0, rel=1e-10)


def test_init_private_directions_match_a_well_conditioned_solve():
    # desk_tiny with every impairment on: each dense leave-one-out matrix
    # sum_{j != k} h_j h_j^H + delta I has a condition number near 1e15 here
    cfg = preset_config("desk_tiny")
    cfg.impairments.coupling_kappa = 0.1
    cfg.impairments.irr_db = 25.0
    cfg.impairments.phase_noise_dbc = -25.0
    data = generate_trial_data(cfg, np.random.default_rng(7))
    h = data.channels_est
    sol = init_hao_sca(h, data.targets, cfg.array_geometry(),
                       cfg.population.num_groups, cfg.p_max_watts,
                       cfg.sigma_n2_watts)
    # reference on the channel scaled to unit Frobenius norm, via Woodbury:
    # (U U^H + delta I)^-1 h_k = (h_k - U (U^H U + delta I)^-1 U^H h_k) / delta
    scale = np.linalg.norm(h)
    hs = h / scale
    delta = cfg.sigma_n2_watts / cfg.p_max_watts / scale**2
    k_total = h.shape[0]
    for k in range(k_total):
        others = np.delete(hs, k, axis=0)
        inner = others.conj() @ others.T + delta * np.eye(k_total - 1)
        ref = hs[k] - others.T @ np.linalg.solve(inner, others.conj() @ hs[k])
        ref /= np.linalg.norm(ref)
        assert np.max(np.abs(sol.w_private[k] - ref)) < 1e-12


def test_loaded_solve_push_through_matches_the_dense_system():
    rng = np.random.default_rng(53)
    for k, m in ((3, 8), (8, 3)):
        h = rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m))
        coefs = rng.uniform(0.1, 2.0, k)
        x = rng.standard_normal((k, 2)) + 1j * rng.standard_normal((k, 2))
        dense = (h.T * coefs) @ h.conj() + 0.3 * np.eye(m)
        ref = np.linalg.solve(dense, h.T @ x).T
        gram = h.conj() @ h.T
        assert np.allclose(_loaded_solve(h, gram, coefs, 0.3, x), ref,
                           rtol=1e-12, atol=1e-12)
        # stacked systems: each the lone system's solve
        stack = _loaded_solve(h, gram, np.stack((coefs, 2.0 * coefs)), 0.3,
                              np.stack((x, x[::-1])))
        for got, c, b in zip(stack, (coefs, 2.0 * coefs), (x, x[::-1])):
            assert np.allclose(got, _loaded_solve(h, gram, c, 0.3, b),
                               rtol=1e-12, atol=1e-12)


# =====================================================================
# Evaluation core
# =====================================================================

def test_reprice_equals_evaluate_bit_for_bit():
    channels, targets, geom, weights, _ = build_problem(seed=54)
    limits = QosLimits(p_max=P_MAX, r_min=2.0, p_d_min=0.9, crlb_max=1e-6)
    ctx, w, p, rho = start_entry(channels, targets, geom, weights, limits)
    _, aux = ctx.evaluate(w, p, rho)
    rng = np.random.default_rng(55)
    for _ in range(50):
        cand = rng.uniform(0.0, 1.0, ctx.k_total)
        cand[rng.uniform(size=ctx.k_total) < 0.2] = 0.0
        f_full, aux_full = ctx.evaluate(w, p, cand)
        f_cheap, aux_cheap = ctx.reprice(aux, ctx.shares(cand))
        assert f_cheap == f_full
        assert aux_cheap["penalty"] == aux_full["penalty"]
        assert np.array_equal(aux_cheap["total_rate"], aux_full["total_rate"])
        # and the split is the one rate_breakdown prices
        bd = rate_breakdown(ctx.build_solution(w, p, cand), channels, SIGMA_N2)
        assert np.allclose(aux_full["total_rate"], bd.total_rate, rtol=1e-12,
                           atol=0.0)


def test_other_group_commons_do_not_cancel_against_the_own_common():
    # user 0 hears its own group's common 1e18 times louder than the other
    # group's; "all commons minus own" would round the other group's term away
    grouping = Grouping(assignment=[0, 1], sic_order=[[0], [1]])
    channels = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
    sol = RsNomaSolution(
        grouping=grouping,
        w_common=np.array([[1.0, 0.0], [1.0, 1.0]], dtype=complex) / [[1.0], [np.sqrt(2.0)]],
        w_private=np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex),
        w_sensing=np.array([0.0, 1.0], dtype=complex),
        p_common=np.array([1e18, 2.0]),
        p_private=np.array([1.0, 1.0]),
        p_sensing=1.0,
        rho=np.array([1.0, 1.0]),
    )
    # user 0 private stage: other group's common (0.5 * 2) + noise 1
    expected = 1.0 / (1.0 + 1.0)
    bd = rate_breakdown(sol, channels, 1.0)
    assert bd.private_sinr[0] == pytest.approx(expected, rel=1e-12)
    two = ArrayGeometry(mx=1, my=2, dx=7.5e-4, dy=7.5e-4, wavelength=3e-3)
    ctx = _EvalContext(SolveInstance(channels, SensingScene([], two), grouping),
                       ObjectiveWeights(), QosLimits(p_max=1e19), 1.0, 1.0,
                       10.0)
    _, aux = ctx.evaluate(sol.stacked_beams(), sol.stacked_powers(), sol.rho)
    assert aux["gam_p"][0] == pytest.approx(expected, rel=1e-12)
    assert aux["gam_c"][1] == pytest.approx(bd.common_sinr[1], rel=1e-12)


# =====================================================================
# Block updates
# =====================================================================

def obj_value(sol, channels, targets, geom, weights):
    val, _ = composite_objective(sol, channels, targets, geom, weights,
                                 SIGMA_N2, SIGMA_S2)
    return val


def run_block(block, sol, channels, targets, geom, weights, limits, cfg):
    """One block from sol through a fresh context, entered as a block-ascent
    solve enters it, as a solution."""
    ctx = _EvalContext(SolveInstance(channels, SensingScene(targets, geom),
                                     sol.grouping),
                       weights, limits, SIGMA_N2, SIGMA_S2, cfg.qos_penalty)
    w, p, rho = sol.stacked_beams(), sol.stacked_powers(), sol.rho.copy()
    x, u = coordinates(ctx, w)
    f0, aux0 = priced_entry(ctx, x, p, rho)
    if block is optimizers._beam_block:
        w = span_beams(ctx, block(ctx, x, p, rho, f0, aux0, cfg)[0], u)
    elif block is optimizers._power_block:
        p = block(ctx, p, rho, f0, aux0, cfg)[0]
    else:
        rho = block(ctx, p, rho, f0, aux0, cfg)[0]
    return ctx.build_solution(w, p, rho)


def test_each_block_never_decreases_objective():
    channels, targets, geom, weights, limits = build_problem(seed=45)
    cfg = OptimizerConfig(inner_steps=10)
    sol = init_hao_sca(channels, targets, geom, 2, limits.p_max, SIGMA_N2)
    for block in (optimizers._beam_block, optimizers._power_block,
                  optimizers._rho_block):
        before = obj_value(sol, channels, targets, geom, weights)
        sol = run_block(block, sol, channels, targets, geom, weights, limits,
                        cfg)
        after = obj_value(sol, channels, targets, geom, weights)
        assert after >= before - 1e-9


def first_two_antennas(channels):
    """The channels seen by the first two antennas only."""
    return channels[:, :2].copy()


def duplicate_first_user(channels):
    """The channels with user 1's row replaced by user 0's."""
    channels = channels.copy()
    channels[1] = channels[0]
    return channels


def short_desk_tiny(mx=4, my=4, num_targets=2):
    """desk_tiny at two sweeps, on an mx x my array with num_targets."""
    cfg = preset_config("desk_tiny")
    cfg.geometry = replace(cfg.geometry, mx=mx, my=my)
    cfg.population.num_targets = num_targets
    cfg.optimizer.max_iters = 2
    return cfg


@functools.cache
def block_entries(block, algorithms=("hao_sca", "fp")):
    """Every entry of the block optimizers.<block>, as (ctx, *arguments), in
    short solves of algorithms (by default hao_sca, all three legs, the
    conventional-NOMA one included, and fp) on impaired desk_tiny and
    desk_small draws with CSI error, on
    one paper_full draw (M = 1024) with CSI error at one sweep, and on three
    edge cases of the span coordinates (see edge_case): a 2-element array
    with 4 users and 2 targets (K + L > M), a desk_tiny draw whose user 1
    duplicates user 0 (a rank-deficient span) and a desk_tiny draw without
    targets (the sensing probe e_1 then lies mostly outside the span).

    The solves run once per block and session, and every caller gets the
    same entries: their arrays are copies, and no block writes its inputs."""
    entries = []
    real = getattr(optimizers, block)

    def record(ctx, *args):
        entries.append((ctx, *(a.copy() if isinstance(a, np.ndarray) else a
                               for a in args)))
        return real(ctx, *args)

    # each draw: (config to draw with, seed, edit of the drawn channels or
    # None, config to solve with)
    draws = []
    for preset in ("desk_tiny", "desk_small"):
        cfg = preset_config(preset)
        cfg.impairments.coupling_kappa = 0.1
        cfg.impairments.irr_db = 25.0
        cfg.impairments.phase_noise_dbc = -25.0
        cfg.impairments.csi_eps = 0.1
        cfg.optimizer.max_iters = 2
        draws += [(cfg, seed, None, cfg) for seed in range(2)]
    cfg = preset_config("paper_full")
    cfg.impairments.csi_eps = 0.1
    cfg.optimizer.max_iters = 1
    draws.append((cfg, 0, None, cfg))
    # the edge cases; no user range fits a 2-element array's Rayleigh
    # distance, so that case solves on the first two antennas of a
    # desk_tiny draw
    draws += [(short_desk_tiny(), 3, first_two_antennas, short_desk_tiny(2, 1)),
              (short_desk_tiny(), 3, duplicate_first_user, short_desk_tiny()),
              (short_desk_tiny(num_targets=0), 3, None,
               short_desk_tiny(num_targets=0))]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optimizers, block, record)
        for cfg, seed, edit, solve_cfg in draws:
            data = generate_trial_data(cfg, np.random.default_rng(seed))
            channels = data.channels_est
            if edit is not None:
                channels = edit(channels)
            for algorithm in algorithms:
                solve_instance(algorithm, channels, data.targets, solve_cfg)
    return entries


def calls_to(patch, owner, name):
    """The (args, kwargs) of every call of owner.name while patch holds."""
    calls = []
    real = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    patch.setattr(owner, name, spy)
    return calls


def assert_same_result(got, want):
    """Two block results (iterate, objective, aux) equal bit for bit."""
    (x1, f1, aux1), (x2, f2, aux2) = got, want
    assert x1.tobytes() == x2.tobytes() and f1 == f2
    assert aux1.keys() == aux2.keys()
    for key in aux1:
        assert np.asarray(aux1[key]).tobytes() == \
            np.asarray(aux2[key]).tobytes(), key


def rescaled_entries():
    """beam-block entries whose rows are off the unit spheres (norms 0.5 to
    2, one free row zero), priced afresh, so Re<x_s, t_s> is not ~0 and a
    dead stream occurs; one desk_tiny and one desk_small entry each of
    hao_sca and fp (whose common streams are held)."""
    out, seen = [], set()
    rng = np.random.default_rng(57)
    for ctx, x, p, rho, f0, aux0, config, frozen in \
            block_entries("_beam_block"):
        key = (ctx.m_total, frozen is None)
        if key in seen or ctx.m_total not in (16, 64):
            continue
        seen.add(key)
        x = x * rng.uniform(0.5, 2.0, len(x))[:, None]
        x[ctx.num_groups] = 0.0          # the first private stream
        out.append((ctx, x, p, rho, *priced_entry(ctx, x, p, rho), config,
                    frozen))
    assert len(out) == 4
    return out


def coordinates(ctx, w) -> tuple:
    return optimizers._span_coordinates(ctx.span[0], w)


def priced_entry(ctx, x, p, rho) -> tuple:
    """(f, aux) at span coordinates x, priced from their gains as a
    block-ascent solve prices its entry."""
    gains = ctx.span_gains(x)
    gains.update(g2=np.abs(gains["v"]) ** 2, m2=np.abs(gains["va"]) ** 2)
    return ctx.price_powers(gains, p, ctx.shares(rho))


def span_beams(ctx, x, u=None):
    """The beams of span coordinates x: c_s q^T plus x_s[-1] times the
    out-of-span direction u_s; without u, their in-span part c_s q^T,
    which carries all their gains."""
    beams = x[:, :-1] @ ctx.span[0].T
    return beams if u is None else beams + x[:, -1:].real * u


def test_every_priced_beam_candidate_has_the_gains_of_its_beams(monkeypatch):
    seen = []

    def spy(name):
        real = getattr(optimizers._Retraction, name)

        def record(step, *args):
            out = real(step, *args)
            seen.append((name, step, args, out))
            return out
        monkeypatch.setattr(optimizers._Retraction, name, record)

    entries = block_entries("_beam_block") \
        + rescaled_entries()
    spy("joint")

    def close(got, want):
        # within 1e-12 of each column's largest gain
        scale = np.abs(want).max(axis=-2, keepdims=True, initial=0.0)
        return np.all(np.abs(got - want) <= 1e-12 * scale)

    count = 0
    for ctx, *args in entries:
        seen.clear()
        optimizers._beam_block(ctx, *args)
        for _, step, (c,), (gains, _, _) in seen:
            count += 1
            x, t = step.x, step.tang
            cand = optimizers._normalize_rows(x + c * t, x)
            cand[step.held] = x[step.held]
            want = ctx.instance.gains(span_beams(ctx, cand))
            assert close(gains["v"], want["v"])
            assert close(gains["va"], want["va"])
    assert count >= 20


def test_the_span_gradient_is_the_m_space_gradient():
    checked = set()
    for ctx, x, p, rho, f0, aux0, config, frozen in \
            block_entries("_beam_block"):
        shares = ctx.shares(rho)
        got = ctx.beam_gradient(x, p, shares, aux0)
        assert np.all(got[:, -1] == 0.0)
        want = m_space_beam_gradient(ctx, p, shares, aux0)
        # within 1e-12 of each row's largest entry
        scale = np.abs(want).max(axis=1, keepdims=True)
        assert np.all(np.abs(got[:, :-1] @ ctx.span[0].T - want) <= 1e-12 * scale)
        checked.add(ctx.m_total)
    assert {2, 16, 64, 1024} <= checked


def test_beam_block_returns_the_gains_of_its_beams():
    """The returned aux prices the returned coordinates: its gains are those
    of x (ctx.span_gains, within 1e-12 of each column's largest gain), their
    squares bit for bit, and it prices to the returned f, which never falls
    below f0. A block that moves nothing returns its entry."""
    moved = 0
    for ctx, x, p, rho, f0, aux0, config, frozen in \
            block_entries("_beam_block") \
            + rescaled_entries():
        x_out, f_out, aux_out = optimizers._beam_block(
            ctx, x, p, rho, f0, aux0, config, frozen)
        assert f_out >= f0
        formed = ctx.span_gains(x_out)
        for key, sq in (("v", "g2"), ("va", "m2")):
            scale = np.abs(formed[key]).max(axis=0, initial=0.0)
            assert within(aux_out[key], formed[key], scale), key
            assert bits(aux_out[sq]) == bits(np.abs(aux_out[key]) ** 2), sq
        gains = {key: aux_out[key] for key in ctx._GAINS}
        assert ctx.price_powers(gains, p, ctx.shares(rho))[0] == f_out
        if x_out is x:
            assert f_out == f0 and aux_out is aux0
        moved += x_out is not x
    assert moved >= 10


def test_every_accepted_beam_step_follows_the_gradient_at_its_own_iterate(
        monkeypatch):
    """Every accepted beam step starts from the pricing of its own iterate:
    the gains of its beams (within 1e-12 of each column's largest gain),
    priced. Its tangent is the M-space gradient over that pricing less its
    radial part, within 1e-12 of each row's largest entry, and its
    out-of-span coordinate is that radial part's; held rows have none.
    (The gradient is checked over the block's pricing, not over one of
    evaluate: where a beam nearly nulls a user, roundoff in the gains moves
    the interference sums, and the gradient with them, by far more than
    1e-12.)"""
    accepted = []
    real = optimizers._Retraction.iterate

    def record(step, *args):
        accepted.append(step)
        return real(step, *args)

    monkeypatch.setattr(optimizers._Retraction, "iterate", record)
    moved_iterates = 0
    for ctx, x, p, rho, f0, aux0, config, frozen in \
            block_entries("_beam_block"):
        accepted.clear()
        optimizers._beam_block(ctx, x, p, rho, f0, aux0, config, frozen)
        shares = ctx.shares(rho)
        for i, step in enumerate(accepted):
            beams = span_beams(ctx, step.x)
            aux = step.entry
            if i:
                # a moved iterate: the gains of its beams, priced
                fresh = ctx.instance.gains(beams)
                for key in ("v", "va"):
                    scale = np.abs(fresh[key]).max(axis=0, initial=0.0)
                    assert within(aux[key], fresh[key], scale), key
                _, priced = ctx.price_powers(
                    {key: aux[key] for key in ctx._GAINS}, p, shares)
                for key in ("d_c", "d_p", "d_l"):
                    assert bits(aux[key]) == bits(priced[key]), key
                moved_iterates += 1
            else:
                assert aux is aux0
            grad = m_space_beam_gradient(ctx, p, shares, aux)
            grad[step.held] = 0.0
            radial = np.real(np.sum(beams.conj() * grad, axis=1))
            want = grad - radial[:, None] * beams
            scale = np.abs(want).max(axis=1, keepdims=True)
            assert within(span_beams(ctx, step.tang), want, scale)
            # the out-of-span coordinate moves by its radial part alone
            assert within(step.tang[:, -1], -radial * step.x[:, -1],
                          np.abs(grad).max(axis=1))
    assert moved_iterates >= 10


def test_a_beam_block_that_accepts_no_step_prices_one_ladder(monkeypatch):
    """At most max_backtracks candidates, and the entry returned. No block
    forms M-wide gains or calls evaluate, and one that moves prices at most
    one ladder per step."""
    idle = 0
    for ctx, x, p, rho, f0, aux0, config, frozen in \
            block_entries("_beam_block"):
        with monkeypatch.context() as patch:
            accepted = calls_to(patch, optimizers._Retraction, "iterate")
            formed = calls_to(patch, ctx.instance, "gains")
            evaluated = calls_to(patch, ctx, "evaluate")
            priced = calls_to(patch, ctx, "price_powers")
            x_out, f_out, aux_out = optimizers._beam_block(
                ctx, x, p, rho, f0, aux0, config, frozen)
        assert not formed and not evaluated
        ladders = min(len(accepted) + 1, config.inner_steps)
        assert len(priced) <= ladders * config.max_backtracks
        if accepted:
            continue
        assert x_out is x and f_out == f0 and aux_out is aux0
        assert len(priced) <= config.max_backtracks
        idle += 1
    assert idle >= 3


def test_zero_and_held_beam_rows_keep_their_entry_rows():
    held_rows = 0
    entries = rescaled_entries()
    for ctx, x, p, rho, f0, aux0, config, frozen in entries:
        x_out = optimizers._beam_block(ctx, x, p, rho, f0, aux0, config,
                                       frozen)[0]
        assert np.all(x_out[ctx.num_groups] == 0.0)
        if frozen is not None:
            assert x_out[frozen].tobytes() == x[frozen].tobytes()
            held_rows += len(frozen)
    assert held_rows >= 2
    # a stream whose n underflows to 0 keeps its coordinates and its gains
    # even when its tangent is not zero
    ctx, x, p, rho, f0, aux0, config, frozen = entries[0]
    dead = ctx.num_groups
    tang = np.zeros_like(x)
    tang[dead] = 1e-310
    tang[dead + 1] = x[dead + 1, ::-1]
    step = optimizers._Retraction(ctx, x, tang, aux0,
                                  np.zeros(len(x), dtype=bool))
    gains, n, kept = step.joint(1.0)
    assert kept[dead] and not kept[dead + 1]
    for key in ctx._GAINS:
        assert np.array_equal(gains[key][:, dead], aux0[key][:, dead])
    assert np.all(step.iterate(1.0, n, kept)[dead] == 0.0)


def edge_case(ctx) -> str | None:
    """Which edge case of the span coordinates an instance of block_entries
    is: more users and targets than antennas, a duplicated user, no
    targets, or None."""
    if ctx.k_total + ctx.num_targets > ctx.m_total:
        return "wide"
    if np.array_equal(ctx.h[0], ctx.h[1]):
        return "duplicate"
    if not ctx.num_targets:
        return "no_targets"
    return None


@pytest.mark.parametrize("case", ["wide", "duplicate", "no_targets", "rescaled"])
def test_the_beam_block_in_span_coordinates_at_an_edge_case(case):
    """The start's coordinates hold its beams, an entry's gains are those of
    its beams, and the block returns unit-norm rows, keeps its zero and
    held rows and never loses objective. (rescaled: the entries of
    rescaled_entries, off the unit spheres.)"""
    if case == "rescaled":
        entries = rescaled_entries()
    else:
        entries = [entry for entry in block_entries("_beam_block")
                   if edge_case(entry[0]) == case]
    moved = 0
    for ctx, x, p, rho, f0, aux0, config, frozen in entries:
        start = ctx.instance.start_beams
        norms = np.linalg.norm(start, axis=1)
        assert np.all(np.abs(span_beams(ctx, *ctx.instance.start_span) - start)
                      <= 1e-13 * norms[:, None])
        gains = ctx.instance.gains(span_beams(ctx, x))
        for key in ("v", "va"):
            scale = np.abs(gains[key]).max(axis=0, initial=0.0)
            assert within(aux0[key], gains[key], scale), key

        x_out, f_out, _ = optimizers._beam_block(ctx, x, p, rho, f0, aux0,
                                                 config, frozen)
        assert f_out >= f0
        kept = np.all(x_out == x, axis=1)
        assert np.all(np.abs(np.linalg.norm(x_out[~kept], axis=1) - 1.0)
                      <= 1e-13)
        assert np.all(kept[np.linalg.norm(x, axis=1) == 0.0])
        if frozen is not None:
            assert np.all(kept[frozen])
        moved += x_out is not x
    assert moved >= 2
    if case == "no_targets":
        # the sensing probe's part outside the span is carried, not lost
        assert any(np.abs(x[-1, -1]) > 0.1 for _, x, *_ in entries)


def unequal_groups_entry():
    """A block entry at the start of a K = 5, G = 2 instance (groups of two
    and three users) with active rate and detection floors."""
    channels, targets, geom, weights, _ = build_problem(seed=58, k=5)
    limits = QosLimits(p_max=P_MAX, r_min=1.0, p_d_min=0.9)
    ctx, w, p, rho = start_entry(channels, targets, geom, weights, limits)
    assert sorted(map(len, ctx.grouping.sic_order)) == [2, 3]
    return (ctx, p, rho, *ctx.evaluate(w, p, rho))


def kernel_entries():
    """(ctx, p, rho, f0, aux0) of every beam- and power-block entry of
    block_entries, and of unequal_groups_entry."""
    return [e[:1] + e[2:6] for e in block_entries("_beam_block")] \
        + [e[:5] for e in block_entries("_power_block")] + [unequal_groups_entry()]


def bits(a) -> bytes:
    return np.ascontiguousarray(a).tobytes()


def within(got, want, scale, rel=1e-12) -> bool:
    return bool(np.all(np.abs(got - want) <= rel * scale))


def test_stream_rates_match_the_gather_forms():
    """Selections and group minima bit for bit, sums to 1e-12 relative, on
    every entry and on candidate stacks of 1, 4 and 8, each of whose
    candidates is priced alone bit for bit as in its stack."""
    rng = np.random.default_rng(61)
    stacked = 0
    for ctx, p, rho, f0, aux0 in kernel_entries():
        lay, tables = ctx.layout, GatherTables(ctx.grouping)
        stacks = [aux0["g2"] * rng.uniform(0.5, 2.0, (n, *aux0["g2"].shape))
                  for n in (1, 4, 8)]
        for g2 in [aux0["g2"], *stacks]:
            got = stream_rates(g2, p, lay, ctx.sigma_n2)
            want = gather_stream_rates(g2, p, tables, ctx.sigma_n2)
            assert got.keys() == want.keys()
            for key in ("own_c", "own_p"):
                assert bits(got[key]) == bits(want[key]), key
            for key in got:
                assert within(got[key], want[key], np.abs(want[key])), key
            c_rate, group_c = got["c_rate"], got["group_c"]
            assert bits(group_c) == bits(np.minimum.reduceat(
                c_rate[..., tables.order], tables.starts, axis=-1))
            assert bits(group_c @ lay.group_of) == \
                bits(group_c[..., tables.assign])
            sums = c_rate @ lay.same_group
            rows = c_rate.reshape(-1, ctx.k_total)
            assert within(sums, np.array(
                [gather_group_sums(tables, row)[tables.assign] for row in rows]
            ).reshape(sums.shape), sums)
            if g2.ndim == 3:
                stacked += len(g2)
                for i, lone in enumerate(g2):
                    alone = stream_rates(lone, p, lay, ctx.sigma_n2)
                    for key in got:
                        assert bits(alone[key]) == bits(got[key][i]), key
    assert stacked >= 13 * len(kernel_entries())


def test_gradients_match_the_gather_forms():
    """The beam gradient's channel coefficients within 1e-12 of each row's
    largest entry, and the rate part of the power gradient within 1e-12 of
    the sum of the absolute values of its terms."""
    for ctx, p, rho, f0, aux0 in kernel_entries():
        shares = ctx.shares(rho)
        zc, _ = ctx._beam_coefficients(p, shares, aux0)
        want = gather_beam_coefficients(ctx, p, shares, aux0)
        assert within(zc, want, np.abs(want).max(axis=1, keepdims=True))
        grad = (ctx._stage_weights(shares, aux0) * aux0["g2"]).sum(axis=0)
        want, scale = gather_power_gradient_rates(ctx, p, shares, aux0)
        assert within(grad, want, scale)


def test_power_steps_priced_over_the_entry_gains_match_full_evaluations():
    """From each entry's powers and split at the start's beams, priced by
    evaluate, the block reaches the iterate of the loop that prices every
    candidate by evaluate, bit for bit."""
    entries = block_entries("_power_block")
    assert len(entries) >= 10
    moved = 0
    for ctx, p, rho, _, _, config, frozen in entries:
        w = ctx.instance.start_beams
        args = (p, rho, *ctx.evaluate(w, p, rho), config, frozen)
        got = optimizers._power_block(ctx, *args)
        assert_same_result(got, sequential_power_block(ctx, w, *args))
        moved += got[0] is not p
    assert moved >= 3


def test_a_power_block_forms_no_gains(monkeypatch):
    priced = 0
    for ctx, *args in block_entries("_power_block"):
        with monkeypatch.context() as patch:
            formed = calls_to(patch, ctx.instance, "gains")
            evaluated = calls_to(patch, ctx, "evaluate")
            candidates = calls_to(patch, ctx, "price_powers")
            optimizers._power_block(ctx, *args)
        assert not formed and not evaluated
        # every candidate is priced over the gains the block entered with
        aux0 = args[3]
        for (gains, _, _), _ in candidates:
            assert gains.keys() == set(ctx._GAINS)
            assert all(gains[key] is aux0[key] for key in ctx._GAINS)
        priced += len(candidates)
    assert priced >= 10


def test_every_power_step_follows_the_gradient_at_its_own_iterate(
        monkeypatch):
    """Each power step takes its gradient over the pricing of its own
    iterate, whose interference sums are those of the block's gains priced
    there, bit for bit. On the fp entries, whose rate-only weights leave the
    power gradient its rate part alone, that gradient is the gather form at
    the iterate within 1e-12 of the sum of the absolute values of its
    terms."""
    moved_iterates = rate_only = 0
    for ctx, p, rho, f0, aux0, config, frozen in \
            block_entries("_power_block"):
        taken = []
        real = ctx.power_gradient

        def record(*args):
            grad = real(*args)
            taken.append((args, grad.copy()))
            return grad

        with monkeypatch.context() as patch:
            patch.setattr(ctx, "power_gradient", record)
            optimizers._power_block(ctx, p, rho, f0, aux0, config, frozen)
        shares = ctx.shares(rho)
        gains = {key: aux0[key] for key in ctx._GAINS}
        fp = not ctx.aw[1:].any()
        for (p_i, _, aux_i), grad in taken:
            _, fresh = ctx.price_powers(gains, p_i, shares)
            for key in ("d_c", "d_p", "d_l"):
                assert bits(aux_i[key]) == bits(fresh[key]), key
            if fp:
                want, scale = gather_power_gradient_rates(ctx, p_i, shares,
                                                          fresh)
                assert within(grad, want, scale)
                rate_only += 1
        moved_iterates += max(len(taken) - 1, 0)
    assert moved_iterates >= 10 and rate_only >= 10


def test_the_water_filled_split_is_at_least_the_golden_section_split():
    entries = block_entries("_rho_block")
    assert len(entries) >= 10
    moved = 0
    for ctx, *args in entries:
        rho_w, f_w, _ = optimizers._rho_block(ctx, *args)
        _, f_g, _ = golden_rho_block(ctx, *args)
        assert f_w >= f_g - 1e-12 * abs(f_g)
        moved += rho_w is not args[1]
    assert moved >= 3


def test_a_split_block_prices_once_and_forms_no_gains(monkeypatch):
    for ctx, *args in block_entries("_rho_block"):
        with monkeypatch.context() as patch:
            streams = calls_to(patch, optimizers, "price_streams")
            formed = calls_to(patch, ctx.instance, "gains")
            full = calls_to(patch, ctx, "reprice")
            optimizers._rho_block(ctx, *args)
        assert not streams and not formed and len(full) <= 1


def split_instance(sizes, cap, p_rate, rho, r_min=0.0, seed=60):
    """A split-block entry on hand-built groups: groups of the given sizes
    (users numbered in order), the group common capacities cap and the
    private rates p_rate written into the stream part of a random design
    point, and the split rho. Returns (ctx, block arguments)."""
    users = np.cumsum([0] + list(sizes))
    grouping = Grouping(
        assignment=np.repeat(np.arange(len(sizes)), sizes),
        sic_order=[list(range(a, b)) for a, b in zip(users[:-1], users[1:])])
    k = users[-1]
    channels, targets, geom, _, _ = build_problem(seed=seed, k=k)
    limits = QosLimits(p_max=P_MAX, r_min=r_min)
    ctx = _EvalContext(SolveInstance(channels, SensingScene(targets, geom),
                                     grouping),
                       ObjectiveWeights(0.4, 0.2, 0.1, 0.3), limits, SIGMA_N2,
                       SIGMA_S2, 10.0)
    rng = np.random.default_rng(seed)
    s = len(sizes) + k + 1
    w = rng.standard_normal((s, geom.m_total)) + 0j
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    p = np.full(s, P_MAX / s)
    rho = np.asarray(rho, dtype=float)
    _, aux = ctx.evaluate(w, p, rho)
    aux = dict(aux, group_c=np.asarray(cap, dtype=float),
               p_rate=np.asarray(p_rate, dtype=float))
    f0, aux0 = ctx.reprice(aux, ctx.shares(rho))
    return ctx, (p, rho, f0, aux0, OptimizerConfig())


def simplex_grid(n, points):
    """Every share vector of a 2- or 3-user group on the simplex grid with
    the given number of points per axis."""
    steps = points - 1
    if n == 2:
        i = np.arange(points)
        return np.stack((i, steps - i), axis=1) / steps
    i, j = np.triu_indices(points)
    return np.stack((i, j - i, steps - j), axis=1) / steps


@pytest.mark.parametrize("seed", range(6))
def test_the_water_filled_split_matches_a_brute_force_over_the_simplex(seed):
    # a 2-user and a 3-user group; each group's split moves only its own
    # rates, whose sum it keeps, so the groups are searched one at a time
    rng = np.random.default_rng(seed)
    r_min = (0.0, 2.5)[seed % 2]
    ctx, args = split_instance((2, 3), rng.uniform(0.1, 3.0, 2),
                               rng.uniform(0.5, 4.0, 5),
                               rng.uniform(0.0, 1.0, 5), r_min=r_min, seed=seed)
    rho, f, _ = optimizers._rho_block(ctx, *args)
    # a feasible split: no negative share, and the shares of each group
    # sum to one
    assert np.all(rho >= 0.0)
    aux0 = args[3]
    shares = ctx.shares(rho)
    for mem, points in zip(ctx.layout.members, (201, 61)):
        assert rho[mem].sum() == pytest.approx(1.0, rel=1e-12)
        best = -np.inf
        for grid_shares in simplex_grid(len(mem), points):
            cand = shares.copy()
            cand[mem] = grid_shares
            best = max(best, ctx.reprice(aux0, cand)[0])
        assert f >= best - 1e-12 * abs(best)


def test_a_zero_capacity_group_and_lone_users_keep_their_split():
    # groups: a lone user, a zero-capacity pair, a lone user, a pair that
    # moves
    rho = np.array([0.3, 0.8, 0.1, 0.6, 0.9, 0.2])
    ctx, args = split_instance((1, 2, 1, 2), [1.5, 0.0, 2.0, 1.0],
                               [1.0, 0.5, 3.0, 2.0, 1.0, 3.0], rho)
    p, _, _, _, cfg = args
    out, f, aux = optimizers._rho_block(ctx, *args)
    assert f > args[2]
    assert out[:4].tobytes() == rho[:4].tobytes()
    assert not np.array_equal(out[4:], rho[4:])
    # a second block finds nothing to improve and keeps its entry
    again = optimizers._rho_block(ctx, p, out, f, aux, cfg)
    assert again[0] is out and again[1] == f and again[2] is aux


@pytest.mark.parametrize("seed", range(4))
def test_the_water_filled_allocations_sum_to_the_group_capacity(seed):
    rng = np.random.default_rng(seed)
    cap = rng.uniform(0.05, 3.0, 3)
    ctx, args = split_instance((2, 3, 4), cap, rng.uniform(0.5, 4.0, 9),
                               rng.uniform(0.0, 1.0, 9), seed=seed)
    rho, f, aux = optimizers._rho_block(ctx, *args)
    assert f > args[2]
    for g, mem in enumerate(ctx.layout.members):
        assert rho[mem].sum() == pytest.approx(1.0, rel=1e-12)
        assert aux["alloc"][mem].sum() == pytest.approx(cap[g], rel=1e-12)


def test_tied_private_rates_get_equal_shares():
    # the tie is filled in the first group and, with the whole group tied,
    # in the second; the richer user of the first group gets nothing
    ctx, args = split_instance((3, 3), [0.5, 1.2],
                               [3.0, 1.0, 1.0, 2.0, 2.0, 2.0],
                               [0.9, 0.1, 0.5, 0.9, 0.1, 0.5])
    rho, f, _ = optimizers._rho_block(ctx, *args)
    assert f > args[2]
    assert rho[0] == 0.0 and rho[1] == rho[2] == pytest.approx(0.5)
    assert rho[3] == rho[4] == rho[5] == pytest.approx(1.0 / 3.0)


def test_normalize_rows_takes_the_fallback_for_zero_and_nan_rows():
    rng = np.random.default_rng(56)
    w = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
    w[1] = 0.0
    w[2, 3] = np.nan
    w[4] *= 1e-140                   # small, but its norm is above 1e-300
    fallback = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
    norms = np.linalg.norm(w, axis=1)
    with np.errstate(invalid="ignore"):   # the NaN row divides NaN by NaN
        want = np.where(norms[:, None] > 1e-300,
                        w / np.maximum(norms, 1e-300)[:, None], fallback)
        got = optimizers._normalize_rows(w, fallback)
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(got[[1, 2]], fallback[[1, 2]])


def test_zero_inner_steps_is_identity_for_beams():
    channels, targets, geom, weights, limits = build_problem(seed=46)
    cfg = OptimizerConfig(inner_steps=0)
    sol = init_hao_sca(channels, targets, geom, 2, limits.p_max, SIGMA_N2)
    out = run_block(optimizers._beam_block, sol, channels, targets, geom,
                    weights, limits, cfg)
    assert np.allclose(out.stacked_beams(), sol.stacked_beams())


# =====================================================================
# Full block-ascent run
# =====================================================================

def test_hao_sca_monotone_and_feasible():
    channels, targets, geom, weights, limits = build_problem(seed=47)
    cfg = OptimizerConfig(max_iters=10, epsilon=1e-6)
    sol, trace = run_hao_sca(channels, targets, geom, weights, limits,
                             SIGMA_N2, SIGMA_S2, cfg, num_groups=2)
    assert trace.monotone
    assert len(trace.objectives) == trace.iterations_used + 1
    assert trace.iterations_used <= cfg.max_iters
    assert feasible(sol, channels, targets, geom, limits, SIGMA_N2, SIGMA_S2)
    # the run must actually improve on the deterministic start
    assert trace.objectives[-1] > trace.objectives[0]


def test_hao_sca_convergence_flag():
    channels, targets, geom, weights, limits = build_problem(seed=48)
    cfg = OptimizerConfig(max_iters=40, epsilon=1e2)
    _, trace = run_hao_sca(channels, targets, geom, weights, limits,
                           SIGMA_N2, SIGMA_S2, cfg, num_groups=2)
    assert trace.converged
    assert abs(trace.objectives[-1] - trace.objectives[-2]) < cfg.epsilon


def test_conventional_noma_freezes_common_layer():
    channels, targets, geom, weights, limits = build_problem(seed=49)
    cfg = OptimizerConfig(max_iters=6)
    sol, trace = run_hao_sca(channels, targets, geom, weights, limits,
                             SIGMA_N2, SIGMA_S2, cfg, num_groups=2,
                             conventional_noma=True)
    assert np.all(sol.p_common == 0.0)
    assert np.all(sol.rho == 0.0)
    assert trace.monotone


def test_warm_start_resumes_upward():
    channels, targets, geom, weights, limits = build_problem(seed=50)
    cfg = OptimizerConfig(max_iters=5, epsilon=1e-8)
    sol1, trace1 = run_hao_sca(channels, targets, geom, weights, limits,
                               SIGMA_N2, SIGMA_S2, cfg, num_groups=2)
    sol2, trace2 = run_hao_sca(channels, targets, geom, weights, limits,
                               SIGMA_N2, SIGMA_S2, cfg, num_groups=2,
                               warm_start=sol1)
    assert trace2.monotone
    assert trace2.objectives[-1] >= trace1.objectives[-1] - 1e-9
    # warm start must not mutate the donor solution
    assert np.all(sol1.p_common >= 0.0)


def test_every_block_ascent_solve_enters_the_span_at_most_once(monkeypatch):
    """Every block-ascent solve of two desk_tiny trials (the three hao_sca
    legs and fp, on the trial's instance) enters the span coordinates at
    most once: a solve from the start takes the instance's, formed on the
    trial's first, and the warm hao_sca leg enters with the NOMA solution's
    beams. No solve forms M-wide gains or calls evaluate."""
    cfg = preset_config("desk_tiny")
    entered = calls_to(monkeypatch, optimizers, "_span_coordinates")
    formed = calls_to(monkeypatch, SolveInstance, "gains")
    evaluated = calls_to(monkeypatch, _EvalContext, "evaluate")
    solves = []
    real = optimizers._block_ascent

    def solve(*args, **kwargs):
        before = len(entered), len(formed), len(evaluated)
        out = real(*args, **kwargs)
        solves.append((len(entered) - before[0], len(formed) - before[1],
                       len(evaluated) - before[2]))
        return out

    monkeypatch.setattr(optimizers, "_block_ascent", solve)
    for seed in range(2):
        data = generate_trial_data(cfg, np.random.default_rng(seed))
        trial = (data.channels_est, data.targets, cfg)
        instance = trial_instance(*trial)
        for algorithm in ("hao_sca", "fp"):
            solve_instance(algorithm, *trial, instance=instance)
    assert solves == [(1, 0, 0), (1, 0, 0), (0, 0, 0), (0, 0, 0)] * 2


def test_solves_from_the_start_share_its_gains(monkeypatch):
    """Solves from the start enter with the instance's span coordinates,
    formed once and read-only, and price their entry from those: on a
    shared instance each gives what it gives on one of its own."""
    cfg = preset_config("desk_tiny")
    data = generate_trial_data(cfg, np.random.default_rng(8))
    args = (data.channels_est, data.targets, cfg.array_geometry(),
            cfg.objective_weights(), cfg.qos_limits(), cfg.sigma_n2_watts,
            cfg.sigma_s2_watts, OptimizerConfig(max_iters=2))
    trial = (data.channels_est, data.targets, cfg)
    instance = trial_instance(*trial)
    alone = [run_hao_sca(*args, num_groups=cfg.population.num_groups),
             run_fp(trial_instance(*trial), *args[4:])]
    entered = calls_to(monkeypatch, optimizers, "_span_coordinates")
    shared = [run_hao_sca(*args, instance=instance), run_fp(instance, *args[4:])]
    assert [a[1] is instance.start_beams for a, _ in entered] == [True]
    assert not any(a.flags.writeable for a in instance.start_span)
    for (sol, trace), (want, want_trace) in zip(shared, alone):
        assert sol.stacked_beams().tobytes() == want.stacked_beams().tobytes()
        assert trace.objectives.tobytes() == want_trace.objectives.tobytes()


# =====================================================================
# E-WMMSE
# =====================================================================

def test_e_wmmse_filter_hand_values():
    h = np.array([2.0 + 0.0j, 0.0])
    v = np.array([1.0 + 0.0j, 0.0])
    # h^H v = 2: u = 2 / (4 + 1 + 1) = 1/3
    u = e_wmmse_receive_filter(h, v, interference=1.0, sigma_n2=1.0)
    assert u == pytest.approx(1.0 / 3.0)
    # mse = 1 - 2/3 = 1/3, weight 3
    assert e_wmmse_mse_weight(u, h, v) == pytest.approx(3.0)
    with pytest.raises(RuntimeError):
        e_wmmse_mse_weight(1.0, h, v)  # u h^H v = 2 -> negative MSE


def detection_floor_entries():
    """_e_wmmse_sweep entries of a desk_tiny e_wmmse solve with an active
    detection floor (p_d_min > p_fa), so the sensing step runs."""
    cfg = short_desk_tiny()
    cfg.limits.p_d_min = 0.99
    cfg.powers.sigma_s_dbm = -40.0
    data = generate_trial_data(cfg, np.random.default_rng(5))
    with pytest.MonkeyPatch.context() as patch:
        calls = calls_to(patch, optimizers, "_e_wmmse_sweep")
        solve_instance("e_wmmse", data.channels_est, data.targets, cfg)
    # a sweep writes nothing it is given
    return [args for args, _ in calls]


def solved_systems(sweep, *args) -> tuple:
    """(result, coefs, mu, x, calls) of one sweep: its aggregates, the
    coefficients, loading and right-hand sides of every system it hands
    _loaded_solve, one row per system, and the number of calls."""
    with pytest.MonkeyPatch.context() as patch:
        calls = calls_to(patch, optimizers, "_loaded_solve")
        out = sweep(*args)
    coefs = np.vstack([np.atleast_2d(c) for (_, _, c, _, _), _ in calls])
    x = np.vstack([np.reshape(b, (-1, b.shape[-2])) for (*_, b), _ in calls])
    mu = np.array([m for (_, _, _, m, _), _ in calls])
    return out, coefs, mu, x, len(calls)


def test_one_e_wmmse_sweep_matches_the_per_user_loop():
    """The stacked sweep builds the systems of the per-user filter and
    weight loop with one solve per stream, in one solve, to 1e-12, and
    gives its aggregates to 1e-12 of each row's norm. Where the channels
    are rank-deficient (more users than antennas, a duplicated user) the
    K x K push-through solve is so ill-conditioned that a 1e-15 nudge of
    its input moves the loop's own aggregates by up to 3e-2, so there only
    the systems are compared."""
    entries = block_entries("_e_wmmse_sweep", ("e_wmmse",))
    cases = {edge_case(ctx) for ctx, *_ in entries}
    assert cases == {None, "wide", "duplicate", "no_targets"}
    assert {ctx.m_total for ctx, *_ in entries} >= {16, 64, 1024}
    sensed = 0
    for ctx, v_all, gram in entries + detection_floor_entries():
        args = (ctx, v_all, gram)
        got, coefs, mu, x, calls = solved_systems(optimizers._e_wmmse_sweep,
                                                  *args)
        want, coefs0, mu0, x0, _ = solved_systems(loop_e_wmmse_sweep, *args)
        assert calls == 1 and len(coefs0) == len(v_all) - 1
        assert np.all(np.abs(coefs - coefs0) <= 1e-12 * coefs0)
        assert np.all(np.abs(mu - mu0) <= 1e-12 * mu0)
        assert np.all(np.abs(x - x0) <= 1e-12 * np.abs(x0).max(axis=1)[:, None])
        scale = np.linalg.norm(want, axis=1)
        if np.linalg.matrix_rank(ctx.h) == ctx.k_total:
            assert np.all(np.linalg.norm(got - want, axis=1) <= 1e-12 * scale)
        # the sensing step turns the probe; the budget rescale only scales it
        cos = abs(np.vdot(v_all[-1], got[-1])) / (np.linalg.norm(got[-1])
                                                  * np.linalg.norm(v_all[-1]))
        sensed += cos < 1.0 - 1e-9
    assert sensed >= 1


def test_e_wmmse_runs_within_budget():
    channels, targets, geom, weights, limits = build_problem(seed=51)
    cfg = OptimizerConfig(max_iters=12, epsilon=1e-8)
    sol, trace = run_e_wmmse(start_instance(channels, targets, geom), weights,
                             limits, SIGMA_N2, SIGMA_S2, cfg)
    assert sol.total_power() <= limits.p_max * (1.0 + 1e-9)
    beams = sol.stacked_beams()
    assert np.allclose(np.linalg.norm(beams, axis=1), 1.0, atol=1e-9)
    assert len(trace.objectives) == trace.iterations_used + 1
    # closed-form updates with the sensing penalty carry no per-step
    # acceptance test, so no monotonicity assertion here (by design)
    assert np.all(np.isfinite(trace.objectives))


def test_e_wmmse_sensing_step_prices_a_dominant_echo_without_cancellation(
        monkeypatch):
    # target 1's echo is ~1e20 times target 0's, so "total minus own" would
    # lose target 0's echo from target 1's clutter; p_d_min > p_fa turns on
    # the sensing step, which prices the echoes with the shared kernel
    channels, _, geom, weights, _ = build_problem(seed=52)
    targets = [SensingTarget(theta=0.3, phi=0.6, r=0.5, rcs=1e-10),
               SensingTarget(theta=-0.4, phi=-0.9, r=0.5, rcs=1.0)]
    limits = QosLimits(p_max=P_MAX, p_d_min=0.5, p_fa=1e-3)
    scene = SensingScene(targets, geom)
    instance = start_instance(channels, targets, geom)
    start = instance.start
    m2 = np.abs(scene.steer_c @ start.stacked_beams().T) ** 2
    echoes = scene.echo_power * (m2 @ start.stacked_powers()) ** 2
    assert echoes[0] < 1e-18 * echoes[1]
    sigma_s2 = 1e-6 * echoes[0]     # the weak echo dominates the noise

    steps = []
    real = optimizers.echo_sinrs

    def spy(m2, p, scene, s2):
        out = real(m2, p, scene, s2)
        if np.all(p == 1.0):         # aggregates: the sensing step's call
            steps.append((scene.echo_power * (m2 @ p) ** 2, out))
        return out

    monkeypatch.setattr(optimizers, "echo_sinrs", spy)
    run_e_wmmse(instance, weights, limits, SIGMA_N2, sigma_s2,
                OptimizerConfig(max_iters=3))
    assert steps
    for e, (_, d_l, gam) in steps:
        assert d_l[1] == pytest.approx(e[0] + sigma_s2, rel=1e-12)
        assert gam[1] == pytest.approx(e[1] / (e[0] + sigma_s2), rel=1e-12)
        # the subtraction this replaces is off by far more than roundoff
        assert abs(e.sum() - e[1] - e[0]) > 1e-3 * e[0]


# =====================================================================
# Fractional-programming baseline
# =====================================================================

@pytest.mark.parametrize("limits", [
    {},
    {"r_min": 2.0, "p_d_min": 0.9, "crlb_max": 1e-3},
], ids=["default_limits", "active_limits"])
def test_fp_private_only_and_monotone(limits):
    channels, targets, geom, weights, _ = build_problem(seed=52)
    cfg = OptimizerConfig(max_iters=10, epsilon=1e-8)
    sol, trace = run_fp(start_instance(channels, targets, geom),
                        QosLimits(p_max=P_MAX, **limits),
                        SIGMA_N2, SIGMA_S2, cfg)
    assert np.all(sol.p_common == 0.0)
    assert np.all(sol.rho == 0.0)
    assert trace.monotone
    # the trace is the private sum rate, not the penalized objective
    bd = rate_breakdown(sol, channels, SIGMA_N2)
    assert trace.objectives[-1] == pytest.approx(
        float(bd.private_rate.sum()), rel=1e-9)


# =====================================================================
# Adaptive weights
# =====================================================================

def adaptive_pair(algorithm):
    """algorithm's solve_instance results on a desk_tiny draw with adaptive
    weights off and on, and the draw's power budget."""
    cfg = preset_config("desk_tiny")
    data = generate_trial_data(cfg, np.random.default_rng(3))
    pair = []
    for flag in (False, True):
        cfg.optimizer.adaptive_weights = flag
        pair.append(solve_instance(algorithm, data.channels_est, data.targets,
                                   cfg))
    return pair, cfg.p_max_watts


def test_a_hao_sca_solve_with_adaptive_weights_stays_feasible_and_moves():
    ((sol_off, trace_off), (sol_on, trace_on)), p_max = \
        adaptive_pair("hao_sca")
    assert np.allclose(np.linalg.norm(sol_on.stacked_beams(), axis=1), 1.0,
                       atol=1e-12)
    assert sol_on.total_power() <= p_max * (1.0 + 1e-12)
    assert np.all(np.isfinite(trace_on.objectives))
    assert not np.array_equal(trace_on.objectives, trace_off.objectives)
    assert not np.array_equal(sol_on.stacked_beams(), sol_off.stacked_beams())


def test_fp_ignores_adaptive_weights():
    ((sol_off, trace_off), (sol_on, trace_on)), _ = adaptive_pair("fp")
    assert sol_on.stacked_beams().tobytes() == sol_off.stacked_beams().tobytes()
    assert sol_on.stacked_powers().tobytes() == \
        sol_off.stacked_powers().tobytes()
    assert trace_on.objectives.tobytes() == trace_off.objectives.tobytes()


def test_adaptive_weights_balance():
    w = ObjectiveWeights(0.25, 0.25, 0.25, 0.25)
    same = adaptive_weights(w, [2.0, 2.0, 2.0, 2.0])
    assert np.allclose(same.as_array(), w.as_array(), atol=1e-12)
    skew = adaptive_weights(w, [100.0, 1.0, 1.0, 1.0])
    assert skew.alpha_rate < 0.25
    assert skew.as_array().sum() == pytest.approx(1.0)
    zero = adaptive_weights(w, [0.0, 0.0, 0.0, 0.0])
    assert np.allclose(zero.as_array(), w.as_array())
