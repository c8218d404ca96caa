import math

import numpy as np
import pytest
import scipy.stats

from holo_isac.channel import SensingTarget
from holo_isac.geometry import ArrayGeometry, array_response
from holo_isac.rates import Grouping, RsNomaSolution
import holo_isac.sensing as sensing
from holo_isac.sensing import (
    SensingScene,
    crlb_closed_form,
    crlb_lower_bound,
    detection_probability,
    echo_sinrs,
    evaluate_sensing,
    fisher_information,
    q_function,
    q_inverse,
    sensing_sinr,
)
from oracles import (crlb_sinr_form, dense_sensing_sinr, sensing_channel,
                     total_covariance)

SIGMA_S2 = 10.0 ** (-11.5)


def desk_geom():
    lam = 3.0e-3
    return ArrayGeometry(mx=4, my=4, dx=lam / 4, dy=lam / 4, wavelength=lam)


def random_solution(rng, m, k=4, g=2):
    w = rng.standard_normal((g + k + 1, m)) + 1j * rng.standard_normal((g + k + 1, m))
    w /= np.linalg.norm(w, axis=1)[:, None]
    grouping = Grouping(assignment=[i % g for i in range(k)],
                        sic_order=[[i for i in range(k) if i % g == j] for j in range(g)])
    return RsNomaSolution(
        grouping=grouping,
        w_common=w[:g], w_private=w[g:g + k], w_sensing=w[-1],
        p_common=rng.uniform(0.5, 2.0, g),
        p_private=rng.uniform(0.5, 2.0, k),
        p_sensing=float(rng.uniform(0.5, 2.0)),
        rho=rng.uniform(0.0, 1.0, k),
    )


def some_targets(n=2):
    base = [SensingTarget(theta=0.2, phi=0.5, r=0.6, rcs=0.5),
            SensingTarget(theta=-0.4, phi=-1.0, r=0.9, rcs=1.0),
            SensingTarget(theta=0.1, phi=2.0, r=0.4, rcs=0.2)]
    return base[:n]


# =====================================================================
# Covariance and echo SINR
# =====================================================================

def test_total_covariance_trace_is_total_power():
    rng = np.random.default_rng(5)
    sol = random_solution(rng, 16)
    w = total_covariance(sol)
    assert w.shape == (16, 16)
    assert np.allclose(w, w.conj().T)
    evals = np.linalg.eigvalsh(w)
    assert evals.min() > -1e-12
    # unit-norm beams, so the trace collapses to the summed stream powers
    assert np.trace(w).real == pytest.approx(sol.total_power(), rel=1e-12)


def test_single_target_sinr_has_no_clutter():
    rng = np.random.default_rng(6)
    geom = desk_geom()
    sol = random_solution(rng, geom.m_total)
    t = some_targets(1)
    echo = sensing_channel(geom, t[0]).matrix
    expected = t[0].rcs * abs(np.trace(echo @ total_covariance(sol))) ** 2 / SIGMA_S2
    assert sensing_sinr(0, sol, t, SIGMA_S2, geom) == pytest.approx(expected, rel=1e-12)


def test_sensing_sinr_validation():
    rng = np.random.default_rng(7)
    geom = desk_geom()
    sol = random_solution(rng, geom.m_total)
    t = some_targets(2)
    with pytest.raises(ValueError):
        sensing_sinr(2, sol, t, SIGMA_S2, geom)
    with pytest.raises(ValueError):
        sensing_sinr(0, sol, t, 0.0, geom)


def test_fast_route_matches_trace_route():
    # the echo kernel over a stack of three design points, against the
    # dense traces of each one
    rng = np.random.default_rng(8)
    geom = desk_geom()
    sols = [random_solution(rng, geom.m_total) for _ in range(3)]
    targets = some_targets(3)
    scene = SensingScene(targets, geom)
    m2 = np.stack([np.abs(scene.steer_c @ sol.stacked_beams().T) ** 2
                   for sol in sols])
    p = sols[0].stacked_powers()
    for sol in sols:
        sol.p_common, sol.p_private, sol.p_sensing = (
            sols[0].p_common, sols[0].p_private, sols[0].p_sensing)
    _, _, fast = echo_sinrs(m2, p, scene, SIGMA_S2)
    assert fast.shape == (3, 3)
    for sol, row in zip(sols, fast):
        slow = np.array([
            dense_sensing_sinr(l, sol, targets, SIGMA_S2, geom) for l in range(3)
        ])
        assert np.allclose(row, slow, rtol=1e-12, atol=0.0)


def test_sensing_sinrs_matches_dense_oracle():
    rng = np.random.default_rng(13)
    geom = desk_geom()
    targets = some_targets(3)
    for _ in range(5):
        sol = random_solution(rng, geom.m_total)
        fast = SensingScene(targets, geom).sinrs(sol, SIGMA_S2)
        dense = np.array([dense_sensing_sinr(l, sol, targets, SIGMA_S2, geom)
                          for l in range(3)])
        assert np.allclose(fast, dense, rtol=1e-12, atol=0.0)
        for l in range(3):
            assert sensing_sinr(l, sol, targets, SIGMA_S2, geom) == fast[l]
    assert SensingScene([], geom).sinrs(sol, SIGMA_S2).shape == (0,)


def test_sensing_sinrs_finite_for_an_all_but_missed_target():
    rng = np.random.default_rng(14)
    geom = desk_geom()
    targets = some_targets(2)
    sol = random_solution(rng, geom.m_total)
    # turn every beam away from target 0: its echo is roundoff-sized
    a = array_response(geom, targets[0].theta, targets[0].phi, targets[0].r)
    a = a / np.linalg.norm(a)
    beams = sol.stacked_beams()
    beams = beams - np.outer(beams @ a.conj(), a)
    beams /= np.linalg.norm(beams, axis=1)[:, None]
    g = sol.num_groups
    k = sol.num_users
    sol.w_common, sol.w_private, sol.w_sensing = (
        beams[:g], beams[g:g + k], beams[-1])
    fast = SensingScene(targets, geom).sinrs(sol, SIGMA_S2)
    assert np.all(np.isfinite(fast)) and np.all(fast >= 0.0)
    assert fast[0] < 1e-20 * fast[1]
    # the well-lit target sees the missed one as (almost no) clutter
    assert fast[1] == pytest.approx(
        dense_sensing_sinr(1, sol, targets, SIGMA_S2, geom), rel=1e-12)


def test_echo_clutter_does_not_cancel_against_a_dominant_echo():
    # target 1's echo is ~1e16 times target 0's, so "total minus own" loses
    # target 0's share of target 1's clutter entirely
    geom = desk_geom()
    targets = [SensingTarget(theta=0.2, phi=0.5, r=0.6, rcs=1e-16),
               SensingTarget(theta=-0.4, phi=-1.0, r=0.9, rcs=1.0)]
    rng = np.random.default_rng(15)
    sol = random_solution(rng, geom.m_total)
    steering = np.array([array_response(geom, t.theta, t.phi, t.r)
                         for t in targets])
    echo_power = np.array([t.rcs * sensing_channel(geom, t).amplitude ** 2
                           for t in targets])
    beam_sum = (np.abs(steering.conj() @ sol.stacked_beams().T) ** 2
                @ sol.stacked_powers())
    echoes = echo_power * beam_sum**2
    sigma_s2 = 1e-6 * echoes[0]     # the weak echo dominates the noise
    expected = echoes[1] / (echoes[0] + sigma_s2)
    got = SensingScene(targets, geom).sinrs(sol, sigma_s2)
    assert got[1] == pytest.approx(expected, rel=1e-12)
    assert got[0] == pytest.approx(echoes[0] / (echoes[1] + sigma_s2), rel=1e-12)


# =====================================================================
# Gaussian tail chain
# =====================================================================

def test_q_function_against_stdlib_erfc():
    """Q is the standard library's erfc bit for bit, on arrays of any
    shape, and within 1e-13 relative of scipy's normal tail, an
    implementation of its own."""
    xs = np.linspace(-6.0, 6.0, 121)
    ours = q_function(xs)
    erfc = np.array([0.5 * math.erfc(v / math.sqrt(2.0)) for v in xs])
    assert ours.tobytes() == erfc.tobytes()
    ref = scipy.stats.norm.sf(xs)
    assert np.all(np.abs(ours - ref) <= 1e-13 * ref)
    assert q_function(0.0) == 0.5
    # any shape, element by element
    grid = xs.reshape(11, 11)
    assert q_function(grid).tobytes() == ours.tobytes()


def test_q_inverse_round_trip_and_validation():
    for p in [1e-6, 1e-3, 0.05, 0.3, 0.5, 0.9, 0.999]:
        x = q_inverse(p)
        assert q_function(x) == pytest.approx(p, rel=1e-10, abs=1e-15)
    assert abs(q_inverse(0.5)) < 1e-12
    for bad in [0.0, 1.0, -0.1, 1.5]:
        with pytest.raises(ValueError):
            q_inverse(bad)


def test_detection_probability_behaviour():
    for p_fa in [1e-3, 0.05, 0.5]:
        assert detection_probability(0.0, p_fa) == p_fa
    gammas = np.linspace(0.0, 30.0, 40)
    pds = [detection_probability(g, 1e-3) for g in gammas]
    assert all(b > a for a, b in zip(pds, pds[1:]))
    assert detection_probability(50.0, 1e-3) > 0.9999
    with pytest.raises(ValueError):
        detection_probability(-0.1, 1e-3)
    with pytest.raises(ValueError):
        detection_probability(0.0, 1.0)


# =====================================================================
# Fisher information and CRLB
# =====================================================================

def test_fisher_times_crlb_is_near_one():
    # the two routes use independent steering derivatives (analytic vs
    # finite difference), so their product probes both implementations
    rng = np.random.default_rng(9)
    geom = desk_geom()
    for _ in range(10):
        sol = random_solution(rng, geom.m_total)
        t = SensingTarget(theta=float(rng.uniform(-0.8, 0.8)),
                          phi=float(rng.uniform(-2.5, 2.5)),
                          r=float(rng.uniform(0.3, 1.5)), rcs=0.7)
        prod = crlb_closed_form(t, sol, geom, SIGMA_S2) * fisher_information(
            t, sol, geom, SIGMA_S2)
        assert 0.99 < prod < 1.01


def test_crlb_scaling_and_degenerate_cases():
    rng = np.random.default_rng(10)
    geom = desk_geom()
    sol = random_solution(rng, geom.m_total)
    t = some_targets(1)[0]
    base = crlb_closed_form(t, sol, geom, SIGMA_S2)
    doubled = sol.copy()
    doubled.p_sensing = 2.0 * sol.p_sensing
    assert crlb_closed_form(t, doubled, geom, SIGMA_S2) == pytest.approx(
        base / 2.0, rel=1e-12)
    dead = sol.copy()
    dead.p_sensing = 0.0
    assert crlb_closed_form(t, dead, geom, SIGMA_S2) == np.inf
    with pytest.raises(ValueError):
        fisher_information(t, sol, geom, 0.0)


def test_crlb_sinr_form_and_floor():
    rng = np.random.default_rng(11)
    geom = desk_geom()
    sol = random_solution(rng, geom.m_total)
    t = some_targets(1)[0]
    assert crlb_sinr_form(t, 0.0, geom, SIGMA_S2) == np.inf
    finite = crlb_sinr_form(t, 3.0, geom, SIGMA_S2)
    assert 0.0 < finite < np.inf
    # probe power can never beat the full budget on the probe
    p_max = sol.total_power()
    assert crlb_lower_bound(t, geom, SIGMA_S2, p_max) <= crlb_closed_form(
        t, sol, geom, SIGMA_S2)
    with pytest.raises(ValueError):
        crlb_lower_bound(t, geom, SIGMA_S2, 0.0)


def test_evaluate_sensing_bundles_scalar_routes():
    rng = np.random.default_rng(12)
    geom = desk_geom()
    sol = random_solution(rng, geom.m_total)
    targets = some_targets(2)
    q_inverse.cache_clear()
    ev = evaluate_sensing(sol, targets, geom, SIGMA_S2, p_fa=1e-3,
                          p_max=sol.total_power())
    # the Q^-1(p_fa) bisection runs once per false-alarm rate, not per target
    assert q_inverse.cache_info().misses == 1
    assert ev.num_targets == 2
    for l in range(2):
        g = dense_sensing_sinr(l, sol, targets, SIGMA_S2, geom)
        assert ev.sinr[l] == pytest.approx(g, rel=1e-12)
        assert ev.sinr_db[l] == pytest.approx(10.0 * np.log10(g), rel=1e-12)
        assert ev.detection_prob[l] == detection_probability(ev.sinr[l], 1e-3)
        assert ev.crlb[l] == pytest.approx(
            crlb_closed_form(targets[l], sol, geom, SIGMA_S2), rel=1e-12)
        assert ev.crlb_floor[l] <= ev.crlb[l]


def test_scene_takes_each_derivative_norm_once(monkeypatch):
    # the CRLB and its floor share one ||da/dtheta||^2 per target
    calls = []
    real = sensing.steering_derivative

    def counted(*args, **kwargs):
        calls.append(args[1:4])
        return real(*args, **kwargs)

    monkeypatch.setattr(sensing, "steering_derivative", counted)
    rng = np.random.default_rng(16)
    geom = desk_geom()
    sol = random_solution(rng, geom.m_total)
    targets = some_targets(3)
    scene = SensingScene(targets, geom)
    ev = scene.evaluation(scene.sinrs(sol, SIGMA_S2), sol.p_sensing, SIGMA_S2,
                          1e-3, sol.total_power())
    scene.crlb(2.0 * sol.p_sensing, SIGMA_S2)
    assert len(calls) == len(targets)
    for l, t in enumerate(targets):
        assert ev.crlb[l] == crlb_closed_form(t, sol, geom, SIGMA_S2)
        assert ev.crlb_floor[l] == crlb_lower_bound(t, geom, SIGMA_S2,
                                                    sol.total_power())
