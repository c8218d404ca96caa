import numpy as np
import pytest

from holo_isac.channel import SensingTarget
from holo_isac.geometry import ArrayGeometry
from holo_isac.objective import (
    ObjectiveWeights,
    QosLimits,
    composite_objective,
    sum_rate_upper_bound,
)
from holo_isac.rates import Grouping, RsNomaSolution
from oracles import (critical_correlation, dense_sensing_sinr,
                     energy_efficiency, jain_fairness, rs_gain_lower_bound,
                     sensing_utility, user_total_rate)

SIGMA_N2 = 1e-12
SIGMA_S2 = 10.0 ** (-11.5)


def desk_geom():
    lam = 3.0e-3
    return ArrayGeometry(mx=4, my=4, dx=lam / 4, dy=lam / 4, wavelength=lam)


def build_instance(seed=21, k=4, g=2):
    rng = np.random.default_rng(seed)
    geom = desk_geom()
    m = geom.m_total
    channels = 1e-4 * (rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m)))
    w = rng.standard_normal((g + k + 1, m)) + 1j * rng.standard_normal((g + k + 1, m))
    w /= np.linalg.norm(w, axis=1)[:, None]
    grouping = Grouping(assignment=[i % g for i in range(k)],
                        sic_order=[[i for i in range(k) if i % g == j] for j in range(g)])
    sol = RsNomaSolution(
        grouping=grouping,
        w_common=w[:g], w_private=w[g:g + k], w_sensing=w[-1],
        p_common=rng.uniform(0.5, 2.0, g),
        p_private=rng.uniform(0.5, 2.0, k),
        p_sensing=float(rng.uniform(0.5, 2.0)),
        rho=rng.uniform(0.0, 1.0, k),
    )
    targets = [SensingTarget(theta=0.3, phi=0.4, r=0.5, rcs=0.6),
               SensingTarget(theta=-0.2, phi=-1.2, r=0.8, rcs=0.9)]
    return sol, channels, targets, geom


# =====================================================================
# Weights, limits, scalar components
# =====================================================================

def test_weights_renormalize_and_validate():
    w = ObjectiveWeights(2.0, 1.0, 1.0, 0.0)
    assert w.as_array().sum() == pytest.approx(1.0, abs=1e-15)
    assert w.alpha_rate == pytest.approx(0.5)
    assert w.alpha_sensing == pytest.approx(0.25)
    with pytest.raises(ValueError):
        ObjectiveWeights(-0.1, 0.5, 0.3, 0.3)
    with pytest.raises(ValueError):
        ObjectiveWeights(0.0, 0.0, 0.0, 0.0)


def test_qos_limits_validation():
    QosLimits(p_max=1.0)
    with pytest.raises(ValueError):
        QosLimits(p_max=0.0)
    with pytest.raises(ValueError):
        QosLimits(p_max=1.0, p_fa=1.0)


def test_sensing_utility():
    assert sensing_utility(0.0) == 0.0
    assert sensing_utility(3.0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        sensing_utility(-1e-6)


def test_energy_efficiency():
    assert energy_efficiency(6.0, 3.0) == pytest.approx(2.0)
    assert energy_efficiency(0.0, 0.0) == 0.0
    with pytest.raises(ValueError):
        energy_efficiency(1.0, 0.0)


def test_jain_fairness():
    assert jain_fairness([2.0, 2.0, 2.0]) == pytest.approx(1.0)
    assert jain_fairness([5.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)
    assert jain_fairness([1.0, 2.0, 3.0]) == pytest.approx(6.0 / 7.0, rel=1e-14)
    with pytest.raises(ValueError):
        jain_fairness([])
    with pytest.raises(ValueError):
        jain_fairness([1.0, -0.5])
    with pytest.raises(ValueError):
        jain_fairness([0.0, 0.0])


# =====================================================================
# Composite objective
# =====================================================================

def test_composite_components_match_scalar_routes():
    sol, h, targets, geom = build_instance()
    weights = ObjectiveWeights(0.6, 0.2, 0.1, 0.1)
    value, comps = composite_objective(sol, h, targets, geom, weights,
                                       SIGMA_N2, SIGMA_S2)
    rates = [user_total_rate(k, sol, h, SIGMA_N2) for k in range(sol.num_users)]
    assert comps.sum_rate == pytest.approx(sum(rates), rel=1e-12)
    util = sum(sensing_utility(dense_sensing_sinr(l, sol, targets, SIGMA_S2, geom))
               for l in range(2))
    assert comps.sensing_utility == pytest.approx(util, rel=1e-12)
    assert comps.energy_efficiency == pytest.approx(
        sum(rates) / sol.total_power(), rel=1e-12)
    assert comps.fairness == pytest.approx(jain_fairness(rates), rel=1e-12)
    assert value == pytest.approx(float(weights.as_array() @ comps.as_array()),
                                  rel=1e-12)


def test_composite_is_linear_in_weights():
    sol, h, targets, geom = build_instance(seed=22)
    wa = ObjectiveWeights(1.0, 0.0, 0.0, 0.0)
    wb = ObjectiveWeights(0.0, 1.0, 0.0, 0.0)
    va, comps = composite_objective(sol, h, targets, geom, wa, SIGMA_N2, SIGMA_S2)
    vb, _ = composite_objective(sol, h, targets, geom, wb, SIGMA_N2, SIGMA_S2)
    mix = ObjectiveWeights(0.7, 0.3, 0.0, 0.0)
    vmix, _ = composite_objective(sol, h, targets, geom, mix, SIGMA_N2, SIGMA_S2)
    assert vmix == pytest.approx(0.7 * va + 0.3 * vb, rel=1e-12)
    assert va == pytest.approx(comps.sum_rate, rel=1e-12)


# =====================================================================
# Closed-form rails
# =====================================================================

def test_sum_rate_upper_bound_orthonormal_hand_case():
    # two orthonormal users, P/sigma2 = 3: solo rail gives 2*log2(4) = 4,
    # spatial rail gives 2*log2(1 + 3/2) = 2.6438...; the min is the spatial one
    h = np.eye(2, dtype=complex)
    bound = sum_rate_upper_bound(h, p_max=3.0, sigma_n2=1.0)
    assert bound == pytest.approx(2.0 * np.log2(2.5), rel=1e-12)
    with pytest.raises(ValueError):
        sum_rate_upper_bound(h, p_max=0.0, sigma_n2=1.0)


def test_sum_rate_upper_bound_dominates_random_solo_user():
    rng = np.random.default_rng(27)
    h = rng.standard_normal((1, 8)) + 1j * rng.standard_normal((1, 8))
    p, s2 = 2.0, 0.3
    solo = np.log2(1.0 + p * np.sum(np.abs(h) ** 2) / s2)
    assert sum_rate_upper_bound(h, p, s2) <= solo + 1e-12


def test_critical_correlation():
    assert critical_correlation(1) == pytest.approx(0.0)
    assert critical_correlation(4) == pytest.approx(0.5, abs=1e-15)
    assert critical_correlation(100) == pytest.approx(0.9)
    with pytest.raises(ValueError):
        critical_correlation(0)


def test_rs_gain_lower_bound():
    h_bar = np.array([1.0 + 0.0j, 1.0 + 0.0j])
    # rho 0.6: log2(1 + 0.36*2*2 / (0.64*0.5)) = log2(5.5)
    val = rs_gain_lower_bound(0.6, 2.0, h_bar, 0.5)
    assert val == pytest.approx(np.log2(5.5), rel=1e-12)
    assert rs_gain_lower_bound(0.0, 2.0, h_bar, 0.5) == 0.0
    with pytest.raises(ValueError):
        rs_gain_lower_bound(1.0, 2.0, h_bar, 0.5)
    with pytest.raises(ValueError):
        rs_gain_lower_bound(0.5, -1.0, h_bar, 0.5)
