import numpy as np
import pytest

from holo_isac.rates import (
    Grouping,
    RsNomaSolution,
    default_grouping,
    rate_breakdown,
)
from oracles import (
    common_interference,
    common_rate,
    group_common_allocation,
    private_interference,
    private_rate,
    user_total_rate,
)


# =====================================================================
# Grouping
# =====================================================================

def test_grouping_validation():
    with pytest.raises(ValueError):
        Grouping(assignment=[0, 0], sic_order=[[0]])  # user 1 uncovered
    with pytest.raises(ValueError):
        Grouping(assignment=[0, 1], sic_order=[[0, 1], []])  # wrong group
    with pytest.raises(ValueError):
        Grouping(assignment=[0, 2], sic_order=[[0], [1]])  # index out of range


def test_groupings_compare_by_sic_orders():
    a = Grouping(assignment=[0, 1, 0], sic_order=[[0, 2], [1]])
    assert a == Grouping(assignment=np.array([0, 1, 0]),
                         sic_order=[np.array([0, 2]), [1]])
    assert a != Grouping(assignment=[0, 1, 0], sic_order=[[2, 0], [1]])
    assert a != Grouping(assignment=[0, 0, 0], sic_order=[[0, 2, 1]])
    assert a != [[0, 2], [1]]
    with pytest.raises(TypeError):
        hash(a)


def test_interference_mask_two_groups():
    g = Grouping(assignment=[0, 0, 1, 1], sic_order=[[0, 1], [2, 3]])
    mask = g.interference_mask()
    # user 0 decodes first: own later member and the whole other group interfere
    assert list(mask[0]) == [False, True, True, True]
    # user 1 decodes second: user 0 already stripped
    assert list(mask[1]) == [False, False, True, True]
    assert list(mask[2]) == [True, True, False, True]
    assert list(mask[3]) == [True, True, False, False]


def test_default_grouping_snake_fold():
    # norms strictly decreasing with user index, so the gain ranking is the
    # identity and the snake deal pairs strongest with weakest
    channels = np.diag(np.arange(8, 0, -1)).astype(complex)
    g = default_grouping(channels, 4)
    assert list(g.assignment) == [0, 1, 2, 3, 3, 2, 1, 0]
    assert g.sic_order[0] == [0, 7]
    assert g.sic_order[3] == [3, 4]


def test_default_grouping_remainder_goes_last():
    channels = np.diag(np.arange(5, 0, -1)).astype(complex)
    g = default_grouping(channels, 2)
    assert list(g.assignment) == [0, 1, 1, 0, 1]
    assert g.sic_order[1] == [1, 2, 4]
    with pytest.raises(ValueError):
        default_grouping(channels, 6)


# =====================================================================
# Hand-computed two-user instance
# =====================================================================

def hand_instance():
    grouping = Grouping(assignment=[0, 0], sic_order=[[0, 1]])
    channels = np.array([[1.0, 0.0], [0.0, 2.0]], dtype=complex)
    sol = RsNomaSolution(
        grouping=grouping,
        w_common=np.array([[1.0, 1.0]]) / np.sqrt(2.0),
        w_private=np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex),
        w_sensing=np.array([1.0, 0.0], dtype=complex),
        p_common=np.array([2.0]),
        p_private=np.array([1.0, 0.5]),
        p_sensing=0.25,
        rho=np.array([0.3, 0.1]),
    )
    return sol, channels, 0.5


def test_hand_interference_values():
    sol, h, s2 = hand_instance()
    # user 0 common stage hears both privates and the probe: 1 + 0 + 0.25
    assert common_interference(0, sol, h) == pytest.approx(1.25)
    # user 1: own-gain 4 * 0.5 from its private, probe invisible
    assert common_interference(1, sol, h) == pytest.approx(2.0)
    # private stage: user 0 keeps user 1's (later) private = 0 gain, probe 0.25
    assert private_interference(0, sol, h) == pytest.approx(0.25)
    # user 1 decodes last inside the group: only the probe could remain (gain 0)
    assert private_interference(1, sol, h) == pytest.approx(0.0)


def test_hand_rates_and_allocation():
    sol, h, s2 = hand_instance()
    # common SINRs: 0.5*2/1.75 and 2*2/2.5
    c0 = np.log2(1.0 + 1.0 / 1.75)
    c1 = np.log2(1.0 + 1.6)
    assert common_rate(0, sol, h, s2) == pytest.approx(c0, rel=1e-12)
    assert common_rate(1, sol, h, s2) == pytest.approx(c1, rel=1e-12)
    # private SINRs: 1/0.75 and 2/0.5
    p0 = np.log2(1.0 + 4.0 / 3.0)
    p1 = np.log2(5.0)
    assert private_rate(0, sol, h, s2) == pytest.approx(p0, rel=1e-12)
    assert private_rate(1, sol, h, s2) == pytest.approx(p1, rel=1e-12)

    # group capacity is the worst common rate; rho 0.3/0.1 gives 3:1 shares
    alloc = group_common_allocation(0, sol, h, s2)
    c_g = min(c0, c1)
    assert alloc == pytest.approx([0.75 * c_g, 0.25 * c_g], rel=1e-12)

    assert user_total_rate(0, sol, h, s2) == pytest.approx(0.75 * c_g + p0)
    # the package's kernel gives the same hand values
    bd = rate_breakdown(sol, h, s2)
    assert bd.common_rate == pytest.approx([c0, c1], rel=1e-12)
    assert bd.private_rate == pytest.approx([p0, p1], rel=1e-12)
    assert bd.allocated_common == pytest.approx([0.75 * c_g, 0.25 * c_g],
                                                rel=1e-12)
    assert bd.sum_rate == pytest.approx(c_g + p0 + p1, rel=1e-12)


def test_breakdown_matches_scalar_path():
    rng = np.random.default_rng(314)
    k, m = 6, 8
    channels = rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m))
    grouping = default_grouping(channels, 3)
    w = rng.standard_normal((3 + k + 1, m)) + 1j * rng.standard_normal((3 + k + 1, m))
    w /= np.linalg.norm(w, axis=1)[:, None]
    sol = RsNomaSolution(
        grouping=grouping,
        w_common=w[:3], w_private=w[3:3 + k], w_sensing=w[-1],
        p_common=rng.uniform(0.1, 2.0, 3),
        p_private=rng.uniform(0.1, 2.0, k),
        p_sensing=0.5,
        rho=rng.uniform(0.0, 1.0, k),
    )
    s2 = 0.1
    bd = rate_breakdown(sol, channels, s2)
    for user in range(k):
        assert bd.common_sinr[user] * (common_interference(user, sol, channels) + s2) \
            == pytest.approx(np.abs(channels[user].conj() @ w[grouping.assignment[user]]) ** 2
                             * sol.p_common[grouping.assignment[user]], rel=1e-10)
        assert bd.private_sinr[user] * (private_interference(user, sol, channels) + s2) \
            == pytest.approx(np.abs(channels[user].conj() @ w[3 + user]) ** 2
                             * sol.p_private[user], rel=1e-10)
        assert bd.common_rate[user] == pytest.approx(
            common_rate(user, sol, channels, s2), rel=1e-10)
        assert bd.private_rate[user] == pytest.approx(
            private_rate(user, sol, channels, s2), rel=1e-10)
        assert bd.total_rate[user] == pytest.approx(
            user_total_rate(user, sol, channels, s2), rel=1e-10)
    for g in range(3):
        members = grouping.members(g)
        assert bd.allocated_common[members].sum() == pytest.approx(
            bd.group_common_rate[g], rel=1e-10)


def test_zero_rho_group_splits_uniformly():
    sol, h, s2 = hand_instance()
    sol.rho = np.zeros(2)
    alloc = group_common_allocation(0, sol, h, s2)
    assert alloc[0] == pytest.approx(alloc[1])
    bd = rate_breakdown(sol, h, s2)
    assert bd.allocated_common == pytest.approx(alloc, rel=1e-12)


def test_total_power_and_stacking():
    sol, _, _ = hand_instance()
    assert sol.total_power() == pytest.approx(2.0 + 1.5 + 0.25)
    assert sol.stacked_beams().shape == (4, 2)
    assert np.all(sol.stacked_powers() == [2.0, 1.0, 0.5, 0.25])
