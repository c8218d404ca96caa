import numpy as np
import pytest

from holo_isac.channel import (
    PathSampler,
    SensingTarget,
    draw_channels,
    free_space_beta,
    target_responses,
)
from holo_isac.geometry import ArrayGeometry, array_response
from holo_isac.optimizers import init_hao_sca
from holo_isac.sensing import SensingScene
from oracles import loop_user_channel, sensing_channel


def desk_geom(mx=8, my=8, wavelength=3e-3):
    d = 0.25 * wavelength
    return ArrayGeometry(mx, my, d, d, wavelength)


# =====================================================================
# Value-object validation
# =====================================================================

def test_sensing_target_validation():
    with pytest.raises(ValueError):
        SensingTarget(0.1, 0.1, 1.0, rcs=0.0)
    with pytest.raises(ValueError):
        SensingTarget(0.1, 0.1, -1.0, rcs=0.5)


# =====================================================================
# Path sampler
# =====================================================================

def test_range_bounds_defaults():
    g = desk_geom()
    lo, hi = PathSampler().range_bounds(g)
    assert lo == pytest.approx(max(0.1 * g.rayleigh_distance, 10.0 * g.dx))
    assert hi == pytest.approx(2.0 * g.rayleigh_distance)


def test_range_bounds_empty_interval():
    g = desk_geom()
    with pytest.raises(ValueError):
        PathSampler(r_lo=1.0, r_hi=0.5).range_bounds(g)


def test_draw_paths_respects_bounds():
    g = desk_geom()
    sampler = PathSampler(num_paths=5)
    rng = np.random.default_rng(42)
    lo, hi = sampler.range_bounds(g)
    _, coords, _ = draw_channels(g, rng, 20, sampler)
    assert coords.shape == (20, 5, 3)
    theta, phi, r = coords.transpose(2, 0, 1)
    assert np.all((sampler.theta_lo <= theta) & (theta <= sampler.theta_hi))
    assert np.all((sampler.phi_lo <= phi) & (phi <= sampler.phi_hi))
    assert np.all((lo <= r) & (r <= hi))


# =====================================================================
# User channels
# =====================================================================

def test_draw_channels_shape_and_beta():
    g = desk_geom()
    h, coords, beta = draw_channels(g, np.random.default_rng(7), 3)
    assert h.shape == (3, 64)
    assert beta == [free_space_beta(g, r) for r in coords[:, 0, 2]]


def test_channel_mean_energy_statistics():
    # E||h||^2 = beta * E||a||^2 under equal path power fractions; check the
    # ratio against the sampled mean steering energy with a generous band
    g = desk_geom(4, 4)
    sampler = PathSampler(num_paths=4)
    h, coords, beta = draw_channels(g, np.random.default_rng(2024), 400,
                                    sampler)
    h_energy = np.sum(np.abs(h) ** 2, axis=1) / np.array(beta)
    a = array_response(g, *coords.transpose(2, 0, 1))
    ratio = np.mean(h_energy) / np.mean(np.sum(np.abs(a) ** 2, axis=-1))
    assert 0.8 < ratio < 1.2


def test_channel_sums_the_paths_in_draw_order():
    # one response per path, the path gains drawn after all paths, and h
    # accumulated path by path: the draw a per-path loop makes, bit for bit
    g = desk_geom(4, 4)
    sampler = PathSampler(num_paths=6)
    for seed in range(3):
        h, coords, beta = draw_channels(g, np.random.default_rng(seed), 1,
                                        sampler)
        loop, paths = loop_user_channel(g, np.random.default_rng(seed),
                                        sampler)
        assert coords[0].tolist() == [list(p) for p in paths]
        assert beta == [free_space_beta(g, paths[0][2])]
        assert h[0].tobytes() == loop.tobytes()


@pytest.mark.parametrize("mx, my, users, num_paths", [
    (4, 4, 13, 6),      # chunks of two users and a lone last one
    (4, 4, 1, 6),       # one user: a chunk of one
    (3, 5, 7, 1),       # one path: one chunk of every user
    (8, 8, 24, 4),
])
def test_draw_channels_equals_the_per_user_loop(mx, my, users, num_paths):
    g = desk_geom(mx, my)
    sampler = PathSampler(num_paths=num_paths)
    for seed in range(3):
        rng = np.random.default_rng(seed)
        h, coords, beta = draw_channels(g, rng, users, sampler)
        loop = np.random.default_rng(seed)
        rows = [loop_user_channel(g, loop, sampler) for _ in range(users)]
        assert h.tobytes() == np.vstack([row for row, _ in rows]).tobytes()
        assert coords.tolist() == [[list(p) for p in paths]
                                   for _, paths in rows]
        assert beta == [free_space_beta(g, paths[0][2]) for _, paths in rows]
        # the stream is left where the loop leaves it
        assert rng.bit_generator.state == loop.bit_generator.state
    assert draw_channels(g, np.random.default_rng(0), 0, sampler)[0].shape \
        == (0, g.m_total)


def test_target_responses_equal_the_per_target_rows():
    g = desk_geom(4, 4)
    rng = np.random.default_rng(5)
    targets = [SensingTarget(rng.uniform(-1, 1), rng.uniform(-3, 3),
                             rng.uniform(0.05, 0.4), rng.uniform(0.1, 1.0))
               for _ in range(5)]
    table = target_responses(g, targets)
    lone = np.vstack([array_response(g, t.theta, t.phi, t.r)
                      for t in targets])
    assert table.tobytes() == lone.tobytes()
    assert SensingScene(targets, g).steer.tobytes() == lone.tobytes()
    empty = target_responses(g, [])
    assert empty.shape == (0, g.m_total) and empty.dtype == complex
    # the start's sensing mix is the same from a given table
    h = draw_channels(g, rng, 3)[0]
    own = init_hao_sca(h, targets, g, 1, 1.0, 1e-9)
    given = init_hao_sca(h, targets, g, 1, 1.0, 1e-9, steer=table)
    assert own.w_sensing.tobytes() == given.w_sensing.tobytes()


def test_free_space_beta_hand_value():
    g = desk_geom()
    assert free_space_beta(g, 2.0) == pytest.approx(
        (3e-3 / (4.0 * np.pi * 2.0)) ** 2, rel=1e-14)


# =====================================================================
# Sensing channel
# =====================================================================

def test_sensing_channel_rank_one_and_radar_equation():
    g = desk_geom()
    t = SensingTarget(theta=0.3, phi=-0.8, r=0.2, rcs=0.7,
                      gain_tx=2.0, gain_rx=3.0)
    sc = sensing_channel(g, t)
    expected_amp = np.sqrt(
        0.7 * 2.0 * 3.0 * g.wavelength**2 / ((4.0 * np.pi) ** 3 * 0.2**4))
    assert sc.amplitude == pytest.approx(expected_amp, rel=1e-12)
    assert sc.phase == pytest.approx(-4.0 * np.pi * 0.2 / g.wavelength)
    a = array_response(g, t.theta, t.phi, t.r)
    manual = sc.amplitude * np.exp(1j * sc.phase) * np.outer(a, a.conj())
    assert np.allclose(sc.matrix, manual, rtol=1e-12)
    # rank one: second singular value vanishes
    s = np.linalg.svd(sc.matrix, compute_uv=False)
    assert s[1] < 1e-12 * s[0]
