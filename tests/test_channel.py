import numpy as np
import pytest

from holo_isac.channel import (
    PathComponent,
    PathSampler,
    SensingTarget,
    condition_number,
    draw_channels,
    free_space_beta,
    generate_user_channel,
    spatial_correlation,
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

def test_path_component_validation():
    with pytest.raises(ValueError):
        PathComponent(0.1, 0.1, 1.0, -0.2)
    with pytest.raises(ValueError):
        PathComponent(0.1, 0.1, 0.0, 0.5)


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
    for _ in range(20):
        paths = generate_user_channel(g, rng, sampler).paths
        assert len(paths) == 5
        for p in paths:
            assert sampler.theta_lo <= p.theta <= sampler.theta_hi
            assert sampler.phi_lo <= p.phi <= sampler.phi_hi
            assert lo <= p.r <= hi
            assert p.sigma2 == pytest.approx(0.2)


# =====================================================================
# User channels
# =====================================================================

def test_generate_user_channel_shape_and_beta():
    g = desk_geom()
    rng = np.random.default_rng(7)
    ch = generate_user_channel(g, rng)
    assert ch.h.shape == (64,)
    assert ch.beta == pytest.approx(free_space_beta(g, ch.paths[0].r))
    explicit = generate_user_channel(g, rng, beta=2.5)
    assert explicit.beta == 2.5


def test_channel_mean_energy_statistics():
    # E||h||^2 = beta * E||a||^2 under unit-sum power fractions; check the
    # ratio against the sampled mean steering energy with a generous band
    g = desk_geom(4, 4)
    sampler = PathSampler(num_paths=4)
    rng = np.random.default_rng(2024)
    h_energy, a_energy = [], []
    for _ in range(400):
        ch = generate_user_channel(g, rng, sampler, beta=1.0)
        h_energy.append(np.linalg.norm(ch.h) ** 2)
        for p in ch.paths:
            a = array_response(g, p.theta, p.phi, p.r)
            a_energy.append(p.sigma2 * np.linalg.norm(a) ** 2)
    ratio = np.mean(h_energy) / (4 * np.mean(a_energy))
    assert 0.8 < ratio < 1.2


def test_channel_sums_the_paths_in_draw_order():
    # one response per path, the path gains drawn after all paths, and h
    # accumulated path by path: the draw a per-path loop makes, bit for bit
    g = desk_geom(4, 4)
    sampler = PathSampler(num_paths=6)
    for seed in range(3):
        ch = generate_user_channel(g, np.random.default_rng(seed), sampler)
        h, paths = loop_user_channel(g, np.random.default_rng(seed), sampler)
        assert ch.paths == [PathComponent(*p, 1.0 / 6) for p in paths]
        assert ch.beta == free_space_beta(g, paths[0][2])
        assert ch.h.tobytes() == h.tobytes()


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
    h, _, beta = draw_channels(g, np.random.default_rng(0), 2, sampler,
                               beta=2.5)
    assert beta == [2.5, 2.5]
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
    h = np.vstack([generate_user_channel(g, rng).h for _ in range(3)])
    own = init_hao_sca(h, targets, g, 1, 1.0, 1e-9)
    given = init_hao_sca(h, targets, g, 1, 1.0, 1e-9, steer=table)
    assert own.w_sensing.tobytes() == given.w_sensing.tobytes()


def test_free_space_beta_hand_value():
    g = desk_geom()
    assert free_space_beta(g, 2.0) == pytest.approx(
        (3e-3 / (4.0 * np.pi * 2.0)) ** 2, rel=1e-14)


# =====================================================================
# Spatial correlation and conditioning
# =====================================================================

def test_spatial_correlation_structure():
    g = desk_geom(4, 4)
    paths = [PathComponent(0.2, 0.5, 0.1, 0.5), PathComponent(-0.4, 1.5, 0.2, 0.5)]
    cov = spatial_correlation(g, paths)
    assert np.allclose(cov, cov.conj().T, atol=1e-14)
    assert np.all(np.linalg.eigvalsh(cov) > -1e-12)
    trace_expected = sum(
        p.sigma2 * np.linalg.norm(array_response(g, p.theta, p.phi, p.r)) ** 2
        for p in paths
    )
    assert np.trace(cov).real == pytest.approx(trace_expected, rel=1e-12)


def test_spatial_correlation_fraction_check():
    g = desk_geom(4, 4)
    with pytest.raises(ValueError):
        spatial_correlation(g, [PathComponent(0.1, 0.1, 0.1, 0.7)])


def test_condition_number_cases():
    assert condition_number(np.eye(4)) == pytest.approx(1.0)
    assert condition_number(np.diag([4.0, 2.0, 1.0])) == pytest.approx(4.0)
    rank1 = np.outer([1.0, 1.0], [1.0, 1.0])
    assert condition_number(rank1) == np.inf
    with pytest.raises(ValueError):
        condition_number(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        condition_number(np.zeros((2, 3)))


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
