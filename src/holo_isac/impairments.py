"""Transceiver hardware impairments: mutual coupling, oscillator phase noise,
I/Q imbalance, and channel-estimate corruption.

The transmit signal passes through the cascade D_PN @ D_IQ @ C: a static
coupling matrix, a diagonal I/Q-imbalance response, and a diagonal phase-noise
rotation. Each stage can be disabled independently.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .geometry import ArrayGeometry, vector_norm


# =====================================================================
# Mutual coupling
# =====================================================================

def _ring_distances(geom: ArrayGeometry, count: int) -> np.ndarray:
    """The `count` smallest distinct nonzero grid-offset distances."""
    m, n = np.meshgrid(np.arange(geom.mx), np.arange(geom.my), indexing="ij")
    dm = np.abs(m.reshape(-1)[:, None] - m.reshape(-1)[None, :])
    dn = np.abs(n.reshape(-1)[:, None] - n.reshape(-1)[None, :])
    dist = np.hypot(dm, dn)
    distinct = np.unique(dist)
    distinct = distinct[distinct > 0.0]
    if len(distinct) < count:
        raise ValueError(
            f"array has only {len(distinct)} neighbor rings, {count} requested"
        )
    return dist, distinct[:count]


def coupling_matrix(geom: ArrayGeometry, kappas, decay: float = 0.0) -> np.ndarray:
    """Mutual-coupling matrix C = I + sum_p kappa_p exp(-decay (p-1)) A_p.

    A_p is the adjacency matrix of the p-th nearest-neighbor ring: element
    pairs whose grid-index offset (dm, dn) has the p-th smallest distinct
    Euclidean length (ring 1 = side neighbors, ring 2 = diagonals, ...).

    Args:
        geom: array description.
        kappas: per-ring coupling coefficients; each must satisfy |kappa| < 0.5.
        decay: exponential decay rate across rings (>= 0).

    Raises:
        ValueError: for out-of-range coefficients, or if the resulting matrix
            is close to singular (minimum singular value below 0.1).
    """
    kappas = np.atleast_1d(np.asarray(kappas, dtype=complex))
    if np.any(np.abs(kappas) >= 0.5):
        raise ValueError(f"coupling coefficients must have |kappa| < 0.5, got {kappas}")
    if decay < 0.0:
        raise ValueError(f"decay must be >= 0, got {decay}")
    dist, rings = _ring_distances(geom, len(kappas))
    c = np.eye(geom.m_total, dtype=complex)
    for p, (kappa, ring_d) in enumerate(zip(kappas, rings)):
        adj = np.isclose(dist, ring_d)
        c = c + kappa * np.exp(-decay * p) * adj
    smin = np.linalg.svd(c, compute_uv=False)[-1]
    if smin < 0.1:
        raise ValueError(
            f"coupling matrix is badly conditioned: min singular value {smin:.4g} < 0.1"
        )
    return c


# =====================================================================
# Oscillator phase noise
# =====================================================================

@dataclass(frozen=True)
class PhaseNoiseState:
    """Wiener phase-noise state for every antenna branch.

    The oscillator PSD model is c0/f^2 + c2 (white frequency noise plus a
    floor); the accumulated phase is a random walk whose per-sample increment
    variance is 4 pi^2 c0 Ts.
    """

    phases: np.ndarray
    c0: float
    c2: float
    ts: float

    def __post_init__(self):
        if self.c0 < 0.0 or self.c2 < 0.0:
            raise ValueError(f"PSD coefficients must be >= 0, got c0={self.c0}, c2={self.c2}")
        if self.ts <= 0.0:
            raise ValueError(f"sample interval must be > 0, got {self.ts}")

    @property
    def increment_variance(self) -> float:
        return 4.0 * np.pi**2 * self.c0 * self.ts


def phase_noise_init(num_antennas: int, c0: float, c2: float = 0.0,
                     ts: float = 1e-6) -> PhaseNoiseState:
    """Fresh all-zero phase state."""
    return PhaseNoiseState(phases=np.zeros(num_antennas), c0=c0, c2=c2, ts=ts)


def phase_noise_from_dbc(num_antennas: int, level_dbc: float,
                         ts: float = 1e-6) -> PhaseNoiseState:
    """State whose single-step phase variance equals 10^(level_dbc/10) rad^2.

    Solves 4 pi^2 c0 Ts = 10^(level_dbc/10), i.e. the integrated phase-noise
    level in dBc is applied as the per-sample increment variance.
    """
    var = 10.0 ** (level_dbc / 10.0)
    c0 = var / (4.0 * np.pi**2 * ts)
    return phase_noise_init(num_antennas, c0=c0, ts=ts)


def phase_noise_step(state: PhaseNoiseState, rng: np.random.Generator) -> PhaseNoiseState:
    """Advance the phase random walk by one sample (returns a new state)."""
    std = np.sqrt(state.increment_variance)
    new_phases = state.phases + rng.normal(0.0, std, size=state.phases.shape)
    return replace(state, phases=new_phases)


# =====================================================================
# I/Q imbalance
# =====================================================================

def iq_coefficients(psi, g):
    """Image-leakage coefficient mu = cos(psi) + j * eps * sin(psi).

    eps = (1 + g) / (1 - g) encodes the gain mismatch g; psi is the phase
    mismatch in radians. Broadcasts elementwise.

    Raises:
        ValueError: if any |g| >= 1 (eps would blow up).
    """
    psi = np.asarray(psi, dtype=float)
    g = np.asarray(g, dtype=float)
    if np.any(np.abs(g) >= 1.0):
        raise ValueError(f"gain mismatch must satisfy |g| < 1, got {g}")
    eps = (1.0 + g) / (1.0 - g)
    return np.cos(psi) + 1j * eps * np.sin(psi)


def irr_db(psi: float, eps: float) -> float:
    """Image rejection ratio in dB for phase mismatch psi and amplitude eps.

    10 log10((1 + 2 eps cos(2 psi) + eps^2) / (1 - 2 eps cos(2 psi) + eps^2));
    a vanishing denominator (perfect hardware) maps to +inf.
    """
    c = np.cos(2.0 * psi)
    num = 1.0 + 2.0 * eps * c + eps**2
    den = 1.0 - 2.0 * eps * c + eps**2
    if den <= 1e-300:
        return np.inf
    return float(10.0 * np.log10(num / den))


def solve_iq_for_irr(target_irr_db: float, tol_db: float = 0.01):
    """Find (psi, g) hitting a target image rejection ratio.

    The image power is split evenly between the phase and gain mismatches:
    psi is fixed at the small-signal even-split value 10^(-IRR/20)/sqrt(2)
    (phase alone then sits about 3 dB above the target) and g is bisected on
    [0, 0.9] until irr_db(psi, eps(g)) matches the target within tol_db.

    Returns:
        (psi, g) tuple; (0.0, 0.0) for an infinite target.

    Raises:
        ValueError: for non-positive targets or an unreachable bracket.
    """
    if np.isinf(target_irr_db):
        return 0.0, 0.0
    if target_irr_db <= 0.0:
        raise ValueError(f"target IRR must be > 0 dB, got {target_irr_db}")

    psi = 10.0 ** (-target_irr_db / 20.0) / np.sqrt(2.0)

    def err(g):
        eps = (1.0 + g) / (1.0 - g)
        return irr_db(psi, eps) - target_irr_db

    lo, hi = 0.0, 0.9
    if err(lo) < 0.0 or err(hi) > 0.0:
        raise ValueError(f"cannot bracket IRR target {target_irr_db} dB")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if err(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if abs(err(mid)) < tol_db:
            return psi, mid
    raise ValueError(f"bisection failed to reach IRR target {target_irr_db} dB")


# =====================================================================
# Cascade and CSI error
# =====================================================================

@dataclass
class ImpairmentChain:
    """Enabled impairment stages; disabled stages behave as identity."""

    coupling: np.ndarray | None = None
    phase_state: PhaseNoiseState | None = None
    iq_mu: np.ndarray | complex | None = None

    def transform(self, num_antennas: int) -> np.ndarray:
        """The full cascade matrix T = D_PN @ D_IQ @ C; the diagonal stages
        scale the rows of a complex copy of C (of I without coupling)."""
        if self.coupling is not None:
            t = self.coupling.astype(complex)
        else:
            t = np.eye(num_antennas, dtype=complex)
        if self.iq_mu is not None:
            mu = np.broadcast_to(np.asarray(self.iq_mu, dtype=complex), (num_antennas,))
            t = mu[:, None] * t
        if self.phase_state is not None:
            d = np.exp(1j * self.phase_state.phases)
            t = d[:, None] * t
        return t


def effective_channel(h: np.ndarray, chain: ImpairmentChain) -> np.ndarray:
    """The (K, M) channels h of a trial seen through the impaired front end.

    With received signal h_k^H T x, user k's effective channel is T^H h_k.
    The cascade is formed once, and each user takes its own matrix-vector
    product."""
    t_h = chain.transform(h.shape[1]).conj().T
    return np.vstack([t_h @ row for row in h])


def inject_csi_error(h: np.ndarray, eps_csi: float, rng: np.random.Generator) -> np.ndarray:
    """Corrupt a channel estimate to an exact relative error.

    The error direction is complex Gaussian; its length is rescaled so that
    ||h_hat - h|| / ||h|| equals eps_csi exactly. eps_csi = 0 returns a copy.

    Raises:
        ValueError: for negative eps_csi, or a zero channel with eps_csi > 0.
    """
    if eps_csi < 0.0:
        raise ValueError(f"CSI error fraction must be >= 0, got {eps_csi}")
    h = np.asarray(h, dtype=complex)
    if eps_csi == 0.0:
        return h.copy()
    norm_h = vector_norm(h)
    if norm_h == 0.0:
        raise ValueError("cannot apply a relative CSI error to a zero channel")
    e = rng.standard_normal(h.shape) + 1j * rng.standard_normal(h.shape)
    e *= eps_csi * norm_h / vector_norm(e)
    return h + e
