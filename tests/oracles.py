"""Reference computations kept out of the package.

The package prices a design point with one stacked kernel (rates,
sensing.echo_sinrs, objective.price_streams / price_split). These oracles
recompute the same quantities by independent routes: the RS-NOMA rates one
user at a time from per-call stream gains, the echoes from the M x M
transmit covariance and echo matrices with the traces taken directly, and
the objective components one scalar at a time, so the tests compare the
kernel against computations it does not share. The paper's closed-form
rails that the pipeline does not run, and the block-by-block and
search-based solver steps that the package replaced, and the per-user
filters and per-stream solves of the E-WMMSE sweep, live here too, as do
the gather forms of the stream pricing and gradients that the product
tables of rates.StreamLayout replaced, the field-by-field record codec that
the one-pass template and regex of holo_isac.records replaced, the trial
draw one user and one path at a time that channel.draw_channels replaced,
and the helpers no pipeline code runs: Welch's t test, the dense echo
channel, the SINR form of the CRLB and the stage-by-stage impairment
cascade.
"""

import hashlib

import numpy as np

from dataclasses import dataclass

from holo_isac.channel import (PathSampler, SensingTarget, echo_amplitude,
                               free_space_beta)
from holo_isac.experiments import TrialData, TrialResult, _impairment_chain
from holo_isac.geometry import ArrayGeometry, array_response
from holo_isac.impairments import ImpairmentChain, inject_csi_error
from holo_isac.records import RECORD_FIELDS, SCHEMA_VERSION
from holo_isac.sensing import _crlb, _derivative_norm2, detection_probability
from holo_isac.stats import StatTestResult, _two_sided_p, cohens_d, t_quantile

_LN2 = np.log(2.0)


# =====================================================================
# RS-NOMA rates, one user at a time
# =====================================================================

def _stream_gains(channels, solution):
    """|h_k^H w|^2 against every stream: returns (K,G), (K,K), (K,) arrays."""
    hc = np.asarray(channels).conj()
    gc = np.abs(hc @ solution.w_common.T) ** 2
    gp = np.abs(hc @ solution.w_private.T) ** 2
    gs = np.abs(hc @ solution.w_sensing) ** 2
    return gc, gp, gs


def common_interference(k, solution, channels) -> float:
    """Interference power at user k while decoding its group's common stream.

    Other groups' common streams, every private stream (own included), and the
    sensing probe all contribute.
    """
    gc, gp, gs = _stream_gains(channels, solution)
    g = solution.grouping.assignment[k]
    other = np.arange(solution.num_groups) != g
    return float(
        gc[k, other] @ solution.p_common[other]
        + gp[k] @ solution.p_private
        + gs[k] * solution.p_sensing
    )


def private_interference(k, solution, channels) -> float:
    """Interference power at user k while decoding its own private stream.

    Same as the common stage except the own-group common stream is gone
    (already cancelled) and intra-group privates decoded before user k are
    stripped; other groups' privates always remain.
    """
    gc, gp, gs = _stream_gains(channels, solution)
    g = solution.grouping.assignment[k]
    other = np.arange(solution.num_groups) != g
    mask = solution.grouping.interference_mask()[k]
    return float(
        gc[k, other] @ solution.p_common[other]
        + (gp[k] * mask) @ solution.p_private
        + gs[k] * solution.p_sensing
    )


def common_rate(k, solution, channels, sigma_n2) -> float:
    """Achievable common-stream rate log2(1 + SINR_common) at user k."""
    gc, _, _ = _stream_gains(channels, solution)
    g = solution.grouping.assignment[k]
    sinr = gc[k, g] * solution.p_common[g] / (
        common_interference(k, solution, channels) + sigma_n2)
    return float(np.log2(1.0 + sinr))


def private_rate(k, solution, channels, sigma_n2) -> float:
    """Achievable private-stream rate log2(1 + SINR_private) at user k."""
    _, gp, _ = _stream_gains(channels, solution)
    sinr = gp[k, k] * solution.p_private[k] / (
        private_interference(k, solution, channels) + sigma_n2)
    return float(np.log2(1.0 + sinr))


def group_common_allocation(g, solution, channels, sigma_n2) -> np.ndarray:
    """Split group g's common capacity among its members.

    The group common capacity C_g is the minimum member common rate (everyone
    must decode the common stream). Member k receives C_g * rho_k / sum(rho)
    over the group; an all-zero rho group falls back to a uniform split.

    Returns:
        Array of allocated common-rate portions, indexed like the SIC order.
    """
    members = solution.grouping.members(g)
    c_g = min(common_rate(k, solution, channels, sigma_n2) for k in members)
    rho = np.array([solution.rho[k] for k in members], dtype=float)
    total = rho.sum()
    if total <= 1e-9:
        shares = np.full(len(members), 1.0 / len(members))
    else:
        shares = rho / total
    return c_g * shares


def user_total_rate(k, solution, channels, sigma_n2) -> float:
    """Allocated common portion plus private rate for user k."""
    g = solution.grouping.assignment[k]
    members = solution.grouping.members(g)
    alloc = group_common_allocation(g, solution, channels, sigma_n2)
    return float(alloc[members.index(k)]
                 + private_rate(k, solution, channels, sigma_n2))


# =====================================================================
# Stream pricing and gradients by gathers
# =====================================================================

class GatherTables:
    """The index tables of a grouping that the gather forms below read:
    user and column indices, SIC order and group starts, the padded
    member slots and the 0/1 hearing tables, built from the grouping."""

    def __init__(self, grouping):
        g, k = grouping.num_groups, len(grouping.assignment)
        self.num_groups, self.num_users = g, k
        self.assign = grouping.assignment
        self.users = np.arange(k)
        self.private_cols = g + self.users
        self.mask = grouping.interference_mask()
        members = [grouping.members(gi) for gi in range(g)]
        self.order = np.concatenate(members)
        self.starts = np.cumsum([0] + [len(mem) for mem in members])[:-1]
        self.other_groups = (self.assign[:, None]
                             != np.arange(g)[None, :]).astype(float)
        width = max(len(mem) for mem in members)
        self.group_slots = np.full((g, width), k)
        for gi, mem in enumerate(members):
            self.group_slots[gi, :len(mem)] = mem
        self.hear_c = np.ones((k, g + k + 1))
        self.hear_c[self.users, self.assign] = 0.0
        self.hear_p = self.hear_c.copy()
        self.hear_p[:, g:g + k] = self.mask
        self.own_or_hear_p = self.hear_p.copy()
        self.own_or_hear_p[self.users, self.private_cols] = 1.0


def gather_stream_rates(g2, p, tables, sigma_n2) -> dict:
    """rates.stream_rates by gathers: the own signals by multi-axis
    indexing, the interference as the sum of other groups' commons, all
    (or the heard) privates and the probe, and each group's common capacity
    by minimum.reduceat over the users in SIC order."""
    g, k = tables.num_groups, tables.num_users
    pc, pp, ps = p[:g], p[g:g + k], p[-1]
    own_c = g2[..., tables.users, tables.assign] * pc[tables.assign]
    other_c = (g2[..., :g] * tables.other_groups) @ pc
    sense = g2[..., -1] * ps
    i_common = other_c + g2[..., g:g + k] @ pp + sense
    i_private = other_c + (g2[..., g:g + k] * tables.mask) @ pp + sense
    own_p = g2[..., tables.users, tables.private_cols] * pp
    d_c = i_common + sigma_n2
    d_p = i_private + sigma_n2
    c_rate = np.log2(1.0 + own_c / d_c)
    p_rate = np.log2(1.0 + own_p / d_p)
    group_c = np.minimum.reduceat(c_rate[..., tables.order], tables.starts,
                                  axis=-1)
    return {"own_c": own_c, "own_p": own_p, "d_c": d_c, "d_p": d_p,
            "gam_c": own_c / d_c, "gam_p": own_p / d_p, "c_rate": c_rate,
            "p_rate": p_rate, "group_c": group_c}


def gather_group_sums(tables, x):
    """Per-group sums of a per-user vector over the padded member slots."""
    return np.append(x, 0.0)[tables.group_slots].sum(axis=-1)


def gather_common_weights(ctx, tables, aux, shares):
    """_EvalContext._common_weights by gathers: group minima by reduceat,
    group sums over the member slots, spread back by indexing."""
    u = ctx._user_weights(aux)
    c_rate = aux["c_rate"]
    lo = np.minimum.reduceat(c_rate[tables.order], tables.starts)[tables.assign]
    tau = np.maximum(0.1 * (1.0 + lo), 1e-9)
    b = np.exp(-(c_rate - lo) / tau)
    blend = b / gather_group_sums(tables, b)[tables.assign]
    group_u = gather_group_sums(tables, u * shares)
    return u, blend * group_u[tables.assign]


def gather_beam_coefficients(ctx, p, shares, aux):
    """The channel coefficients zc of the beam gradient
    (_EvalContext._beam_coefficients) by gathers, one term per stage."""
    tables = GatherTables(ctx.grouping)
    g, k = ctx.num_groups, ctx.k_total
    d_c, d_p = aux["d_c"], aux["d_p"]
    g2, v = aux["g2"], aux["v"]
    ar, own_col = tables.users, tables.assign
    u, wc = gather_common_weights(ctx, tables, aux, shares)
    own_c = g2[ar, own_col] * p[own_col]
    own_p = g2[ar, tables.private_cols] * p[g:g + k]
    cmat = (wc / _LN2)[:, None] * p[None, :] \
        * (1.0 / (own_c + d_c)[:, None] - tables.hear_c / d_c[:, None])
    pmat = (u / _LN2)[:, None] * p[None, :] \
        * (tables.own_or_hear_p / (own_p + d_p)[:, None]
           - tables.hear_p / d_p[:, None])
    return (cmat + pmat) * v


def gather_power_gradient_rates(ctx, p, shares, aux):
    """The rate part of _EvalContext.power_gradient by gathers and add.at,
    one matrix-vector product per term, and the sum of the absolute values
    of its terms per stream, which bounds the roundoff of any order of
    summation."""
    tables = GatherTables(ctx.grouping)
    g, k = ctx.num_groups, ctx.k_total
    d_c, d_p = aux["d_c"], aux["d_p"]
    g2 = aux["g2"]
    ar, own_col = tables.users, tables.assign
    u, wc = gather_common_weights(ctx, tables, aux, shares)
    own_c = g2[ar, own_col] * p[own_col]
    own_p = g2[ar, tables.private_cols] * p[g:g + k]
    cfac = wc / _LN2 / (own_c + d_c)
    lfac = wc / _LN2 / d_c
    pfac = u / _LN2 / (own_p + d_p)
    qfac = u / _LN2 / d_p
    terms = ((cfac, g2), (-lfac, g2 * tables.hear_c),
             (pfac, g2 * tables.own_or_hear_p), (-qfac, g2 * tables.hear_p))
    grad = np.zeros(g + k + 1)
    scale = np.zeros(g + k + 1)
    grad += cfac @ g2
    grad -= lfac @ g2
    np.add.at(grad, own_col, lfac * g2[ar, own_col])
    grad += pfac @ (g2 * tables.own_or_hear_p)
    grad -= qfac @ (g2 * tables.hear_p)
    for fac, gains in terms:
        scale += np.abs(fac) @ gains
    return grad, scale


# =====================================================================
# Dense echo traces
# =====================================================================

@dataclass
class SensingChannelMatrix:
    """Rank-one echo channel amplitude * exp(j*phase) * a a^H."""

    matrix: np.ndarray
    amplitude: float
    phase: float


def sensing_channel(geom: ArrayGeometry, target: SensingTarget) -> SensingChannelMatrix:
    """Bistatic rank-one echo channel for a point target.

    Amplitude follows the radar equation (channel.echo_amplitude), and the
    two-way phase is -4 pi R / wavelength. The matrix is
    amplitude * e^{j phase} a a^H with a the near-field response at the
    target; the package forms no M x M echo matrix, only the scalars
    sensing.SensingScene holds."""
    amplitude = echo_amplitude(geom, target)
    phase = -4.0 * np.pi * target.r / geom.wavelength
    a = array_response(geom, target.theta, target.phi, target.r)
    matrix = amplitude * np.exp(1j * phase) * np.outer(a, a.conj())
    return SensingChannelMatrix(matrix=matrix, amplitude=amplitude, phase=phase)


def crlb_sinr_form(target: SensingTarget, gamma: float, geom: ArrayGeometry,
                   sigma_s2: float) -> float:
    """Alternative CRLB written against the achieved echo SINR,
    sigma_s2 / (2 gamma ||da/dtheta||^2)."""
    return _crlb(sigma_s2, gamma, 1.0, _derivative_norm2(geom, target))


def apply_impairments(x: np.ndarray, chain: ImpairmentChain) -> np.ndarray:
    """Push a transmit vector through D_PN @ D_IQ @ C (enabled stages only),
    one stage at a time; the package forms the cascade as one matrix
    (ImpairmentChain.transform)."""
    x = np.asarray(x, dtype=complex)
    y = x
    if chain.coupling is not None:
        y = chain.coupling @ y
    if chain.iq_mu is not None:
        mu = np.asarray(chain.iq_mu, dtype=complex)
        y = mu * y
    if chain.phase_state is not None:
        y = np.exp(1j * chain.phase_state.phases) * y
    return y



def total_covariance(solution) -> np.ndarray:
    """Transmit covariance sum_i p_i w_i w_i^H over every stream."""
    beams = solution.stacked_beams()
    powers = solution.stacked_powers()
    return (beams.T * powers) @ beams.conj()


def dense_sensing_sinr(l, solution, targets, sigma_s2, geom) -> float:
    """Echo SINR of target l from the dense traces tr(H_l W):
    rcs_l |tr(H_l W)|^2 / (sum_{l' != l} rcs_l' |tr(H_l' W)|^2 + sigma_s2)."""
    w_total = total_covariance(solution)
    echoes = np.array([
        t.rcs * np.abs(np.trace(sensing_channel(geom, t).matrix @ w_total)) ** 2
        for t in targets
    ])
    clutter = float(sum(e for i, e in enumerate(echoes) if i != l))
    return float(echoes[l] / (clutter + sigma_s2))


def feasible(solution, channels, targets, geom, limits, sigma_n2, sigma_s2,
             tol=1e-9) -> bool:
    """Whether a design point meets every operating limit to tol: the power
    budget, each user's rate floor (user_total_rate), each target's
    detection floor (dense_sensing_sinr) and CRLB cap (an infinite bound
    meets an infinite cap), rho in [0, 1] and unit-norm beams."""
    rates = [user_total_rate(k, solution, channels, sigma_n2)
             for k in range(solution.num_users)]
    detect = [detection_probability(
        dense_sensing_sinr(l, solution, targets, sigma_s2, geom), limits.p_fa)
        for l in range(len(targets))]
    crlbs = [_crlb(sigma_s2, solution.p_sensing, t.rcs,
                   _derivative_norm2(geom, t)) for t in targets]
    norms = np.linalg.norm(solution.stacked_beams(), axis=1)
    return bool(solution.total_power() <= limits.p_max + tol
                and all(r >= limits.r_min - tol for r in rates)
                and all(d >= limits.p_d_min - tol for d in detect)
                and all(c <= limits.crlb_max + tol for c in crlbs)
                and np.all((-tol <= solution.rho) & (solution.rho <= 1.0 + tol))
                and np.max(np.abs(norms - 1.0)) <= tol)


# =====================================================================
# Trial draw, one user and one path at a time
# =====================================================================

def loop_user_channel(geom: ArrayGeometry, rng, sampler: PathSampler):
    """(h, paths): one user's channel from one scalar draw per path
    coordinate, then one (real, imaginary) gain draw per path, with h
    accumulated path by path from lone array responses and scaled by the
    free-space beta of the first path."""
    r_lo, r_hi = sampler.range_bounds(geom)
    paths = [(rng.uniform(sampler.theta_lo, sampler.theta_hi),
              rng.uniform(sampler.phi_lo, sampler.phi_hi),
              rng.uniform(r_lo, r_hi)) for _ in range(sampler.num_paths)]
    h = np.zeros(geom.m_total, dtype=complex)
    for theta, phi, r in paths:
        alpha = (rng.standard_normal() + 1j * rng.standard_normal()) \
            * np.sqrt(1.0 / sampler.num_paths / 2.0)
        h += alpha * array_response(geom, theta, phi, r)
    return np.sqrt(free_space_beta(geom, paths[0][2])) * h, paths


def loop_trial_data(cfg, rng) -> TrialData:
    """generate_trial_data with the user channels drawn one user at a time
    (loop_user_channel) and the impaired and estimated channels formed one
    row at a time."""
    geom = cfg.array_geometry()
    sampler = PathSampler(num_paths=cfg.channel.num_paths)
    k = cfg.population.num_users
    rho_c = cfg.channel.rho_c
    if rho_c > 0.0:
        shared = loop_user_channel(geom, rng, sampler)[0]
        h = np.vstack([np.sqrt(rho_c) * shared + np.sqrt(1.0 - rho_c)
                       * loop_user_channel(geom, rng, sampler)[0]
                       for _ in range(k)])
    else:
        h = np.vstack([loop_user_channel(geom, rng, sampler)[0]
                       for _ in range(k)])
    t = cfg.targets
    r_lo, r_hi = sampler.range_bounds(geom)
    targets = [SensingTarget(theta=rng.uniform(-t.theta_abs, t.theta_abs),
                             phi=rng.uniform(-t.phi_abs, t.phi_abs),
                             r=rng.uniform(r_lo, r_hi),
                             rcs=rng.uniform(t.rcs_lo, t.rcs_hi))
               for _ in range(cfg.population.num_targets)]
    chain = _impairment_chain(cfg, geom.m_total, rng)
    if chain is not None:
        t_h = chain.transform(geom.m_total).conj().T
        h = np.vstack([t_h @ row for row in h])
    eps = cfg.impairments.csi_eps
    h_est = np.vstack([inject_csi_error(row, eps, rng) for row in h])
    digest = hashlib.sha256()
    for a in (h, h_est, np.array([[tt.theta, tt.phi, tt.r, tt.rcs]
                                  for tt in targets], dtype=float)):
        digest.update(a.tobytes())
    return TrialData(channels_true=h, channels_est=h_est, targets=targets,
                     channel_hash=digest.hexdigest()[:16])


# =====================================================================
# Scalar objective components and closed-form rails
# =====================================================================

def sensing_utility(gamma: float) -> float:
    """Concave sensing reward log2(1 + gamma)."""
    if gamma < 0.0:
        raise ValueError(f"sensing SINR must be >= 0, got {gamma}")
    return float(np.log2(1.0 + gamma))


def energy_efficiency(total_rate: float, total_power: float) -> float:
    """Rate per unit transmit power (bit/s/Hz per watt)."""
    if total_power <= 0.0:
        if total_rate == 0.0:
            return 0.0
        raise ValueError("nonzero rate with zero transmit power")
    return float(total_rate / total_power)


def jain_fairness(user_rates) -> float:
    """Jain index (sum r)^2 / (K sum r^2); 1 when rates are equal, 1/K when
    one user takes everything."""
    r = np.asarray(user_rates, dtype=float)
    if r.size == 0:
        raise ValueError("fairness of an empty rate vector is undefined")
    if np.any(r < 0.0):
        raise ValueError(f"rates must be >= 0, got {r}")
    denom = r.size * float(r @ r)
    if denom == 0.0:
        raise ValueError("fairness of an all-zero rate vector is undefined")
    return float(r.sum() ** 2 / denom)


def critical_correlation(num_users: int) -> float:
    """Correlation threshold 1 - 1/sqrt(K) above which a shared common stream
    is provably worth carrying."""
    if num_users < 1:
        raise ValueError(f"need at least one user, got {num_users}")
    return 1.0 - 1.0 / np.sqrt(num_users)


def rs_gain_lower_bound(rho_c: float, p_common: float, mean_channel: np.ndarray,
                        sigma_n2: float) -> float:
    """Guaranteed rate gain of the split design in the correlated regime:
    log2(1 + rho_c^2 P_c ||h_bar||^2 / ((1 - rho_c^2) sigma_n2))."""
    if not 0.0 <= rho_c < 1.0:
        raise ValueError(f"correlation must be in [0, 1), got {rho_c}")
    if p_common < 0.0:
        raise ValueError(f"common power must be >= 0, got {p_common}")
    h_bar2 = float(np.real(np.vdot(mean_channel, mean_channel)))
    return float(np.log2(1.0 + rho_c**2 * p_common * h_bar2
                         / ((1.0 - rho_c**2) * sigma_n2)))


# =====================================================================
# Beam gradient in M space
# =====================================================================

def m_space_beam_gradient(ctx, p, shares, aux):
    """The beam gradient as beams: its coefficients Z times B = [h; a_l],
    the M-wide product _EvalContext.beam_gradient replaces by Z^T rt."""
    zc, zs = ctx._beam_coefficients(p, shares, aux)
    grad = zc.T @ ctx.h
    if zs is not None:
        grad += zs.T @ ctx.scene.steer
    return grad


# =====================================================================
# Power and split blocks, every candidate priced in full
# =====================================================================

def sequential_power_block(ctx, w, p, rho, f0, aux0, config,
                           frozen_streams=None):
    """The power block with every backtracking candidate priced by
    ctx.evaluate, which forms the gains of w again each time.

    optimizers._power_block prices them over the gains of aux0; this is
    the loop it replaced, kept to show both give the same iterate."""
    from holo_isac.optimizers import _project_powers

    best_p, best_f, best_aux = p, f0, aux0
    shares = ctx.shares(rho)
    eta = config.step_size
    for _ in range(config.inner_steps):
        grad = ctx.power_gradient(best_p, shares, best_aux)
        if not np.all(np.isfinite(grad)):
            raise RuntimeError("non-finite power gradient")
        if frozen_streams is not None:
            grad[frozen_streams] = 0.0
        gn = np.linalg.norm(grad)
        if gn < 1e-14:
            break
        direction = grad / gn
        accepted = False
        for _bt in range(config.max_backtracks):
            cand = _project_powers(best_p + eta * ctx.limits.p_max * direction,
                                   ctx.limits.p_max)
            if frozen_streams is not None:
                cand[frozen_streams] = 0.0
            f_c, aux_c = ctx.evaluate(w, cand, rho)
            if f_c > best_f:
                best_p, best_f, best_aux = cand, f_c, aux_c
                eta = min(eta * 1.5, 1.0)
                accepted = True
                break
            eta *= config.backtrack
        if not accepted:
            break
    return best_p, best_f, best_aux


_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def golden_rho_block(ctx, p, rho, f0, aux0, config):
    """The split block by golden-section search: each rho_k in turn is
    maximized on [0, 1] in 42 probes, each priced by ctx.reprice on fresh
    copies of rho and of the share vector, and kept when it strictly
    improves the objective. optimizers._rho_block water-fills each group in
    closed form instead; this is the search it replaced, as a comparator."""
    from holo_isac.rates import group_shares

    best_rho, best_f, best_aux = rho, f0, aux0
    best_shares = ctx.shares(rho)
    for mem in ctx.layout.members:
        if len(mem) < 2:
            continue
        for k in mem:
            def probe(rk):
                cand = best_rho.copy()
                cand[k] = rk
                shares = best_shares.copy()
                shares[mem] = group_shares(cand[mem])
                return cand, shares

            def f_of(rk):
                return ctx.reprice(aux0, probe(rk)[1])[0]

            lo, hi = 0.0, 1.0
            x1 = hi - _GOLDEN * (hi - lo)
            x2 = lo + _GOLDEN * (hi - lo)
            f1 = f_of(x1)
            f2 = f_of(x2)
            for _ in range(40):
                if f1 < f2:
                    lo, x1, f1 = x1, x2, f2
                    x2 = lo + _GOLDEN * (hi - lo)
                    f2 = f_of(x2)
                else:
                    hi, x2, f2 = x2, x1, f1
                    x1 = hi - _GOLDEN * (hi - lo)
                    f1 = f_of(x1)
            candb, sharesb = probe(x1 if f1 >= f2 else x2)
            fb, auxb = ctx.reprice(aux0, sharesb)
            if fb > best_f:
                best_rho, best_f, best_aux, best_shares = candb, fb, auxb, sharesb
    return best_rho, best_f, best_aux


# =====================================================================
# E-WMMSE, one user and one stream at a time
# =====================================================================

def e_wmmse_receive_filter(h, v, interference, sigma_n2) -> complex:
    """Scalar MMSE receive filter u = (h^H v)^* / (|h^H v|^2 + I + sigma_n2)."""
    num = np.conj(np.vdot(h, v))
    return complex(num / (np.abs(np.vdot(h, v)) ** 2 + interference + sigma_n2))


def e_wmmse_mse_weight(u, h, v) -> float:
    """MSE weight omega = 1 / (1 - u h^H v); real and >= 1 at the MMSE point."""
    mse = 1.0 - np.real(u * np.vdot(h, v))
    if mse <= 0.0:
        raise RuntimeError(f"nonpositive MSE {mse:.3g} in weight update")
    return float(1.0 / mse)


def loop_e_wmmse_sweep(ctx, v_all, gram):
    """One sweep of optimizers._e_wmmse_sweep made user by user and stream
    by stream: each stage's interference as the total received power less
    the own term, its filter and weight from the two scalar helpers above,
    and one _loaded_solve per communication stream."""
    from holo_isac.geometry import vector_norm
    from holo_isac.optimizers import _LAMBDA_SENSING, _loaded_solve
    from holo_isac.sensing import echo_sinrs

    h, lay, scene = ctx.h, ctx.layout, ctx.scene
    g_n, k_n = ctx.num_groups, ctx.k_total
    sigma_n2, p_max = ctx.sigma_n2, ctx.limits.p_max
    hear_p = lay.stages[2:].any(axis=0)
    heard = [np.flatnonzero(row) for row in hear_p]
    pow_rx = np.abs(ctx.hc @ v_all.T) ** 2

    u = np.zeros((k_n, 2), dtype=complex)      # columns: common, private
    om = np.ones((k_n, 2))
    for k in range(k_n):
        des_c = lay.assign[k]
        i_c = float(pow_rx[k].sum() - pow_rx[k, des_c])
        u[k, 0] = e_wmmse_receive_filter(h[k], v_all[des_c], i_c, sigma_n2)
        om[k, 0] = e_wmmse_mse_weight(u[k, 0], h[k], v_all[des_c])
        des_p = g_n + k
        i_p = float(pow_rx[k][heard[k]].sum() - pow_rx[k, des_p])
        u[k, 1] = e_wmmse_receive_filter(h[k], v_all[des_p], i_p, sigma_n2)
        om[k, 1] = e_wmmse_mse_weight(u[k, 1], h[k], v_all[des_p])

    mu = max(sigma_n2 * float(np.sum(om * np.abs(u) ** 2)) / p_max,
             sigma_n2 / p_max)
    weights_ku = om * np.abs(u) ** 2
    new_v = v_all.copy()
    for j in range(g_n + k_n):
        if j < g_n:
            desire = [(k, 0) for k in lay.members[j]]
        else:
            desire = [(j - g_n, 1)]
        # every user hears stream j at its common stage
        coefs = weights_ku[:, 0] + weights_ku[:, 1] * hear_p[:, j]
        x = np.zeros((k_n, 1), dtype=complex)
        for (k, stage) in desire:
            x[k, 0] += om[k, stage] * np.conj(u[k, stage])
        new_v[j] = _loaded_solve(h, gram, coefs, mu, x)[0]

    if ctx.num_targets and ctx.gamma_min > 0.0:
        va = scene.steer_c @ new_v.T
        beam_sum, d_l, gam = echo_sinrs(np.abs(va) ** 2,
                                        np.ones(lay.num_streams), scene,
                                        ctx.sigma_s2)
        short = np.maximum(0.0, ctx.gamma_min - gam)
        if short.any():
            coef = 2.0 * _LAMBDA_SENSING * short * scene.echo_power / d_l \
                * 2.0 * beam_sum
            grad_s = (coef * va[:, -1]) @ scene.steer
            step = 0.1 * vector_norm(new_v[-1]) / max(vector_norm(grad_s),
                                                         1e-300)
            new_v[-1] = new_v[-1] + step * grad_s

    total = float(np.sum(np.abs(new_v) ** 2))
    if total > p_max:
        new_v *= np.sqrt(p_max / total)
    return new_v


# =====================================================================
# Record lines, one field at a time
# =====================================================================

_INT_FIELDS = {"schema_version", "sweep_index", "trial_index",
               "iterations_used"}
_BOOL_FIELDS = {"failed", "converged", "monotone"}
_FLOAT_FIELDS = {"objective", "sum_rate", "detection_prob", "crlb",
                 "energy_efficiency", "fairness"}


def encode_field(field: str, value) -> str:
    if field == "sweep_value":
        return "none" if value is None else repr(float(value))
    if field == "sinr_db":
        return ";".join(repr(float(v)) for v in value)
    if field in _BOOL_FIELDS:
        return "true" if value else "false"
    if field in _FLOAT_FIELDS:
        return repr(float(value))
    return str(value)


def decode_field(field: str, text: str):
    if field == "sweep_value":
        return None if text == "none" else float(text)
    if field == "sinr_db":
        if not text:
            return ()
        return tuple(float(tok) for tok in text.split(";"))
    if field in _BOOL_FIELDS:
        if text not in ("true", "false"):
            raise ValueError(f"bad boolean {text!r} for field {field}")
        return text == "true"
    if field in _INT_FIELDS:
        return int(text)
    if field in _FLOAT_FIELDS:
        return float(text)
    return text


def format_record_by_field(row) -> str:
    """A record line encoded field by field; records.format_record fills
    one template instead."""
    parts = []
    for field in RECORD_FIELDS:
        value = (SCHEMA_VERSION if field == "schema_version"
                 else getattr(row, field))
        parts.append(f"{field}={encode_field(field, value)}")
    return " ".join(parts)


def csv_cells_by_field(row) -> list:
    """The cells of a row's results.csv line, encoded field by field."""
    return [encode_field(field, SCHEMA_VERSION if field == "schema_version"
                         else getattr(row, field)) for field in RECORD_FIELDS]


def parse_record_by_field(line: str) -> TrialResult:
    """A record line decoded token by token; records.parse_record matches
    one regex instead."""
    tokens = line.split(" ")
    if len(tokens) != len(RECORD_FIELDS):
        raise ValueError(
            f"record has {len(tokens)} fields, expected {len(RECORD_FIELDS)}")
    kwargs = {}
    for field, token in zip(RECORD_FIELDS, tokens):
        key, sep, text = token.partition("=")
        if not sep or key != field:
            raise ValueError(f"expected field {field!r}, got token {token!r}")
        value = decode_field(field, text)
        if field == "schema_version":
            if value != SCHEMA_VERSION:
                raise ValueError(f"unsupported schema version {value}")
            continue
        kwargs[field] = value
    return TrialResult(**kwargs)


# =====================================================================
# Welch's t test (the reports pair their samples by trial)
# =====================================================================

def welch_t_test(a, b, confidence: float = 0.95) -> StatTestResult:
    """Welch's unequal-variance two-sample t test."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size < 2 or b.size < 2:
        raise ValueError("Welch test needs at least two samples per group")
    va = a.var(ddof=1) / a.size
    vb = b.var(ddof=1) / b.size
    diff = float(a.mean() - b.mean())
    if va + vb == 0.0:
        if diff == 0.0:
            return StatTestResult("welch_t", 0.0, float(a.size + b.size - 2), 1.0,
                                 0.0, 0.0, 0.0, confidence)
        stat = np.inf if diff > 0.0 else -np.inf
        return StatTestResult("welch_t", stat, float(a.size + b.size - 2), 0.0,
                             cohens_d(a, b), diff, diff, confidence)
    se = float(np.sqrt(va + vb))
    df = (va + vb) ** 2 / (va**2 / (a.size - 1) + vb**2 / (b.size - 1))
    stat = diff / se
    tq = t_quantile(0.5 + confidence / 2.0, df)
    return StatTestResult("welch_t", float(stat), float(df),
                          _two_sided_p(stat, df), cohens_d(a, b),
                          diff - tq * se, diff + tq * se, confidence)
