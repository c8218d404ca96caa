"""Block-coordinate optimizers for the joint communication/sensing design.

Three solvers climb one penalized objective, priced by _EvalContext over the
kernel in objective.price_streams / price_split (the pricing the result rows
use too) with a quadratic QoS penalty added. A block prices its candidates
from what it holds fixed: the power block reuses the stream gains of its
entry beams, and the split block the whole stream part. The beam block runs
in orthonormal coordinates of the span of the channels and steering vectors,
where every gain, gradient and step is at most K + L + 1 wide, not M; it
touches M-wide arrays only to enter those coordinates, to form its result
and to price that result once in full.

Every solve of a trial reads one SolveInstance: the scene, the stream
tables, the span basis and the init_hao_sca start are built once per trial.

The per-candidate and per-step path (pricing, gradients, the blocks' loops)
makes no numpy call that releases the interpreter lock at desk scale:
gathers on a candidate axis, multi-axis gathers, take, reduceat, add.at,
sort and argsort, boolean row masks of 2-D arrays and 1-D norms each
release it even on a few elements, and with two worker threads every
release is a hand-off of the lock (about 280 k context switches in one
72-task desk_tiny round on 2 cores). The path uses the product, mask and
+inf-minimum tables of rates.StreamLayout, np.where and Python ordering
instead.

* run_hao_sca: block-coordinate ascent on the composite objective. Every
  inner step of the beam and power blocks takes the gradient of the
  penalized objective at its own iterate: the SCA surrogate whose
  interference denominators are linearized there is tight at that point
  and has the same gradient, so each step is one SCA iteration with one
  gradient step on its surrogate. The beams move along the Riemannian
  gradient on their product of unit spheres (Absil, Mahony and Sepulchre,
  Optimization Algorithms on Matrix Manifolds, 2008). The split block
  water-fills each group's common capacity over its members in closed
  form, which is exact because the split moves only fairness and the
  rate-floor penalty. Each block's step is accepted on the true penalized
  objective, so every iteration is monotone by construction and falls back
  to the entry iterate when no improving step exists.
* run_e_wmmse: alternating closed-form MMSE receive filters and weights,
  read off the stage pricing of rates.stream_rates, with regularized normal
  equations for all beamformers in one stacked solve; sensing is pulled in
  through a quadratic penalty on the echo-SINR shortfall.
* run_fp: the private-streams-only baseline, the conventional-NOMA block
  ascent of run_hao_sca with rate-only weights, traced on the private sum
  rate. The quadratic-transform fractional programming the paper compares
  against (Shen and Yu, IEEE TSP 2018) is not implemented.

All three iterate through one loop (_iterate): one stopping rule, one trace
of objective values.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .channel import target_responses
from .geometry import ArrayGeometry, vector_norm
from .objective import (ObjectiveWeights, QosLimits, _rowdot, price_split,
                        price_streams)
from .rates import (Grouping, RsNomaSolution, StreamLayout, common_shares,
                    default_grouping, stream_rates)
from .sensing import SensingScene, echo_sinrs, q_inverse

_LN2 = np.log(2.0)
_MONO_SLACK = 1e-9


@dataclass(frozen=True)
class OptimizerConfig:
    """Shared solver knobs.

    inner_steps is the per-block gradient step budget; step_size is the
    initial (normalized-direction) step, shrunk by `backtrack` on rejection.
    qos_penalty weights the quadratic hinge on rate/detection/CRLB shortfalls.
    """

    max_iters: int = 50
    epsilon: float = 1e-4
    inner_steps: int = 20
    step_size: float = 0.1
    backtrack: float = 0.5
    max_backtracks: int = 8
    qos_penalty: float = 10.0
    adaptive_weights: bool = False

    def __post_init__(self):
        for name, ok, rule in (
                ("max_iters", self.max_iters >= 1, ">= 1"),
                ("inner_steps", self.inner_steps >= 0, ">= 0"),
                ("max_backtracks", self.max_backtracks >= 1, ">= 1"),
                ("epsilon", self.epsilon > 0.0, "> 0"),
                ("step_size", self.step_size > 0.0, "> 0"),
                ("backtrack", 0.0 < self.backtrack < 1.0, "in (0, 1)"),
                ("qos_penalty", self.qos_penalty >= 0.0, ">= 0")):
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)}")


@dataclass
class ConvergenceTrace:
    """Per-iteration trace values: the entry value, then one per sweep."""

    objectives: np.ndarray
    iterations_used: int
    converged: bool

    @property
    def monotone(self) -> bool:
        """True when the objective never drops by more than 1e-9."""
        return bool(np.all(np.diff(self.objectives) >= -_MONO_SLACK))


# =====================================================================
# SCA surrogate
# =====================================================================

def sca_surrogate_gamma(w: np.ndarray, w_anchor: np.ndarray, h: np.ndarray,
                        interference: float, sigma_n2: float) -> float:
    """Concave lower bound of the SINR |h^H w|^2 / (I + sigma_n2) around
    w_anchor with the interference frozen:

    (2 Re{(w_anchor^H h)(h^H w)} - |h^H w_anchor|^2) / (I + sigma_n2).

    Tight (equal to the true SINR) at w = w_anchor.
    """
    if interference < 0.0 or sigma_n2 <= 0.0:
        raise ValueError("interference must be >= 0 and sigma_n2 > 0")
    denom = interference + sigma_n2
    cross = np.vdot(w_anchor, h) * np.vdot(h, w)
    return float((2.0 * np.real(cross) - np.abs(np.vdot(h, w_anchor)) ** 2) / denom)


# =====================================================================
# Shared evaluation core
# =====================================================================

class SolveInstance:
    """The tables of one solve instance (channels, targets, array and
    grouping), built once and shared by every solve of a trial.

    Holds the channels, the targets' SensingScene, the grouping's
    StreamLayout, the span basis of [h; a_l] and, when built by from_start,
    the init_hao_sca start with its stacked beams and their span
    coordinates and gains. The solves only read these; their arrays are
    read-only."""

    def __init__(self, channels, scene: SensingScene, grouping: Grouping,
                 start: RsNomaSolution | None = None):
        self.h = np.asarray(channels, dtype=complex)
        self.hc = self.h.conj()
        self.grouping = grouping
        self.layout = StreamLayout(grouping)
        self.scene = scene
        self.start = start
        if start is not None:
            self.start_beams, = _read_only(start.stacked_beams())

    @classmethod
    def from_start(cls, channels, targets, geom: ArrayGeometry,
                   num_groups: int, p_max: float,
                   sigma_n2: float) -> "SolveInstance":
        """The instance of the init_hao_sca start, which holds it; the start
        and the scene share one steering table."""
        scene = SensingScene(targets, geom)
        start = init_hao_sca(channels, targets, geom, num_groups, p_max,
                             sigma_n2, steer=scene.steer)
        return cls(channels, scene, start.grouping, start)

    @functools.cached_property
    def span(self) -> tuple:
        """(q, rt, rtc) for the rows of B = [h; a_l] (the K channels, then
        the L steering vectors): B^T = q r with q (M, n) orthonormal, n =
        min(M, K + L); rt is r^T with one zero column appended, of shape
        (K + L, n + 1), and rtc is its conjugate.

        A beam w_s = q c_s + rest_s, rest_s orthogonal to the span, has the
        span coordinates x_s = [c_s, |rest_s|]. Its gains are rtc @ x_s, the
        gradient Z^T B (Z of shape (K + L, S)) has the coordinates Z^T rt,
        and inner products of beams are those of their coordinates. The
        zero column gives the out-of-span coordinate no gains and no
        gradient."""
        q, r = np.linalg.qr(np.vstack((self.h, self.scene.steer)).T)
        rt = np.zeros((r.shape[1], r.shape[0] + 1), dtype=complex)
        rt[:, :-1] = r.T
        return _read_only(q, rt, rt.conj())

    @functools.cached_property
    def start_span(self) -> tuple:
        """_span_coordinates of start_beams."""
        return _read_only(*_span_coordinates(self.span[0], self.start_beams))

    @functools.cached_property
    def start_gains(self) -> dict:
        """gains of start_beams, read-only."""
        gains = self.gains(self.start_beams)
        _read_only(*gains.values())
        return gains

    def gains(self, w: np.ndarray) -> dict:
        """The user and target gains of every stream of w: v = h_k^H w_s,
        g2 = |v|^2, va = a_l^H w_s and m2 = |va|^2, from one product each."""
        v = self.hc @ w.T                  # (K, S)
        va = self.scene.steer_c @ w.T      # (L, S)
        return {"v": v, "g2": np.abs(v) ** 2, "va": va, "m2": np.abs(va) ** 2}


def _read_only(*arrays) -> tuple:
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _span_coordinates(q: np.ndarray, w: np.ndarray) -> tuple:
    """(x, u): the coordinates of the rows of w in the orthonormal basis q
    plus the norm of each row's rest, and the unit direction of that rest
    (zero where the row has none)."""
    c = w @ q.conj()
    rest = w - c @ q.T
    norm = np.linalg.norm(rest, axis=1)
    x = np.concatenate((c, norm[:, None]), axis=1)
    return x, rest / np.where(norm > 0.0, norm, 1.0)[:, None]


class _EvalContext:
    """Per-solve weights and limits over a shared SolveInstance, plus the
    penalized objective the solvers climb.

    Works on the stacked representation (W rows = unit beamformers in the
    order commons, privates, sensing; p = matching powers; rho = split
    coefficients) so one complex GEMM prices all stream gains. The pricing
    itself is the kernel of objective.price_streams / price_split, the same
    one rate_breakdown, composite_objective and the result rows use; this
    class adds the QoS penalty and the gradients.
    """

    def __init__(self, instance: SolveInstance, weights: ObjectiveWeights,
                 limits: QosLimits, sigma_n2: float, sigma_s2: float,
                 qos_penalty: float):
        self.instance = instance
        self.h, self.hc = instance.h, instance.hc
        self.k_total, self.m_total = self.h.shape
        self.weights = weights
        self.limits = limits
        self.sigma_n2 = float(sigma_n2)
        self.sigma_s2 = float(sigma_s2)
        self.grouping = instance.grouping
        self.num_groups = self.grouping.num_groups
        self.qos_penalty = float(qos_penalty)
        self.layout = instance.layout
        self.scene = instance.scene
        self.num_targets = self.scene.num_targets
        self.kept_span = None       # (w, x, u) of the last to_span(w)

        # detection constraint folded to a minimum echo SINR
        if limits.p_d_min > limits.p_fa:
            q_fa = q_inverse(limits.p_fa)
            q_d = q_inverse(limits.p_d_min)
            self.gamma_min = 0.5 * (q_fa - q_d) ** 2
        else:
            self.gamma_min = 0.0
        # CRLB numerators c_l with crlb_l = c_l / p_sensing
        if np.isfinite(limits.crlb_max) and self.num_targets:
            self.crlb_num = self.sigma_s2 / (2.0 * self.scene.rcs * self.scene.dn2)
        else:
            self.crlb_num = None

    @property
    def weights(self) -> ObjectiveWeights:
        return self._weights

    @weights.setter
    def weights(self, value: ObjectiveWeights):
        self._weights = value
        self.aw = value.as_array()

    # -- stream slicing helpers ---------------------------------------
    def split_solution(self, solution: RsNomaSolution):
        """(w, p, rho) of a solution; the instance's start gives its shared,
        read-only start_beams as w."""
        inst = self.instance
        w = (inst.start_beams if solution is inst.start
             else solution.stacked_beams())
        return w, solution.stacked_powers(), solution.rho.copy()

    def build_solution(self, w, p, rho) -> RsNomaSolution:
        g, k = self.num_groups, self.k_total
        return RsNomaSolution(
            grouping=self.grouping,
            w_common=w[:g].copy(), w_private=w[g:g + k].copy(),
            w_sensing=w[-1].copy(),
            p_common=p[:g].copy(), p_private=p[g:g + k].copy(),
            p_sensing=float(p[-1]), rho=rho.copy(),
        )

    def shares(self, rho: np.ndarray) -> np.ndarray:
        """Per-user share of the own-group common capacity under rho."""
        return common_shares(rho, self.layout.members)

    # -- evaluation -----------------------------------------------------
    def evaluate(self, w: np.ndarray, p: np.ndarray, rho: np.ndarray,
                 shares: np.ndarray | None = None):
        """Penalized composite objective plus every intermediate quantity.

        The gains of w are formed first, price_powers prices them at p and
        reprice finishes the split. Callers that hold rho fixed may pass the
        precomputed share vector to skip its recomputation in hot loops."""
        if shares is None:
            shares = self.shares(rho)
        return self.price_powers(self._gains(w), p, shares)

    # aux entries that depend on the beams alone
    _GAINS = ("v", "g2", "va", "m2")

    def _gains(self, w: np.ndarray) -> dict:
        """SolveInstance.gains of w; the instance's start_beams take the
        instance's start_gains."""
        inst = self.instance
        if inst.start is not None and w is inst.start_beams:
            return dict(inst.start_gains)
        return inst.gains(w)

    # -- span coordinates -------------------------------------------------
    @property
    def span(self) -> tuple:
        """The instance's span basis (SolveInstance.span)."""
        return self.instance.span

    def to_span(self, w: np.ndarray) -> tuple:
        """(x, u): the span coordinates of the rows of w and the unit
        direction of each row's part outside the span (zero where the row
        has none); from_span(x, u, w, x) is w. The instance's start_beams
        take their coordinates from the instance. Any other w is marked
        read-only and kept in kept_span with its coordinates, which it
        takes again when it comes back, as a beam block that moved nothing
        returns it to the next sweep."""
        inst = self.instance
        if inst.start is not None and w is inst.start_beams:
            return inst.start_span
        kept = self.kept_span
        if kept is None or kept[0] is not w:
            w.flags.writeable = False
            x, u = _span_coordinates(self.span[0], w)
            kept = self.kept_span = (w, *_read_only(x, u))
        return kept[1:]

    def from_span(self, x: np.ndarray, u: np.ndarray, w: np.ndarray,
                  x0: np.ndarray) -> np.ndarray:
        """The beams of span coordinates x, where (x0, u) = to_span(w): row s
        is c_s q^T + x_s[-1] u_s, except that a row whose coordinates equal
        x0's is w's row, bit for bit."""
        out = x[:, :-1] @ self.span[0].T
        out += x[:, -1:].real * u
        return np.where(np.all(x == x0, axis=1)[:, None], w, out)

    def span_gains(self, x: np.ndarray) -> dict:
        """The v and va gains of the beams of span coordinates x, from one
        (K + L) x (n + 1) product."""
        both = self.span[2] @ x.T
        return {"v": both[:self.k_total], "va": both[self.k_total:]}

    def price_powers(self, gains: dict, p: np.ndarray, shares: np.ndarray):
        """Penalized objective at powers p over the gains of a fixed w.

        gains holds the _GAINS entries of an evaluation at w and nothing
        else. They are the very arrays evaluate forms at that w, so a block
        that moves only the powers prices each candidate here, with no
        stream-gain product, and gets evaluate's value bit for bit."""
        return self.reprice(self._streams(gains, p), shares)

    def _streams(self, gains: dict, p: np.ndarray) -> dict:
        """Everything that depends on (w, p) alone: the stream part of the
        kernel (objective.price_streams) over the gains of w, plus the
        rho-free penalty terms. Everything here is elementwise, reduces
        along the last axis or is one BLAS call per candidate, so stacking
        changes no bit."""
        aux = price_streams(gains["g2"], gains["m2"], p, self.layout,
                            self.scene, self.sigma_n2, self.sigma_s2)

        det_short = np.maximum(0.0, self.gamma_min - aux["gam_l"])
        crlb_pen = 0.0
        if self.crlb_num is not None:
            ps = p[-1]
            crlb = self.crlb_num / ps if ps > 0.0 else np.full(self.num_targets, np.inf)
            crlb_short = np.minimum(np.maximum(0.0, crlb / self.limits.crlb_max - 1.0), 1e9)
            crlb_pen = float(crlb_short @ crlb_short)

        aux.update(gains, ptot=float(p.sum()),
                   det_pen=_rowdot(det_short, det_short), crlb_pen=crlb_pen)
        return aux

    def reprice(self, aux: dict, shares: np.ndarray):
        """Penalized objective at a new common split over a fixed stream part.

        aux holds the stream part of an evaluation at (w, p); only the
        allocation, the per-user totals, sum rate, energy efficiency,
        fairness and the rate penalty depend on the split, so this is O(K):
        the kernel's objective.price_split over the stream part, less the
        penalty. evaluate ends here too, so both give bit-identical
        values."""
        split = price_split(aux["group_c"] @ self.layout.group_of,
                            aux["p_rate"], aux["util"], shares, aux["ptot"],
                            self.aw)
        rate_short = np.maximum(0.0, self.limits.r_min - split.total_rate)
        penalty = self.qos_penalty * (_rowdot(rate_short, rate_short)
                                      + aux["det_pen"])
        if self.crlb_num is not None:
            penalty += self.qos_penalty * aux["crlb_pen"]
        out = dict(aux)
        out.update(split._asdict(), penalty=penalty)
        return split.value - penalty, out

    # -- gradient assembly --------------------------------------------
    def _user_weights(self, aux) -> np.ndarray:
        """Effective per-user weight on a unit rate increase (objective share
        plus any active QoS-shortfall pressure)."""
        a = self.aw
        base = a[0] + (a[2] / aux["ptot"] if aux["ptot"] > 0.0 else 0.0)
        short = np.maximum(0.0, self.limits.r_min - aux["total_rate"])
        return base + 2.0 * self.qos_penalty * short

    def _common_blend(self, c_rate: np.ndarray) -> np.ndarray:
        """Per-user weight on the group-minimum common rate.

        At an exact tie any convex combination of member gradients is a valid
        subgradient of the min; softmin weights realize that and keep the
        direction from flip-flopping between near-tied members."""
        lay = self.layout
        lo = (c_rate + lay.outside).min(axis=-1) @ lay.group_of
        tau = np.maximum(0.1 * (1.0 + lo), 1e-9)
        b = np.exp(-(c_rate - lo) / tau)
        return b / (b @ lay.same_group)

    def _stage_weights(self, shares, aux) -> np.ndarray:
        """(K, S) weight of each gain |h_k^H w_s|^2 in the gradient at the
        point aux was priced at: the sum over user k's four stages
        (StreamLayout.stages) of the stage mask times the stage's factor. A
        stage term enters as weight / (S + I) where the stage sums its
        signal and interference and as -weight / I where it sums the
        interference alone, both read from aux. The rate weights are u per
        user and, on the common stage, the group's share-weighted u spread
        by the softmin blend."""
        lay = self.layout
        u = self._user_weights(aux)
        wc = self._common_blend(aux["c_rate"]) * ((u * shares) @ lay.same_group)
        wc, u = wc / _LN2, u / _LN2
        cfac = wc / (aux["own_c"] + aux["d_c"])
        pfac = u / (aux["own_p"] + aux["d_p"])
        fac = np.array([cfac, cfac - wc / aux["d_c"], pfac - u / aux["d_p"],
                        pfac])
        # at most two stages hold any one stream, so the order in which
        # einsum adds the four products, each exact, changes no bit
        return np.einsum("ik,iks->ks", fac, lay.stages)

    def beam_gradient(self, x, p, shares, aux) -> np.ndarray:
        """Gradient of the penalized objective in all beamformers, at the
        beams x that aux was priced at, in span coordinates.

        Every interference term enters with its own sign, so streams feel
        the damage they do to other streams. The conjugate-coordinate
        gradient is the combination Z^T B of the channels and steering
        vectors with the coefficients of _beam_coefficients; it is returned
        as its span coordinates Z^T rt (see span), one row per stream, whose
        last entry is zero. It depends on the beams x through the gains in
        aux only."""
        zc, zs = self._beam_coefficients(p, shares, aux)
        _, rt, _ = self.span
        grad = zc.T @ rt[:self.k_total]
        if zs is not None:
            grad += zs.T @ rt[self.k_total:]
        return grad

    def _beam_coefficients(self, p, shares, aux) -> tuple:
        """(zc, zs): the (K, S) and (L, S) coefficients of the channels and
        steering vectors in the beam gradient, zs None without targets."""
        zc = self._stage_weights(shares, aux) * p * aux["v"]
        if not self.num_targets:
            return zc, None
        va, beam_sum = aux["va"], aux["beam_sum"]
        d_l, gam_l = aux["d_l"], aux["gam_l"]
        tot = float((self.scene.echo_power * beam_sum**2).sum())
        a1 = self.aw[1]
        short = np.maximum(0.0, self.gamma_min - gam_l)
        inv = 1.0 / d_l
        base = a1 / _LN2 * (self.num_targets / (tot + self.sigma_s2)
                            - (inv.sum() - inv))
        sg = short * gam_l / d_l
        pen = 2.0 * self.qos_penalty * (short / d_l - (sg.sum() - sg))
        cs = (2.0 * self.scene.echo_power * beam_sum * (base + pen))[:, None] \
            * p[None, :]
        return zc, cs * va

    def power_gradient(self, w, p, shares, aux) -> np.ndarray:
        """Gradient of the penalized objective in the powers, at the powers
        p that aux was priced at.

        Each stage's signal-plus-interference and interference-alone sums
        are read from aux, so this is the gradient of the true objective
        there, up to the softmin blend that _common_blend puts on each
        group's minimum common rate. That keeps the interference cost of
        every stream visible: power drains away from streams that hurt
        other streams more than they carry."""
        grad = (self._stage_weights(shares, aux) * aux["g2"]).sum(axis=0)
        if self.num_targets:
            m2, beam_sum, d_l = aux["m2"], aux["beam_sum"], aux["d_l"]
            gam_l = aux["gam_l"]
            de = (2.0 * self.scene.echo_power * beam_sum)[:, None] * m2
            dt = de.sum(axis=0)
            tot = float((self.scene.echo_power * beam_sum**2).sum())
            a1 = self.aw[1]
            if a1 > 0.0:
                grad += a1 / _LN2 * (self.num_targets * dt / (tot + self.sigma_s2)
                                     - (1.0 / d_l) @ (dt[None, :] - de))
            short = np.maximum(0.0, self.gamma_min - gam_l)
            if np.any(short > 0.0):
                dgam = (de - gam_l[:, None] * (dt[None, :] - de)) / d_l[:, None]
                grad += (2.0 * self.qos_penalty * short) @ dgam

        if aux["ptot"] > 0.0:
            grad -= self.aw[2] * aux["rate_sum"] / aux["ptot"] ** 2
        if self.crlb_num is not None:
            ps = p[-1]
            if ps > 0.0:
                crlb = self.crlb_num / ps
                short = np.maximum(0.0, crlb / self.limits.crlb_max - 1.0)
                grad[-1] += float(np.sum(2.0 * self.qos_penalty * short
                                         * self.crlb_num
                                         / (self.limits.crlb_max * ps**2)))
            else:
                grad[-1] += self.qos_penalty
        return grad


def _normalize_rows(w: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    """Rows of w scaled to unit norm; a row whose norm is not above 1e-300
    (zero or NaN) takes the row of fallback instead."""
    norms = np.linalg.norm(w, axis=1)
    out = w / np.maximum(norms, 1e-300)[:, None]
    dead = ~(norms > 1e-300)
    if dead.any():
        out[dead] = fallback[dead]
    return out


def _project_powers(p: np.ndarray, p_max: float) -> np.ndarray:
    """Scale-then-clip projection onto the simplex-like budget set, twice."""
    out = p.copy()
    for _ in range(2):
        out = np.maximum(out, 0.0)
        total = out.sum()
        if total > p_max:
            out *= p_max / total
    return np.maximum(out, 0.0)


# =====================================================================
# Block updates
# =====================================================================

def _reals(a: np.ndarray) -> np.ndarray:
    """A complex array's rows as float64 rows, real and imaginary parts
    interleaved (a view when a is C-contiguous), so the real part of a row
    inner product is one real dot."""
    return np.ascontiguousarray(a).view(np.float64)


def _tangent(grad: np.ndarray, x: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """grad less its radial part Re<x_s, grad_s> x_s in every row, the
    tangent on the spheres through the rows of x, formed in grad's own
    buffer (scratch holds the radial part)."""
    gr, xr = grad.view(np.float64), _reals(x)
    gr -= np.multiply(xr, _rowdot(xr, gr)[:, None], out=scratch)
    return grad


class _Retraction:
    """The candidates of one beam step, in span coordinates, priced from
    gains alone.

    A candidate moves the step's entry iterate x along the tangent t and
    scales each stream back onto its unit sphere (the projection
    retraction): cand_s = (x_s + c t_s) / n_s with
    n_s^2 = |x_s|^2 + 2c Re<x_s, t_s> + c^2 |t_s|^2. Gains are linear in
    the coordinates, so h_k^H cand_s = (h_k^H x_s + c h_k^H t_s) / n_s, and
    the same for every steering vector: once the gains of t are formed (one
    (K + L) x (n + 1) ctx.span_gains product per step) a candidate's gains
    cost O((K + L) S), and no array of the step is M wide.

    Held streams have t_s = 0 and are given n_s = 1, so they keep their
    coordinates and their gains; a stream whose n_s is not above 1e-300, or
    is NaN, keeps them too. The gains agree with ctx._gains of the formed
    beams up to roundoff only, so _beam_block prices its result once more."""

    def __init__(self, ctx: _EvalContext, x, tang, gains: dict, held):
        self.x, self.tang, self.held = x, tang, held
        self.entry = gains
        self.moved = ctx.span_gains(tang)
        xr, tr = _reals(x), _reals(tang)
        self.xn2 = _rowdot(xr, xr)
        self.xt = _rowdot(xr, tr)
        self.tn2 = _rowdot(tr, tr)
        self.xn2[held] = 1.0

    def joint(self, c: float):
        """(gains, n, kept streams) of the candidate moving every stream by c."""
        n = np.sqrt(self.xn2 + (2.0 * c) * self.xt + (c * c) * self.tn2)
        kept = self.held
        dead = None
        if not n.min() > 1e-300:
            dead = ~(n > 1e-300)
            kept = kept | dead
            n[dead] = 1.0
        # numpy divides a complex by a real as the product with the real's
        # reciprocal, so this gives the quotient's bits with one reciprocal
        # per stream instead of one per entry
        inv = 1.0 / n
        gains = {}
        for key, sq in (("v", "g2"), ("va", "m2")):
            x = self.entry[key] + c * self.moved[key]
            x *= inv
            gains[key], gains[sq] = x, np.abs(x) ** 2
        if dead is not None:
            for key in _EvalContext._GAINS:
                gains[key] = np.where(dead, self.entry[key], gains[key])
        return gains, n, kept

    def iterate(self, c: float, n, kept) -> np.ndarray:
        """The joint candidate at step c, from joint's n and kept."""
        out = _reals(self.tang) * c
        out += _reals(self.x)
        out /= n[:, None]
        return np.where(kept[:, None], self.x, out.view(complex))


def _beam_block(ctx: _EvalContext, w, p, rho, f0, aux0, config: OptimizerConfig,
                frozen_streams=None):
    """Riemannian gradient ascent over the beamformers on their product of
    unit spheres. Never returns a worse iterate.

    Each inner step takes the gradient at its own iterate, projects it onto
    the tangent space and backtracks along it over all rows at once: up to
    config.max_backtracks sizes from eta, each scaled by the largest tangent
    row, so weak streams move proportionally less instead of jittering;
    eta grows by 1.5 when a step is accepted. The block ends at the first
    step whose ladder finds no improvement. It runs in the span coordinates
    of ctx.span: w enters them once (ctx.to_span), and every gradient,
    tangent, step and candidate gain is min(M, K + L) + 1 wide. Each step
    forms the gains of its tangent once and prices every candidate from
    those and the gains of its iterate (_Retraction). If the block moved,
    its result is formed as beams (ctx.from_span: rows it never moved are
    w's rows bit for bit), priced once more by ctx.evaluate, and kept only
    when that value is above f0, so the returned gains are those of the
    returned beams bit for bit and roundoff in the identity never leaves
    the block."""
    x, out_of_span = ctx.to_span(w)
    best_x, best_f, best_aux = x, f0, aux0
    frozen = np.zeros(w.shape[0], dtype=bool)
    if frozen_streams is not None:
        frozen[frozen_streams] = True
    shares = ctx.shares(rho)
    eta = config.step_size
    scratch = np.empty((x.shape[0], 2 * x.shape[1]))
    for _ in range(config.inner_steps):
        grad = ctx.beam_gradient(best_x, p, shares, best_aux)
        if not np.isfinite(_reals(grad)).all():
            raise RuntimeError("non-finite beamformer gradient")
        grad = np.where(frozen[:, None], 0.0, grad)
        step = _Retraction(ctx, best_x, _tangent(grad, best_x, scratch),
                           best_aux, frozen)
        tn_max = np.sqrt(max(step.tn2.tolist()))
        if tn_max < 1e-14:
            break
        size = eta
        for _bt in range(config.max_backtracks):
            c = size / tn_max
            gains, n, kept = step.joint(c)
            f_c, aux_c = ctx.price_powers(gains, p, shares)
            if f_c > best_f:
                best_x, best_f, best_aux = step.iterate(c, n, kept), f_c, aux_c
                eta = min(size * 1.5, 1.0)
                break
            size *= config.backtrack
        else:
            break
    if best_x is x:
        return w, f0, aux0
    best_w = ctx.from_span(best_x, out_of_span, w, x)
    f_out, aux_out = ctx.evaluate(best_w, p, rho, shares)
    if f_out > f0:
        ctx.kept_span = None        # w will not come back; free its arrays
        return best_w, f_out, aux_out
    return w, f0, aux0


def _power_block(ctx: _EvalContext, w, p, rho, f0, aux0, config: OptimizerConfig,
                 frozen_streams=None):
    """Projected gradient ascent over the stream powers under the budget.

    Each inner step takes the gradient at its own iterate and backtracks
    along its unit direction from eta (grown by 1.5 on acceptance); the
    block ends at the first step whose ladder finds no improvement. w is
    fixed inside the block, so every backtracking candidate is priced by
    ctx.price_powers over the gains of aux0, with no stream-gain product;
    they are the arrays an evaluation at w forms, so each candidate's value
    is ctx.evaluate's, bit for bit."""
    gains = {key: aux0[key] for key in ctx._GAINS}
    best_p, best_f, best_aux = p, f0, aux0
    shares = ctx.shares(rho)
    eta = config.step_size
    for _ in range(config.inner_steps):
        grad = ctx.power_gradient(w, best_p, shares, best_aux)
        if not np.all(np.isfinite(grad)):
            raise RuntimeError("non-finite power gradient")
        if frozen_streams is not None:
            grad[frozen_streams] = 0.0
        gn = vector_norm(grad)
        if gn < 1e-14:
            break
        direction = grad / gn
        accepted = False
        for _bt in range(config.max_backtracks):
            cand = _project_powers(best_p + eta * ctx.limits.p_max * direction,
                                   ctx.limits.p_max)
            if frozen_streams is not None:
                cand[frozen_streams] = 0.0
            f_c, aux_c = ctx.price_powers(gains, cand, shares)
            if f_c > best_f:
                best_p, best_f, best_aux = cand, f_c, aux_c
                eta = min(eta * 1.5, 1.0)
                accepted = True
                break
            eta *= config.backtrack
        if not accepted:
            break
    return best_p, best_f, best_aux


def _rho_block(ctx: _EvalContext, w, p, rho, f0, aux0, config: OptimizerConfig):
    """Water-fill each group's common capacity over its members.

    In group g, user k's rate is r_k = cap_g s_k + p_k, where cap_g is the
    group's common capacity (aux0["group_c"]), p_k the user's private rate
    (aux0["p_rate"]) and the shares s_k sum to one, so the split moves
    neither the sum rate nor the energy efficiency nor the sensing utility.
    It moves only Jain fairness, through the sum of r_k^2, and the
    rate-shortfall penalty, and both make the objective Schur-concave in the
    group's rates. The water-filled rates max(p_k, tau_g), with
    sum_k max(0, tau_g - p_k) = cap_g, are majorized by every other split
    of the group, so they maximize the block exactly (Marshall, Olkin and
    Arnold, Inequalities, 2011). The block sets
    rho_k = max(0, tau_g - p_k) / cap_g, which sums to one over the group.

    A lone user owns its group's whole capacity whatever its rho, and a
    group with cap_g = 0, such as the commons of a start from the
    conventional-NOMA solution, has nothing to split: both keep their rho.
    The new split is priced once by ctx.reprice and kept only when it
    strictly improves the objective.
    """
    cand = rho.copy()
    for g, mem in enumerate(ctx.layout.members):
        cap = aux0["group_c"][g]
        if len(mem) < 2 or not cap > 0.0:
            continue
        rates = aux0["p_rate"][mem]
        low = np.array(sorted(rates.tolist()))
        # levels[i] fills the i + 1 lowest private rates with cap_g; the
        # filled users are the prefix whose rates lie at or below their level
        levels = (cap + np.cumsum(low)) / np.cumsum(np.ones(len(low)))
        tau = levels[np.count_nonzero(levels >= low) - 1]
        cand[mem] = np.maximum(0.0, tau - rates) / cap
    f, aux = ctx.reprice(aux0, ctx.shares(cand))
    if f > f0:
        return cand, f, aux
    return rho, f0, aux0


# =====================================================================
# Adaptive weights
# =====================================================================

def adaptive_weights(weights: ObjectiveWeights, component_values,
                     eta: float = 0.1) -> ObjectiveWeights:
    """Nudge weights toward balanced weighted-component shares.

    Each weight is scaled by exp(eta * (1/4 - share)) where share is the
    component's fraction of the weighted objective; the result is
    renormalized. Balanced shares leave the weights unchanged.
    """
    comp = np.abs(np.asarray(component_values, dtype=float))
    a = weights.as_array()
    contrib = a * comp
    total = contrib.sum()
    if total <= 0.0:
        return weights
    share = contrib / total
    new = a * np.exp(eta * (0.25 - share))
    new /= new.sum()
    return ObjectiveWeights(*new)


# =====================================================================
# Initialization
# =====================================================================

def _loaded_solve(channels: np.ndarray, gram: np.ndarray, coefs, mu: float,
                  x: np.ndarray) -> np.ndarray:
    """Rows of (A C A^H + mu I_M)^-1 A x, with A = channels^T (columns h_k),
    C = diag(coefs) >= 0, mu > 0 and x of shape (K, n).

    The push-through identity (A C A^H + mu I_M)^-1 A = A (C A^H A + mu I_K)^-1
    holds for any K and M, so the M x M system becomes one K x K solve;
    gram = A^H A = channels.conj() @ channels.T. Leading axes of coefs and
    x stack systems, all solved in one call.
    """
    coefs = np.asarray(coefs, dtype=float)
    inner = coefs[..., :, None] * gram + mu * np.eye(coefs.shape[-1])
    return np.swapaxes(channels.T @ np.linalg.solve(inner, x), -1, -2)


def init_hao_sca(channels, targets, geom: ArrayGeometry, num_groups: int,
                 p_max: float, sigma_n2: float,
                 steer: np.ndarray | None = None) -> RsNomaSolution:
    """Deterministic warm start.

    Groups come from default_grouping; common beams point along group-mean
    channels, the sensing beam is the RCS-weighted mixture of the rows of
    steer, the targets' steering table (channel.target_responses, formed
    here when not given), powers split the budget uniformly across the
    G + K + 1 streams, and every rho starts at 1/2. Private beams are the
    regularized MMSE directions (sum_{j != k} h_j h_j^H + delta I)^-1 h_k
    with loading delta = sigma_n2 / p_max. By Sherman-Morrison each is a
    positive multiple of (sum_j h_j h_j^H + delta I)^-1 h_k, so all K come
    from one K x K _loaded_solve.
    """
    channels = np.asarray(channels, dtype=complex)
    k_total, m_total = channels.shape
    grouping = default_grouping(channels, num_groups)

    w_common = np.empty((num_groups, m_total), dtype=complex)
    for g in range(num_groups):
        mean = channels[grouping.members(g)].mean(axis=0)
        norm = vector_norm(mean)
        if norm < 1e-300:  # degenerate mean: fall back to the lead member
            mean = channels[grouping.members(g)[0]]
            norm = vector_norm(mean)
        w_common[g] = mean / norm

    delta = sigma_n2 / p_max
    gram = channels.conj() @ channels.T
    w_private = _loaded_solve(channels, gram, np.ones(k_total), delta,
                              np.eye(k_total))
    w_private /= np.linalg.norm(w_private, axis=1)[:, None]

    if len(targets):
        if steer is None:
            steer = target_responses(geom, targets)
        mix = np.zeros(m_total, dtype=complex)
        for t, a in zip(targets, steer):
            mix += np.sqrt(t.rcs) * a
        w_sensing = mix / vector_norm(mix)
    else:
        w_sensing = np.zeros(m_total, dtype=complex)
        w_sensing[0] = 1.0

    num_streams = num_groups + k_total + 1
    share = p_max / num_streams
    return RsNomaSolution(
        grouping=grouping,
        w_common=w_common, w_private=w_private, w_sensing=w_sensing,
        p_common=np.full(num_groups, share),
        p_private=np.full(k_total, share),
        p_sensing=share,
        rho=np.full(k_total, 0.5),
    )


# =====================================================================
# Full runs
# =====================================================================

def ensure_instance(instance, channels, targets, geom: ArrayGeometry,
                    num_groups: int, p_max: float, sigma_n2: float,
                    warm_start: RsNomaSolution | None = None) -> SolveInstance:
    """instance when given, else the one built here: the instance of the
    init_hao_sca start (SolveInstance.from_start) or, for a warm start, an
    instance over its grouping without a start."""
    if instance is not None:
        return instance
    if warm_start is not None:
        return SolveInstance(channels, SensingScene(targets, geom),
                             warm_start.grouping)
    return SolveInstance.from_start(channels, targets, geom, num_groups,
                                    p_max, sigma_n2)


def _iterate(config: OptimizerConfig, sweep, state, start):
    """Apply sweep to state up to config.max_iters times, tracing each step.

    start is the trace value of the entry state, and sweep(state) returns
    (next state, trace value). The run converges, and stops, at the first
    sweep that moves the trace value by less than config.epsilon. Returns
    (final state, ConvergenceTrace)."""
    objectives = [start]
    converged = False
    for _ in range(config.max_iters):
        state, value = sweep(state)
        objectives.append(value)
        if abs(objectives[-1] - objectives[-2]) < config.epsilon:
            converged = True
            break
    trace = ConvergenceTrace(
        objectives=np.array(objectives),
        iterations_used=len(objectives) - 1, converged=converged,
    )
    return state, trace


def _block_ascent(ctx: _EvalContext, sol: RsNomaSolution,
                  config: OptimizerConfig, frozen_commons: bool,
                  trace_key: str | None = None):
    """Block-coordinate ascent from sol; returns (solution, trace).

    Each sweep runs the beam block, the power block and, unless the common
    streams are frozen (their powers and every rho held at zero), the split
    block, then the adaptive weights when config asks for them. The trace
    records the penalized objective, or aux[trace_key] when given."""
    w, p, rho = ctx.split_solution(sol)
    frozen = None
    if frozen_commons:
        frozen = np.arange(ctx.num_groups)
        p[frozen] = 0.0
        rho[:] = 0.0

    def traced(f, aux):
        return f if trace_key is None else aux[trace_key]

    def sweep(state):
        w, p, rho, f, aux = state
        w, f, aux = _beam_block(ctx, w, p, rho, f, aux, config, frozen)
        p, f, aux = _power_block(ctx, w, p, rho, f, aux, config, frozen)
        if not frozen_commons:
            rho, f, aux = _rho_block(ctx, w, p, rho, f, aux, config)
        if config.adaptive_weights:
            comps = np.array([aux["rate_sum"], aux["util"], aux["ee"], aux["fair"]])
            ctx.weights = adaptive_weights(ctx.weights, comps)
            f, aux = ctx.evaluate(w, p, rho)
        return (w, p, rho, f, aux), traced(f, aux)

    f, aux = ctx.evaluate(w, p, rho)
    (w, p, rho, _, _), trace = _iterate(config, sweep, (w, p, rho, f, aux),
                                        traced(f, aux))
    solution = ctx.build_solution(w, _project_powers(p, ctx.limits.p_max),
                                  np.clip(rho, 0.0, 1.0))
    return solution, trace


def run_hao_sca(channels, targets, geom: ArrayGeometry,
                weights: ObjectiveWeights, limits: QosLimits,
                sigma_n2: float, sigma_s2: float,
                config: OptimizerConfig | None = None, num_groups: int = 1,
                warm_start: RsNomaSolution | None = None,
                conventional_noma: bool = False,
                instance: SolveInstance | None = None):
    """Block-coordinate ascent on the penalized composite objective.

    Cycles beamformer, power, and split blocks until the objective change
    drops below config.epsilon or max_iters is exhausted. The beam and
    power blocks step along the gradient at each of their iterates, the
    gradient of the SCA surrogate tight there; the split block sets each
    group's rho by water-filling its common capacity over the members'
    private rates (_rho_block), one closed-form solve per group. With
    conventional_noma=True the common powers and rho are frozen at zero
    throughout (the grouped-NOMA baseline).

    instance is the trial's SolveInstance (from_start on the same channels,
    targets, array, num_groups, p_max and sigma_n2), built here when not
    given (ensure_instance); a warm start must use its grouping.

    Returns:
        (solution, ConvergenceTrace) pair.
    """
    config = config or OptimizerConfig()
    instance = ensure_instance(instance, channels, targets, geom, num_groups,
                               limits.p_max, sigma_n2, warm_start)
    if warm_start is not None:
        if warm_start.grouping is not instance.grouping:
            raise ValueError("warm start and instance have different groupings")
        sol = warm_start
    else:
        sol = instance.start
    ctx = _EvalContext(instance, weights, limits, sigma_n2, sigma_s2,
                       config.qos_penalty)
    return _block_ascent(ctx, sol, config, conventional_noma)


# =====================================================================
# E-WMMSE
# =====================================================================

def _e_wmmse_sweep(ctx: _EvalContext, v_all: np.ndarray, gram: np.ndarray,
                   lambda_sensing: float) -> np.ndarray:
    """One E-WMMSE sweep: the aggregates v_all = sqrt(p) w (row -1 the
    sensing beam) updated once; gram = h^* h^T.

    The aggregates carry the powers, so rates.stream_rates at unit powers
    prices both stages of every user from one gain product: the MMSE receive
    filter of a stage is u = (h^H v)^* / (own + d) and its MSE weight
    1 / (1 - u h^H v) equals 1 + SINR there (Shi, Razaviyayn, Luo and He,
    IEEE TSP 2011). Each communication stream j then solves the regularized
    normal equations (sum_k c_kj h_k h_k^H + mu I) v_j = sum_k b_kj h_k,
    where c_kj sums omega |u|^2 over user k's stages that hear stream j and
    b_kj is omega u^* of the stage that decodes it; the G + K systems are
    one stacked _loaded_solve. The sensing beam then takes a
    penalty-gradient step toward the echo-SINR floor, and the whole is
    rescaled into the power budget."""
    lay, scene, limits = ctx.layout, ctx.scene, ctx.limits
    unit_powers = np.ones(lay.num_streams)
    gains = ctx.hc @ v_all.T                       # h_k^H v_s, (K, S)
    st = stream_rates(np.abs(gains) ** 2, unit_powers, lay, ctx.sigma_n2)
    # rows: the common, then the private stage of every user
    own = (lay.stages[::3] * gains).sum(axis=-1)   # own-stream gains
    u = own.conj() / (np.stack((st["own_c"], st["own_p"]))
                      + np.stack((st["d_c"], st["d_p"])))
    om = 1.0 + np.stack((st["gam_c"], st["gam_p"]))
    weight = om * np.abs(u) ** 2
    mu = max(ctx.sigma_n2 * float(weight.sum()) / limits.p_max,
             ctx.sigma_n2 / limits.p_max)
    # one system per communication stream j (the probe's row is not
    # solved): user k's common stage hears every stream, its private stage
    # its interference and its own private
    coefs = weight[0] + weight[1] * (lay.stages[2] + lay.stages[3]).T[:-1]
    desire = om * u.conj()
    rhs = lay.stages[0].T[:-1] * desire[0] + lay.stages[3].T[:-1] * desire[1]
    new_v = v_all.copy()
    new_v[:-1] = _loaded_solve(ctx.h, gram, coefs, mu, rhs[..., None])[:, 0]

    # sensing beam: penalty-gradient step toward the SINR floor
    if ctx.num_targets and ctx.gamma_min > 0.0:
        # the aggregates carry the powers, so every stream weighs one
        va = scene.steer_c @ new_v.T
        beam_sum, d_l, gam = echo_sinrs(np.abs(va) ** 2, unit_powers,
                                        scene, ctx.sigma_s2)
        short = np.maximum(0.0, ctx.gamma_min - gam)
        if short.any():
            coef = 2.0 * lambda_sensing * short * scene.echo_power / d_l \
                * 2.0 * beam_sum
            grad_s = (coef * va[:, -1]) @ scene.steer
            step = 0.1 * vector_norm(new_v[-1]) / max(vector_norm(grad_s),
                                                         1e-300)
            new_v[-1] = new_v[-1] + step * grad_s

    total = float(np.sum(np.abs(new_v) ** 2))
    if total > limits.p_max:
        new_v *= np.sqrt(limits.p_max / total)
    return new_v


def run_e_wmmse(channels, targets, geom: ArrayGeometry,
                weights: ObjectiveWeights, limits: QosLimits,
                sigma_n2: float, sigma_s2: float,
                config: OptimizerConfig | None = None, num_groups: int = 1,
                lambda_sensing: float = 1.0,
                instance: SolveInstance | None = None):
    """Extended WMMSE with SIC-aware MSE stages and a sensing penalty.

    Each iteration is one _e_wmmse_sweep of the aggregate beamformers
    v = sqrt(p) w: the MMSE filters and weights of every (user, stage) read
    off one stage pricing, one stacked solve for all communication beams, a
    penalty-gradient step on the sensing beam when the echo SINR falls
    short of the detection threshold, and a budget rescale. The trace
    objective is sum rate minus the sensing penalty. It starts from the
    init_hao_sca start of instance (see run_hao_sca).
    """
    config = config or OptimizerConfig()
    instance = ensure_instance(instance, channels, targets, geom, num_groups,
                               limits.p_max, sigma_n2)
    ctx = _EvalContext(instance, weights, limits, sigma_n2, sigma_s2,
                       config.qos_penalty)
    w, p, rho = ctx.split_solution(instance.start)
    gram = ctx.hc @ ctx.h.T                     # h_i^H h_j, (K, K)

    def traced(v_cur):
        """The trace value at the aggregates v_cur: the sum rate less the
        sensing penalty."""
        p_cur = np.linalg.norm(v_cur, axis=1) ** 2
        _, aux = ctx.evaluate(_normalize_rows(v_cur, w), p_cur, rho)
        short = np.maximum(0.0, ctx.gamma_min - aux["gam_l"])
        return aux["rate_sum"] - lambda_sensing * float(short @ short)

    def sweep(v_all):
        v_all = _e_wmmse_sweep(ctx, v_all, gram, lambda_sensing)
        return v_all, traced(v_all)

    v_all = np.sqrt(p)[:, None] * w
    v_all, trace = _iterate(config, sweep, v_all, traced(v_all))
    p_fin = np.linalg.norm(v_all, axis=1) ** 2
    w_fin = _normalize_rows(v_all, w)
    solution = ctx.build_solution(w_fin, _project_powers(p_fin, limits.p_max), rho)
    return solution, trace


# =====================================================================
# Private-streams baseline (fp)
# =====================================================================

def run_fp(channels, targets, geom: ArrayGeometry,
           weights: ObjectiveWeights, limits: QosLimits,
           sigma_n2: float, sigma_s2: float,
           config: OptimizerConfig | None = None, num_groups: int = 1,
           instance: SolveInstance | None = None):
    """The private-streams-only baseline: the conventional-NOMA block
    ascent of run_hao_sca on the private sum rate.

    The common powers and rho stay at zero, the objective weights are
    rate-only (weights is not read) and never adapt, and the QoS penalty
    still applies. The trace records the private sum rate, not the
    penalized objective the blocks climb. This is not the quadratic-
    transform fractional programming of Shen and Yu (IEEE TSP 2018), which
    is not implemented. It starts from the init_hao_sca start of instance
    (see run_hao_sca).
    """
    config = replace(config or OptimizerConfig(), adaptive_weights=False)
    instance = ensure_instance(instance, channels, targets, geom, num_groups,
                               limits.p_max, sigma_n2)
    ctx = _EvalContext(instance, ObjectiveWeights(1.0, 0.0, 0.0, 0.0),
                       limits, sigma_n2, sigma_s2, config.qos_penalty)
    return _block_ascent(ctx, instance.start, config, True, "rate_sum")
