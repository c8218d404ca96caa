"""Rate-splitting NOMA rate computations.

Users are partitioned into groups. Each group carries one common stream,
decoded first by every member (treating all private streams as noise), then
stripped; private streams are decoded inside each group in SIC order, so a
user sees only the not-yet-decoded intra-group privates plus everything from
other groups and the sensing probe. The group common capacity is the worst
member's common rate and is divided among members in proportion to their
common-allocation coefficients rho.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_RHO_TOL = 1e-9


@dataclass
class Grouping:
    """User-to-group assignment plus per-group SIC decode orders.

    assignment[k] is the group index of user k. sic_order[g] lists the members
    of group g in decode order (position 0 decoded first).
    """

    assignment: np.ndarray
    sic_order: list

    def __post_init__(self):
        self.assignment = np.asarray(self.assignment, dtype=int)
        num_groups = len(self.sic_order)
        if self.assignment.size and (self.assignment.min() < 0
                                     or self.assignment.max() >= num_groups):
            raise ValueError("group assignment indices out of range")
        seen = []
        for g, order in enumerate(self.sic_order):
            for k in order:
                if self.assignment[k] != g:
                    raise ValueError(f"user {k} in SIC order of group {g} but assigned "
                                     f"to group {self.assignment[k]}")
            seen.extend(order)
        if sorted(seen) != list(range(len(self.assignment))):
            raise ValueError("SIC orders must cover every user exactly once")

    @property
    def num_groups(self) -> int:
        return len(self.sic_order)

    def members(self, g: int) -> list:
        return list(self.sic_order[g])

    def sic_position(self, k: int) -> int:
        order = self.sic_order[self.assignment[k]]
        return order.index(k)

    def interference_mask(self) -> np.ndarray:
        """Boolean (K, K) mask: entry [k, i] is True when user i's private
        stream interferes with user k's private decoding (other group, or same
        group but decoded after k)."""
        mask = self.assignment[:, None] != self.assignment[None, :]
        for order in self.sic_order:
            for pos, k in enumerate(order):
                for i in order[pos + 1:]:
                    mask[k, i] = True
        np.fill_diagonal(mask, False)
        return mask


def default_grouping(channels: np.ndarray, num_groups: int) -> Grouping:
    """Strongest-with-weakest grouping and gain-ordered SIC.

    Users are ranked by channel norm (descending, ties broken by index) and
    dealt into groups by snake-folding consecutive 2G-blocks of the ranking,
    which pairs the strongest remaining user with the weakest. A trailing
    partial block (K not divisible by num_groups) goes to the last group.
    Within each group the SIC order is descending gain.
    """
    channels = np.asarray(channels)
    k_total = channels.shape[0]
    if not 1 <= num_groups <= k_total:
        raise ValueError(f"need 1 <= num_groups <= {k_total}, got {num_groups}")
    norms = np.linalg.norm(channels, axis=1)
    ranked = sorted(range(k_total), key=lambda k: (-norms[k], k))

    assignment = np.empty(k_total, dtype=int)
    whole_blocks = (k_total // num_groups) * num_groups
    for rank, k in enumerate(ranked):
        if rank >= whole_blocks:
            g = num_groups - 1  # remainder absorbed by the last group
        else:
            block, pos = divmod(rank, num_groups)
            g = num_groups - 1 - pos if block % 2 else pos
        assignment[k] = g

    sic_order = []
    for g in range(num_groups):
        members = [k for k in ranked if assignment[k] == g]
        sic_order.append(members)  # ranked is already gain-descending
    return Grouping(assignment=assignment, sic_order=sic_order)


@dataclass
class RsNomaSolution:
    """Beamformers, powers, and split coefficients for one design point.

    Beamformers are unit-norm directions (rows); transmitted powers live in
    the p_* fields. rho[k] in [0, 1] is user k's claim on its group's common
    capacity.
    """

    grouping: Grouping
    w_common: np.ndarray      # (G, M)
    w_private: np.ndarray     # (K, M)
    w_sensing: np.ndarray     # (M,)
    p_common: np.ndarray      # (G,)
    p_private: np.ndarray     # (K,)
    p_sensing: float
    rho: np.ndarray           # (K,)

    def copy(self) -> "RsNomaSolution":
        return RsNomaSolution(
            grouping=self.grouping,
            w_common=self.w_common.copy(),
            w_private=self.w_private.copy(),
            w_sensing=self.w_sensing.copy(),
            p_common=self.p_common.copy(),
            p_private=self.p_private.copy(),
            p_sensing=float(self.p_sensing),
            rho=self.rho.copy(),
        )

    @property
    def num_users(self) -> int:
        return self.w_private.shape[0]

    @property
    def num_groups(self) -> int:
        return self.w_common.shape[0]

    def total_power(self) -> float:
        """Total transmit power sum_i ||w_i||^2 p_i (unit norms: just powers)."""
        return float(
            np.sum(np.linalg.norm(self.w_common, axis=1) ** 2 * self.p_common)
            + np.sum(np.linalg.norm(self.w_private, axis=1) ** 2 * self.p_private)
            + np.linalg.norm(self.w_sensing) ** 2 * self.p_sensing
        )

    def stacked_beams(self) -> np.ndarray:
        """All beamformers stacked (G + K + 1, M): commons, privates, sensing."""
        return np.vstack([self.w_common, self.w_private, self.w_sensing[None, :]])

    def stacked_powers(self) -> np.ndarray:
        return np.concatenate([self.p_common, self.p_private, [self.p_sensing]])


def conventional_noma_view(solution: RsNomaSolution) -> RsNomaSolution:
    """The same design point with the rate-splitting layer switched off.

    Common powers and rho are zeroed; beam directions are untouched, so the
    view degrades gracefully to plain grouped NOMA.
    """
    out = solution.copy()
    out.p_common = np.zeros_like(out.p_common)
    out.rho = np.zeros_like(out.rho)
    return out


# =====================================================================
# Interference and rates
# =====================================================================

def _stream_gains(channels: np.ndarray, solution: RsNomaSolution):
    """|h_k^H w|^2 against every stream: returns (K,G), (K,K), (K,) arrays."""
    hc = channels.conj()
    gc = np.abs(hc @ solution.w_common.T) ** 2
    gp = np.abs(hc @ solution.w_private.T) ** 2
    gs = np.abs(hc @ solution.w_sensing) ** 2
    return gc, gp, gs


def common_interference(k: int, solution: RsNomaSolution, channels: np.ndarray) -> float:
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


def private_interference(k: int, solution: RsNomaSolution, channels: np.ndarray) -> float:
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


def common_rate(k: int, solution: RsNomaSolution, channels: np.ndarray,
                sigma_n2: float) -> float:
    """Achievable common-stream rate log2(1 + SINR_common) at user k."""
    gc, _, _ = _stream_gains(channels, solution)
    g = solution.grouping.assignment[k]
    sinr = gc[k, g] * solution.p_common[g] / (
        common_interference(k, solution, channels) + sigma_n2)
    return float(np.log2(1.0 + sinr))


def private_rate(k: int, solution: RsNomaSolution, channels: np.ndarray,
                 sigma_n2: float) -> float:
    """Achievable private-stream rate log2(1 + SINR_private) at user k."""
    _, gp, _ = _stream_gains(channels, solution)
    sinr = gp[k, k] * solution.p_private[k] / (
        private_interference(k, solution, channels) + sigma_n2)
    return float(np.log2(1.0 + sinr))


def group_common_allocation(g: int, solution: RsNomaSolution, channels: np.ndarray,
                            sigma_n2: float) -> np.ndarray:
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
    if total <= _RHO_TOL:
        shares = np.full(len(members), 1.0 / len(members))
    else:
        shares = rho / total
    return c_g * shares


@dataclass
class RateBreakdown:
    """Everything rate-related for one design point, vectorized over users."""

    common_sinr: np.ndarray
    private_sinr: np.ndarray
    common_rate: np.ndarray
    private_rate: np.ndarray
    allocated_common: np.ndarray
    total_rate: np.ndarray
    group_common_rate: np.ndarray

    @property
    def sum_rate(self) -> float:
        return float(self.total_rate.sum())

    def to_record(self) -> dict:
        """Flat per-user fields for the result-record schema."""
        out = {}
        for k in range(len(self.total_rate)):
            out[f"rate_user_{k}"] = float(self.total_rate[k])
        out["sum_rate"] = self.sum_rate
        return out


def rate_breakdown(solution: RsNomaSolution, channels: np.ndarray,
                   sigma_n2: float) -> RateBreakdown:
    """Compute every per-user and per-group rate quantity in one pass.

    Matches the scalar operations (common_interference, private_rate, ...)
    exactly; exists so optimizer inner loops touch a single vectorized path.
    """
    channels = np.asarray(channels)
    k_total = solution.num_users
    gc, gp, gs = _stream_gains(channels, solution)
    assign = solution.grouping.assignment

    own_c = gc[np.arange(k_total), assign] * solution.p_common[assign]
    # summed over the other groups directly; the total over all groups minus
    # the own term would cancel whenever the own-group common term dominates
    other_groups = assign[:, None] != np.arange(solution.num_groups)[None, :]
    other_c = (gc * other_groups) @ solution.p_common
    all_p = gp @ solution.p_private
    sense = gs * solution.p_sensing

    i_common = other_c + all_p + sense
    mask = solution.grouping.interference_mask()
    i_private = other_c + (gp * mask) @ solution.p_private + sense

    own_p = gp[np.arange(k_total), np.arange(k_total)] * solution.p_private
    common_sinr = own_c / (i_common + sigma_n2)
    private_sinr = own_p / (i_private + sigma_n2)
    c_rate = np.log2(1.0 + common_sinr)
    p_rate = np.log2(1.0 + private_sinr)

    num_groups = solution.num_groups
    group_c = np.empty(num_groups)
    allocated = np.zeros(k_total)
    for g in range(num_groups):
        members = solution.grouping.members(g)
        group_c[g] = c_rate[members].min()
        rho = solution.rho[members]
        total = rho.sum()
        if total <= _RHO_TOL:
            shares = np.full(len(members), 1.0 / len(members))
        else:
            shares = rho / total
        allocated[members] = group_c[g] * shares

    return RateBreakdown(
        common_sinr=common_sinr,
        private_sinr=private_sinr,
        common_rate=c_rate,
        private_rate=p_rate,
        allocated_common=allocated,
        total_rate=allocated + p_rate,
        group_common_rate=group_c,
    )


def user_total_rate(k: int, solution: RsNomaSolution, channels: np.ndarray,
                    sigma_n2: float) -> float:
    """Allocated common portion plus private rate for user k."""
    bd = rate_breakdown(solution, channels, sigma_n2)
    return float(bd.total_rate[k])


def sum_rate(solution: RsNomaSolution, channels: np.ndarray, sigma_n2: float) -> float:
    """Network sum rate over all users."""
    return rate_breakdown(solution, channels, sigma_n2).sum_rate
