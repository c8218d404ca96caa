"""Rate-splitting NOMA rate computations.

Users are partitioned into groups. Each group carries one common stream,
decoded first by every member (treating all private streams as noise), then
stripped; private streams are decoded inside each group in SIC order, so a
user sees only the not-yet-decoded intra-group privates plus everything from
other groups and the sensing probe. The group common capacity is the worst
member's common rate and is divided among members in proportion to their
common-allocation coefficients rho.

stream_rates, common_shares and allocate are the stream half of the one
pricing kernel (objective.price_streams / price_split): the optimizers, the
result rows and rate_breakdown all price rates through them, over any
number of stacked candidates.
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
# Stream pricing
# =====================================================================

class StreamLayout:
    """Index tables of one grouping over the stacked streams.

    Streams are stacked as in RsNomaSolution.stacked_beams: G commons, K
    privates, the sensing probe. Built once per instance, so pricing a
    design point does no table work.
    """

    def __init__(self, grouping: Grouping):
        g, k = grouping.num_groups, len(grouping.assignment)
        self.num_groups, self.num_users = g, k
        self.num_streams = g + k + 1
        self.assign = grouping.assignment
        self.mask = grouping.interference_mask()
        self.members = [grouping.members(gi) for gi in range(g)]
        self.users = np.arange(k)
        self.private_cols = g + self.users
        # users in SIC order, group by group, and each group's first slot
        self.order = np.concatenate(self.members)
        self.starts = np.cumsum([0] + [len(mem) for mem in self.members])[:-1]
        # 1.0 where group g's common stream is another group's, seen by user k
        self.other_groups = (self.assign[:, None]
                             != np.arange(g)[None, :]).astype(float)


def stream_gains(solution: RsNomaSolution, *arrays) -> list:
    """|x^H w_s|^2 of each row x of each array against every stacked beam w_s.

    |x^H w| = |x^T w*|, so the stacked beams are conjugated in place in
    their one copy and no conjugate copy of an M-wide array is made."""
    beams = solution.stacked_beams()
    np.conjugate(beams, out=beams)
    return [np.abs(np.asarray(x) @ beams.T) ** 2 for x in arrays]


def stream_rates(g2: np.ndarray, p: np.ndarray, layout: StreamLayout,
                 sigma_n2: float):
    """Interference, SINR and rate of every user's common and private stage.

    g2[..., k, s] = |h_k^H w_s|^2 are the stream gains and p the stream
    powers, both stacked as in layout; any leading axes index candidates.
    The common stage hears other groups' commons, every private and the
    probe; the private stage drops the own common and the intra-group
    privates decoded before the user. Other groups' commons are summed
    directly, not as a total minus the own term, which would cancel
    whenever the own-group term dominates.

    Returns:
        (d_c, d_p, gam_c, gam_p, c_rate, p_rate, group_c): interference plus
        noise, SINR and rate log2(1 + SINR) of each stage, and each group's
        common capacity, the minimum of its members' common rates.
    """
    g, k = layout.num_groups, layout.num_users
    pc, pp, ps = p[:g], p[g:g + k], p[-1]

    own_c = g2[..., layout.users, layout.assign] * pc[layout.assign]
    other_c = (g2[..., :g] * layout.other_groups) @ pc
    all_p = g2[..., g:g + k] @ pp
    sense = g2[..., -1] * ps
    i_common = other_c + all_p + sense
    i_private = other_c + (g2[..., g:g + k] * layout.mask) @ pp + sense

    own_p = g2[..., layout.users, layout.private_cols] * pp
    d_c = i_common + sigma_n2
    d_p = i_private + sigma_n2
    gam_c = own_c / d_c
    gam_p = own_p / d_p
    c_rate = np.log2(1.0 + gam_c)
    p_rate = np.log2(1.0 + gam_p)
    group_c = np.minimum.reduceat(c_rate[..., layout.order], layout.starts,
                                  axis=-1)
    return d_c, d_p, gam_c, gam_p, c_rate, p_rate, group_c


def group_shares(rho: np.ndarray) -> np.ndarray:
    """One group's split of its common capacity: rho / sum(rho), or uniform
    when the group's rho sum is (near) zero."""
    total = rho.sum()
    if total > _RHO_TOL:
        return rho / total
    return np.full(len(rho), 1.0 / len(rho))


def common_shares(rho: np.ndarray, members) -> np.ndarray:
    """Per-user share of the own-group common capacity under rho."""
    out = np.empty(len(rho))
    for mem in members:
        out[mem] = group_shares(rho[mem])
    return out


def allocate(cap: np.ndarray, p_rate: np.ndarray, shares: np.ndarray):
    """(allocated common rate, total rate) per user: cap, the capacity of
    the user's group, times the user's share, plus the private rate."""
    alloc = cap * shares
    return alloc, alloc + p_rate


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
    """Every per-user and per-group rate quantity of one design point,
    priced by stream_rates, common_shares and allocate."""
    layout = StreamLayout(solution.grouping)
    g2, = stream_gains(solution, channels)
    _, _, gam_c, gam_p, c_rate, p_rate, group_c = stream_rates(
        g2, solution.stacked_powers(), layout, sigma_n2)
    alloc, total = allocate(group_c[layout.assign], p_rate,
                            common_shares(solution.rho, layout.members))
    return RateBreakdown(
        common_sinr=gam_c,
        private_sinr=gam_p,
        common_rate=c_rate,
        private_rate=p_rate,
        allocated_common=alloc,
        total_rate=total,
        group_common_rate=group_c,
    )
