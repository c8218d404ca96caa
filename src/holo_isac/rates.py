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

from .geometry import vector_norm

_RHO_TOL = 1e-9


@dataclass(eq=False)
class Grouping:
    """User-to-group assignment plus per-group SIC decode orders.

    assignment[k] is the group index of user k. sic_order[g] lists the members
    of group g in decode order (position 0 decoded first). Two groupings are
    equal when their SIC orders are, which fixes the assignment
    (__post_init__); a grouping is not hashable.
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

    def __eq__(self, other):
        if not isinstance(other, Grouping):
            return NotImplemented
        return list(map(list, self.sic_order)) == list(map(list, other.sic_order))

    @property
    def num_groups(self) -> int:
        return len(self.sic_order)

    def members(self, g: int) -> list:
        return list(self.sic_order[g])

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
            + vector_norm(self.w_sensing) ** 2 * self.p_sensing
        )

    def stacked_beams(self) -> np.ndarray:
        """All beamformers stacked (G + K + 1, M): commons, privates, sensing."""
        return np.vstack([self.w_common, self.w_private, self.w_sensing[None, :]])

    def stacked_powers(self) -> np.ndarray:
        return np.concatenate([self.p_common, self.p_private, [self.p_sensing]])


# =====================================================================
# Stream pricing
# =====================================================================

class StreamLayout:
    """Tables of one grouping over the stacked streams.

    Streams are stacked as in RsNomaSolution.stacked_beams: G commons, K
    privates, the sensing probe. Built once per grouping, so pricing a
    design point does no table work, and every table is applied by a
    product, an elementwise op or a reduction, never by a gather:

    * group_of (G, K): 1.0 where user k is in group g, so x @ group_of
      reads each user's entry of a per-group x, exactly.
    * same_group (K, K): 1.0 where two users share a group, so
      x @ same_group is each user's group sum of a per-user x.
    * outside (G, K): 0.0 on group g's members and +inf elsewhere, so
      (x + outside).min(axis=-1) is each group's minimum of x, exactly.
    * stages (4, K, S): 0/1 masks over user k's streams for its own
      common, its common-stage interference (other groups' commons, every
      private, the probe), its private-stage interference (other groups'
      commons, the privates its SIC leaves, the probe) and its own
      private; hear_c and hear_p are its two middle planes.

    numpy keeps the interpreter lock through small products, elementwise
    ops and reductions, but releases it in gathers, take, reduceat, add.at
    and sorts even on a few elements (see the optimizers module).
    """

    def __init__(self, grouping: Grouping):
        g, k = grouping.num_groups, len(grouping.assignment)
        self.num_groups, self.num_users = g, k
        self.num_streams = s = g + k + 1
        self.assign = grouping.assignment
        self.members = [grouping.members(gi) for gi in range(g)]
        users = np.arange(k)
        self.group_of = (np.arange(g)[:, None] == self.assign).astype(float)
        self.same_group = self.group_of.T @ self.group_of
        self.outside = np.where(self.group_of > 0.0, 0.0, np.inf)
        self.stages = np.zeros((4, k, s))
        own_c, hear_c, hear_p, own_p = self.stages
        own_c[users, self.assign] = 1.0
        hear_c[:] = 1.0 - own_c
        hear_p[:] = hear_c
        hear_p[:, g:g + k] = grouping.interference_mask()
        own_p[users, g + users] = 1.0
        self.hear_c, self.hear_p = hear_c, hear_p


def stream_gains(solution: RsNomaSolution, *arrays) -> list:
    """|x^H w_s|^2 of each row x of each array against every stacked beam w_s.

    |x^H w| = |x^T w*|, so the stacked beams are conjugated in place in
    their one copy and no conjugate copy of an M-wide array is made."""
    beams = solution.stacked_beams()
    np.conjugate(beams, out=beams)
    return [np.abs(np.asarray(x) @ beams.T) ** 2 for x in arrays]


def stream_rates(g2: np.ndarray, p: np.ndarray, layout: StreamLayout,
                 sigma_n2: float) -> dict:
    """Signal, interference, SINR and rate of every user's common and
    private stage.

    g2[..., k, s] = |h_k^H w_s|^2 are the stream gains and p the stream
    powers, both stacked as in layout; any leading axes index candidates.
    Each of the four stage sums of user k (own common, common-stage
    interference, private-stage interference, own private; see
    StreamLayout.stages) is one dot of its gain row with the stage's
    masked powers, so a lone candidate and its copy in a stack are priced
    by the same dots, bit for bit. The own signals are single products,
    and other groups' commons are summed directly, never as a total minus
    the own term, which would cancel whenever the own-group term
    dominates.

    Returns:
        dict with own_c, own_p (received own common and private power),
        d_c, d_p (interference plus noise), gam_c, gam_p (SINR), c_rate,
        p_rate (rate log2(1 + SINR)) of each stage and group_c, each
        group's common capacity, the minimum of its members' common rates.
    """
    masked = (layout.stages * p)[:, :, None, :]
    sums = (masked @ g2[..., None, :, :, None])[..., 0, 0]
    den = sums[..., 1:3, :] + sigma_n2
    gam = sums[..., ::3, :] / den
    rate = np.log2(1.0 + gam)
    c_rate = rate[..., 0, :]
    return {
        "own_c": sums[..., 0, :], "own_p": sums[..., 3, :],
        "d_c": den[..., 0, :], "d_p": den[..., 1, :],
        "gam_c": gam[..., 0, :], "gam_p": gam[..., 1, :],
        "c_rate": c_rate, "p_rate": rate[..., 1, :],
        "group_c": (c_rate[..., None, :] + layout.outside).min(axis=-1),
    }


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


def rate_breakdown(solution: RsNomaSolution, channels: np.ndarray,
                   sigma_n2: float) -> RateBreakdown:
    """Every per-user and per-group rate quantity of one design point,
    priced by stream_rates, common_shares and allocate."""
    layout = StreamLayout(solution.grouping)
    g2, = stream_gains(solution, channels)
    st = stream_rates(g2, solution.stacked_powers(), layout, sigma_n2)
    alloc, total = allocate(st["group_c"][layout.assign], st["p_rate"],
                            common_shares(solution.rho, layout.members))
    return RateBreakdown(
        common_sinr=st["gam_c"],
        private_sinr=st["gam_p"],
        common_rate=st["c_rate"],
        private_rate=st["p_rate"],
        allocated_common=alloc,
        total_rate=total,
        group_common_rate=st["group_c"],
    )
