"""Dense reference computations kept out of the package.

The package prices echoes through the rank-one identity
tr(H_l W) = c_l sum_i p_i |a_l^H w_i|^2. These oracles build the M x M
transmit covariance and echo matrices and take the traces directly, so the
tests compare the fast paths against an independent computation.
"""

import numpy as np

from holo_isac.channel import sensing_channel


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
