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


def sequential_beam_block(ctx, w, p, rho, f0, aux0, config, frozen_streams=None):
    """The beamformer block with its row-by-row fallback priced one
    candidate per ctx.evaluate call, in backtracking order.

    optimizers._beam_block prices a row's steps in one stacked call; this
    is the loop it replaced, kept to show both give the same iterate."""
    from holo_isac.optimizers import _normalize_rows

    anchor = (aux0["d_c"], aux0["d_p"], aux0["d_l"])
    best_w, best_f, best_aux = w, f0, aux0
    frozen = np.zeros(w.shape[0], dtype=bool)
    if frozen_streams is not None:
        frozen[frozen_streams] = True
    shares = ctx.shares(rho)
    eta = config.step_size
    row_eta = np.full(w.shape[0], config.step_size)
    joint_ok = True
    for _ in range(config.inner_steps):
        grad = ctx.beam_gradient(best_w, p, shares, best_aux, anchor)
        if not np.all(np.isfinite(grad)):
            raise RuntimeError("non-finite beamformer gradient")
        grad[frozen] = 0.0
        radial = np.real(np.sum(grad.conj() * best_w, axis=1))
        tang = grad - radial[:, None] * best_w
        tn = np.linalg.norm(tang, axis=1)
        if tn.max() < 1e-14:
            break
        accepted = False
        if joint_ok:
            direction = tang / tn.max()
            step = eta
            for _bt in range(config.max_backtracks):
                cand = _normalize_rows(best_w + step * direction, best_w)
                f_c, aux_c = ctx.evaluate(cand, p, rho, shares)
                if f_c > best_f:
                    best_w, best_f, best_aux = cand, f_c, aux_c
                    eta = min(step * 1.5, 1.0)
                    accepted = True
                    break
                step *= config.backtrack
            if not accepted:
                joint_ok = False
        if not accepted:
            for j in np.argsort(-tn):
                if frozen[j] or tn[j] < 1e-14:
                    continue
                dir_j = tang[j] / tn[j]
                step = row_eta[j]
                for _bt in range(4):
                    row = best_w[j] + step * dir_j
                    nr = np.linalg.norm(row)
                    if nr >= 1e-300:
                        cand = best_w.copy()
                        cand[j] = row / nr
                        f_c, aux_c = ctx.evaluate(cand, p, rho, shares)
                        if f_c > best_f:
                            best_w, best_f, best_aux = cand, f_c, aux_c
                            row_eta[j] = min(step * 1.5, 1.0)
                            accepted = True
                            break
                    step *= config.backtrack
                if accepted:
                    break
                row_eta[j] = max(step, 1e-3)
        if not accepted:
            break
    return best_w, best_f, best_aux
