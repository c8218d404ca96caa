"""Output checks, run after the clock stops.

Solver workloads: every metric of every result row is recomputed here, in
numpy, from the true channels and the solution the solver returned; the
physics is re-derived from the scenario input (not from the package), and
method properties are asserted on top. records_stats: rows must read back
bit-identical, and every number in both stats reports must match
scipy.stats / numpy on the same generated rows.

Each check function returns a list of failure messages (empty when clean).
"""

from __future__ import annotations

import math
from itertools import combinations
from statistics import NormalDist

import numpy as np

SPEED_OF_LIGHT = 3.0e8
RTOL = 1e-9
# Rounding allowed in each interference sum, as a share of the total power
# it is drawn from (a user's total received power, or the total echo).
# Non-negative terms summed in any order stay within ~1e-15 of it; the
# program forms other-group common interference as (all commons - own
# common) and echo clutter as (all echoes - own echo), which is good only to
# ~1e-16 of the total and so can lose most digits of a small difference.
# Each echo comes from a dense trace tr(H_l W) whose terms are as large as
# the most the beams could put on target l, so a target the beams all but
# miss keeps only the leading digits of its echo; the trace is allowed the
# same share of that largest value. Where no such cancellation occurs the
# checks reduce to RTOL.
SUM_ROUNDING = 1e-13
FD_STEP = 1e-5          # the CRLB's finite-difference step on the polar angle
_FIELDS_BOOL = ("failed", "converged", "monotone")
_FIELDS_INT = ("schema_version", "sweep_index", "trial_index",
               "iterations_used")
_FIELDS_FLOAT = ("objective", "sum_rate", "detection_prob", "crlb",
                 "energy_efficiency", "fairness")


def close(a, b, rtol=RTOL, atol=0.0) -> bool:
    """Relative closeness that treats equal infinities as equal."""
    a, b = float(a), float(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + atol


def parse_record_line(line: str) -> dict:
    """One result-record line into typed fields (independent reader)."""
    row = {}
    for token in line.split(" "):
        key, _, text = token.partition("=")
        if key in _FIELDS_BOOL:
            value = {"true": True, "false": False}[text]
        elif key in _FIELDS_INT:
            value = int(text)
        elif key in _FIELDS_FLOAT:
            value = float(text)
        elif key == "sweep_value":
            value = None if text == "none" else float(text)
        elif key == "sinr_db":
            value = tuple(float(v) for v in text.split(";")) if text else ()
        else:
            value = text
        row[key] = value
    return row


def read_record_file(path) -> list:
    with open(path, "r", encoding="ascii") as fh:
        return [parse_record_line(line.rstrip("\n")) for line in fh if line.strip()]


# =====================================================================
# Solver workloads
# =====================================================================

class Physics:
    """The scenario's constants, derived from the benchmark's own input."""

    def __init__(self, scenario: dict):
        def num(key):
            return float(scenario[key])

        self.mx, self.my = int(scenario["geometry.mx"]), int(scenario["geometry.my"])
        self.lam = SPEED_OF_LIGHT / num("geometry.carrier_hz")
        self.d = num("geometry.spacing_over_lambda") * self.lam
        self.p_max = 10.0 ** ((num("powers.p_max_dbm") - 30.0) / 10.0)
        self.s2n = 10.0 ** ((num("powers.sigma_n_dbm") - 30.0) / 10.0)
        self.s2s = 10.0 ** ((num("powers.sigma_s_dbm") - 30.0) / 10.0)
        self.p_fa = num("limits.p_fa")
        a = np.array([num(f"weights.alpha{i}") for i in range(1, 5)])
        self.alphas = a / a.sum()

    def steering(self, theta, phi, r):
        """Exact-distance near-field response, row-major with n fastest."""
        m, n = np.meshgrid(np.arange(self.mx), np.arange(self.my), indexing="ij")
        dist = np.sqrt(r * r + (self.d * m) ** 2 + (self.d * n) ** 2
                       - 2.0 * r * self.d * m * math.sin(theta) * math.cos(phi)
                       - 2.0 * r * self.d * n * math.sin(theta) * math.sin(phi))
        k0 = 2.0 * math.pi / self.lam
        return (np.exp(1j * k0 * dist) / dist).reshape(-1) / math.sqrt(self.mx * self.my)


def recompute_rates(h, sol, s2n):
    """Per-user common/private SINRs, group-minimum split and total rates,
    each with the interval that SUM_ROUNDING allows around it."""
    beams = np.vstack([sol.w_common, sol.w_private, sol.w_sensing[None, :]])
    powers = np.concatenate([sol.p_common, sol.p_private, [sol.p_sensing]])
    n_groups, n_users = sol.w_common.shape[0], sol.w_private.shape[0]
    received = np.abs(h.conj() @ beams.T) ** 2 * powers   # (K, S) powers
    assign = np.asarray(sol.grouping.assignment)
    position = {k: pos for order in sol.grouping.sic_order
                for pos, k in enumerate(order)}
    own_c, own_p = np.empty(n_users), np.empty(n_users)
    den_c, den_p = np.empty(n_users), np.empty(n_users)
    for k in range(n_users):
        g = assign[k]
        other_common = sum(received[k, j] for j in range(n_groups) if j != g)
        heard = [n_groups + i for i in range(n_users) if i != k and (
            assign[i] != g or position[i] > position[k])]
        rest = received[k, -1] + s2n
        own_c[k], own_p[k] = received[k, g], received[k, n_groups + k]
        den_c[k] = other_common + received[k, n_groups:-1].sum() + rest
        den_p[k] = other_common + received[k, heard].sum() + rest
    slack = SUM_ROUNDING * received.sum(axis=1)

    def rate(own, den):
        return np.log2(1.0 + own / den)

    bounds = {}
    for tag, den in (("lo", den_c + slack), ("mid", den_c),
                     ("hi", np.maximum(den_c - slack, s2n))):
        c_rate = rate(own_c, den)
        group_c = np.array([c_rate[list(m)].min() for m in sol.grouping.sic_order])
        bounds[tag] = (c_rate, group_c)
    alloc = {}
    for tag, (_, group_c) in bounds.items():
        alloc[tag] = np.empty(n_users)
        for g, members in enumerate(sol.grouping.sic_order):
            members = list(members)
            rho = sol.rho[members]
            share = (rho / rho.sum() if rho.sum() > 1e-9
                     else np.full(len(members), 1.0 / len(members)))
            alloc[tag][members] = group_c[g] * share
    p_rate = {"lo": rate(own_p, den_p + slack), "mid": rate(own_p, den_p),
              "hi": rate(own_p, np.maximum(den_p - slack, s2n))}
    return {"own_c": own_c, "own_p": own_p, "den_c": den_c, "den_p": den_p,
            "slack": slack,
            "group_common_rate": {t: b[1] for t, b in bounds.items()},
            "allocated_common": alloc,
            "total_rate": {t: alloc[t] + p_rate[t] for t in alloc},
            "beams": beams, "powers": powers}


def within(value, lo, hi) -> bool:
    """lo <= value <= hi, each end widened by RTOL."""
    return lo - RTOL * abs(lo) <= value <= hi + RTOL * abs(hi)


def sinr_matches(gamma, own, den, slack, own_slack=0.0) -> bool:
    """A reported SINR own'/den' whose numerator own' and denominator den'
    lie within the allowed rounding of the recomputed ones."""
    if own == 0.0:
        return gamma == 0.0
    return gamma > 0.0 and abs(own / gamma - den) <= \
        slack + RTOL * den + own_slack / gamma


def recompute_sensing(phys: Physics, targets, beams, powers):
    """Echo SINRs by tr(H_l W) = c_l sum_i p_i |a_l^H w_i|^2 (with their
    SUM_ROUNDING intervals), the finite-difference angle CRLB, and the
    detection-probability interval."""
    crlb, echoes, echo_max = [], [], []
    drive = float(np.linalg.norm(beams, axis=1) ** 2 @ powers)
    for t in targets:
        a = phys.steering(t.theta, t.phi, t.r)
        amp2 = t.rcs * t.gain_tx * t.gain_rx * phys.lam ** 2 \
            / ((4.0 * math.pi) ** 3 * t.r ** 4)
        beam_sum = float(np.abs(a.conj() @ beams.T) ** 2 @ powers)
        echoes.append(t.rcs * amp2 * beam_sum ** 2)
        # all the power on a beam matched to a_l
        echo_max.append(t.rcs * amp2 * (float(np.real(a.conj() @ a)) * drive) ** 2)
        da = (phys.steering(t.theta + FD_STEP, t.phi, t.r)
              - phys.steering(t.theta - FD_STEP, t.phi, t.r)) / (2.0 * FD_STEP)
        dn2 = float(np.real(da.conj() @ da))
        p_s = powers[-1]
        crlb.append(phys.s2s / (2.0 * p_s * t.rcs * dn2) if p_s > 0.0 else math.inf)
    echoes, echo_max = np.array(echoes), np.array(echo_max)
    den = np.array([echoes[:l].sum() + echoes[l + 1:].sum()
                    for l in range(len(echoes))]) + phys.s2s
    # |tr| off by SUM_ROUNDING * sqrt(echo_max) moves the echo by own_slack
    own_slack = 2.0 * SUM_ROUNDING * np.sqrt(echoes * echo_max) \
        + SUM_ROUNDING ** 2 * echo_max
    slack = SUM_ROUNDING * echoes.sum() + own_slack.sum() - own_slack
    sinr = {"lo": np.maximum(echoes - own_slack, 0.0) / (den + slack),
            "mid": echoes / den,
            "hi": (echoes + own_slack) / np.maximum(den - slack, phys.s2s)}
    q_fa = NormalDist().inv_cdf(1.0 - phys.p_fa)

    def detection(gammas):
        return np.array([0.5 * math.erfc((q_fa - math.sqrt(2.0 * g)) / math.sqrt(2.0))
                         if g > 0.0 else phys.p_fa for g in gammas])

    return {"echoes": echoes, "den": den, "slack": slack,
            "own_slack": own_slack, "sinr": sinr,
            "crlb": np.array(crlb),
            "detection": {t: detection(g) for t, g in sinr.items()}}


def check_solver_rows(workload, rows, capture, rate_breakdown):
    """Recompute and cross-check every row of one round.

    rate_breakdown is the program's vectorized rate routine; the per-user
    SINRs and the group split (which rows do not store) are checked
    against it, everything else against the row itself. Returns the
    failure messages and the number of rows that failed (marked failed by
    the program, or failing a check).
    """
    errors, bad = [], set()
    phys = Physics(workload.scenario)
    captured = capture.by_row_key()
    if len(rows) != workload.rows_per_round:
        errors.append(f"{len(rows)} rows, expected {workload.rows_per_round}")
    keys = {(r["sweep_index"], r["algorithm"], r["trial_index"]) for r in rows}
    if len(keys) != len(rows):
        errors.append("duplicate (sweep, algorithm, trial) rows")
    objective_of = {}

    def fail(row, what):
        bad.add((row["sweep_index"], row["algorithm"], row["trial_index"]))
        errors.append(f"sweep={row['sweep_index']} trial={row['trial_index']} "
                      f"{row['algorithm']}: {what}")

    for row in rows:
        hit = captured.get((row["channel_hash"], row["algorithm"]))
        if hit is None:
            fail(row, "no captured solve for this row")
            continue
        data, sol, trace = hit
        if row["failed"]:
            fail(row, "row marked failed")
            continue
        if (row["iterations_used"], row["converged"], row["monotone"]) != (
                trace.iterations_used, trace.converged, trace.monotone):
            fail(row, "convergence fields differ from the solver trace")
        h = np.asarray(data.channels_true)
        rates = recompute_rates(h, sol, phys.s2n)
        bd = rate_breakdown(sol, h, phys.s2n)
        slack = rates["slack"]
        if not all(sinr_matches(x, *args) for x, *args in zip(
                bd.common_sinr, rates["own_c"], rates["den_c"], slack)):
            fail(row, "common SINRs differ from recomputation")
        if not all(sinr_matches(x, *args) for x, *args in zip(
                bd.private_sinr, rates["own_p"], rates["den_p"], slack)):
            fail(row, "private SINRs differ from recomputation")
        for name in ("group_common_rate", "allocated_common"):
            ours = rates[name]
            if not all(within(x, lo, hi) for x, lo, hi in zip(
                    getattr(bd, name), ours["lo"], ours["hi"])):
                fail(row, f"{name} differs from recomputation")
        total = rates["total_rate"]
        sum_lo, sum_rate, sum_hi = (float(total[t].sum())
                                    for t in ("lo", "mid", "hi"))
        if not within(row["sum_rate"], sum_lo, sum_hi):
            fail(row, f"sum_rate {row['sum_rate']!r} != {sum_rate!r}")

        beams, powers = rates["beams"], rates["powers"]
        sense = recompute_sensing(phys, data.targets, beams, powers)
        sinr = sense["sinr"]
        row_sinr = 10.0 ** (np.array(row["sinr_db"]) / 10.0)
        if len(row_sinr) != len(sense["echoes"]) or not all(
                sinr_matches(x, e, d, s, o) for x, e, d, s, o in zip(
                    row_sinr, sense["echoes"], sense["den"], sense["slack"],
                    sense["own_slack"])):
            fail(row, f"echo SINRs {row_sinr} != {sinr['mid']}")
        crlb = float(np.mean(sense["crlb"]))
        if not close(crlb, row["crlb"]):
            fail(row, f"crlb {row['crlb']!r} != {crlb!r}")
        det = {t: float(np.mean(v)) for t, v in sense["detection"].items()}
        if not det["lo"] - 1e-9 <= row["detection_prob"] <= det["hi"] + 1e-9:
            fail(row, f"detection_prob {row['detection_prob']!r} != {det['mid']!r}")

        power = float(np.sum(np.linalg.norm(beams, axis=1) ** 2 * powers))
        r = total["mid"]
        if np.any(r > 0.0):
            fair = r.sum() ** 2 / (len(r) * float(r @ r))
            d_fair = 2.0 * r.sum() / (len(r) * float(r @ r)) \
                - 2.0 * r.sum() ** 2 * r / (len(r) * float(r @ r) ** 2)
            fair_slack = float(np.abs(d_fair) @ (total["hi"] - total["lo"]))
        else:
            fair, fair_slack = 0.0, 0.0
        ee = sum_rate / power if power > 0.0 else 0.0
        ee_lo, ee_hi = ((sum_lo / power, sum_hi / power) if power > 0.0
                        else (0.0, 0.0))
        util = {t: float(np.sum(np.log2(1.0 + g))) for t, g in sinr.items()}
        a = phys.alphas
        objective = float(a @ np.array([sum_rate, util["mid"], ee, fair]))
        obj_slack = a[0] * (sum_hi - sum_lo) + a[1] * (util["hi"] - util["lo"]) \
            + a[2] * (ee_hi - ee_lo) + a[3] * fair_slack
        if not within(row["energy_efficiency"], ee_lo, ee_hi):
            fail(row, f"energy_efficiency {row['energy_efficiency']!r} != {ee!r}")
        if not within(row["fairness"], fair - fair_slack, fair + fair_slack):
            fail(row, f"fairness {row['fairness']!r} != {fair!r}")
        if not within(row["objective"], objective - obj_slack,
                      objective + obj_slack):
            fail(row, f"objective {row['objective']!r} != {objective!r}")

        # properties of the method
        ceiling = float(np.sum(np.log2(1.0 + phys.p_max
                                       * np.sum(np.abs(h) ** 2, axis=1) / phys.s2n)))
        if sum_rate > ceiling * (1.0 + RTOL):
            fail(row, f"sum rate {sum_rate} above the interference-free ceiling {ceiling}")
        if power > phys.p_max * (1.0 + RTOL):
            fail(row, f"total power {power} above P_max {phys.p_max}")
        if np.max(np.abs(np.linalg.norm(beams, axis=1) - 1.0)) > RTOL:
            fail(row, "beamformers are not unit-norm")
        if np.any(sol.rho < 0.0) or np.any(sol.rho > 1.0):
            fail(row, "rho outside [0, 1]")
        csi_eps = (row["sweep_value"] if workload.sweep_axis == "csi_eps"
                   else float(workload.scenario["impairments.csi_eps"]))
        if csi_eps == 0.0:
            objective_of[(row["sweep_index"], row["trial_index"],
                          row["algorithm"])] = objective

    for (s, t, alg), value in objective_of.items():
        if alg != "hao_sca" or (s, t, "conv_noma") not in objective_of:
            continue
        noma = objective_of[(s, t, "conv_noma")]
        if value < noma - RTOL * abs(noma):
            bad.add((s, alg, t))
            errors.append(f"sweep={s} trial={t}: recomputed hao_sca objective "
                          f"{value!r} below conv_noma's {noma!r} on error-free CSI")
    return errors, len(bad)


# =====================================================================
# records_stats
# =====================================================================

def _bits(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    return value


def row_bits(row) -> tuple:
    """A result row as a tuple that compares equal only when bit-identical."""
    row = vars(row)
    return tuple(_bits(row[key]) for key in (
        "sweep_index", "sweep_value", "algorithm", "trial_index",
        "channel_hash", "failed", "converged", "monotone", "iterations_used",
        "objective", "sum_rate", "sinr_db", "detection_prob", "crlb",
        "energy_efficiency", "fairness"))


def count_mismatched_rows(expected, got) -> int:
    """Rows of expected that are missing from, or differ in, got."""
    if len(got) != len(expected):
        return max(len(expected), abs(len(expected) - len(got)))
    return sum(row_bits(a) != row_bits(b) for a, b in zip(expected, got))


def _parse_report(path) -> list:
    findings = []
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline()
        if not header.startswith("schema_version="):
            raise ValueError(f"{path}: bad header {header!r}")
        for line in fh:
            findings.append(dict(tok.split("=", 1) for tok in line.split()))
    return findings


def _num(text: str) -> float:
    return 0.0 if text == "<1e-300" else float(text)


def _by_point(rows):
    """(sweep_index, algorithm) -> non-failed rows."""
    out = {}
    for r in rows:
        if not r.failed:
            out.setdefault((r.sweep_index, r.algorithm), []).append(r)
    return out


def _samples(by_point, sweep_index, algorithm, metric):
    """trial_index -> value at one sweep point."""
    return {r.trial_index: getattr(r, metric)
            for r in by_point.get((sweep_index, algorithm), ())}


def _paired(sa, sb):
    common = sorted(set(sa) & set(sb))
    return (np.array([sa[i] for i in common]),
            np.array([sb[i] for i in common]))


def _cohens_d(a, b):
    pooled = ((a.size - 1) * a.var(ddof=1) + (b.size - 1) * b.var(ddof=1)) \
        / (a.size + b.size - 2)
    return float((a.mean() - b.mean()) / np.sqrt(pooled))


def _p_close(p_report, p_ref) -> bool:
    """p-values come out of 1 - CDF in double precision, so values below
    about 1e-15 are only resolved to that absolute level."""
    return close(p_report, p_ref, rtol=1e-7, atol=1e-14)


def _paired_reference(a, b, confidence=0.95):
    from scipy import stats

    d = a - b
    res = stats.ttest_rel(a, b)
    se = d.std(ddof=1) / np.sqrt(d.size)
    tq = stats.t.ppf(0.5 + confidence / 2.0, d.size - 1)
    return (float(res.statistic), float(res.pvalue), float(d.mean() - tq * se),
            float(d.mean() + tq * se), tq * se)


def check_stats_report(path, rows, metrics, baseline_rows=None) -> list:
    """Every finding of one report against scipy.stats / numpy."""
    from scipy import stats

    errors = []

    def expect(finding, field, ref, rtol=RTOL, atol=0.0):
        got = _num(finding[field])
        if not close(got, ref, rtol=rtol, atol=atol):
            errors.append(f"{path}: {finding.get('comparison', finding.get('summary'))} "
                          f"{finding.get('metric')} {finding.get('algorithm', '')}"
                          f"{finding.get('a', '')}/{finding.get('b', '')} "
                          f"{field}={finding[field]} expected {ref!r}")

    findings = _parse_report(path)
    expected_count = 0
    points = sorted({r.sweep_index for r in rows})
    main = _by_point(rows)
    base = _by_point(baseline_rows) if baseline_rows is not None else None
    by_key = {}
    for f in findings:
        key = (int(f["sweep_index"]), f["metric"],
               f.get("summary") or f.get("comparison"),
               f.get("algorithm"), f.get("a"), f.get("b"))
        by_key[key] = f

    for s in points:
        algs = sorted({alg for (point, alg) in main if point == s})
        for metric in metrics:
            samples = {alg: _samples(main, s, alg, metric) for alg in algs}
            if base is not None:
                for alg in algs:
                    a, b = _paired(samples[alg],
                                   _samples(base, s, alg, metric))
                    expected_count += 1
                    f = by_key.get((s, metric, "vs_baseline", alg, None, None))
                    if f is None:
                        errors.append(f"{path}: missing vs_baseline {s} {metric} {alg}")
                        continue
                    stat, p, lo, hi, half = _paired_reference(a, b)
                    expect(f, "statistic", stat)
                    if not _p_close(_num(f["p"]), p):
                        errors.append(f"{path}: vs_baseline {metric} {alg} p={f['p']} expected {p!r}")
                    expect(f, "ci_low", lo, atol=RTOL * half)
                    expect(f, "ci_high", hi, atol=RTOL * half)
                    expect(f, "effect_size", _cohens_d(a, b))
                continue

            for alg in algs:
                x = np.array(list(samples[alg].values()))
                expected_count += 1
                f = by_key.get((s, metric, "mean", alg, None, None))
                if f is None:
                    errors.append(f"{path}: missing mean {s} {metric} {alg}")
                    continue
                m, se = x.mean(), x.std(ddof=1) / np.sqrt(x.size)
                expect(f, "mean", m)
                for level, tag in ((0.95, "95"), (0.99, "99")):
                    half = stats.t.ppf(0.5 + level / 2.0, x.size - 1) * se
                    expect(f, f"ci{tag}_low", m - half, atol=RTOL * half)
                    expect(f, f"ci{tag}_high", m + half, atol=RTOL * half)

            groups = [np.array(list(samples[alg].values())) for alg in algs]
            expected_count += 1
            f = by_key.get((s, metric, "across_algorithms", None, None, None))
            if f is None:
                errors.append(f"{path}: missing ANOVA {s} {metric}")
            else:
                res = stats.f_oneway(*groups)
                grand = np.concatenate(groups).mean()
                ss_b = sum(g.size * (g.mean() - grand) ** 2 for g in groups)
                ss_w = sum(((g - g.mean()) ** 2).sum() for g in groups)
                expect(f, "statistic", res.statistic)
                if not _p_close(_num(f["p"]), res.pvalue):
                    errors.append(f"{path}: ANOVA {metric} p={f['p']} expected {res.pvalue!r}")
                expect(f, "effect_size", ss_b / (ss_b + ss_w))
                expect(f, "df", len(groups) - 1)
                expect(f, "df2", sum(g.size for g in groups) - len(groups))

            pairs = list(combinations(algs, 2))
            for alg_a, alg_b in pairs:
                a, b = _paired(samples[alg_a], samples[alg_b])
                expected_count += 1
                f = by_key.get((s, metric, "pairwise", None, alg_a, alg_b))
                if f is None:
                    errors.append(f"{path}: missing pairwise {s} {metric} {alg_a}/{alg_b}")
                    continue
                stat, p, lo, hi, half = _paired_reference(a, b)
                expect(f, "statistic", stat)
                if not _p_close(_num(f["p"]), p):
                    errors.append(f"{path}: pairwise {metric} {alg_a}/{alg_b} p={f['p']} expected {p!r}")
                expect(f, "ci_low", lo, atol=RTOL * half)
                expect(f, "ci_high", hi, atol=RTOL * half)
                expect(f, "cohens_d", _cohens_d(a, b))
                expect(f, "effect_size", _cohens_d(a, b))
                if not _p_close(_num(f["p_adjusted"]), min(1.0, len(pairs) * p)):
                    errors.append(f"{path}: pairwise {metric} {alg_a}/{alg_b} "
                                  f"p_adjusted={f['p_adjusted']} expected "
                                  f"{min(1.0, len(pairs) * p)!r}")
    if len(findings) != expected_count:
        errors.append(f"{path}: {len(findings)} findings, expected {expected_count}")
    return errors
