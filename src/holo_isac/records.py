"""Result persistence: newline-delimited records, CSV, plot tables, reports.

The structured format puts one record per line as space-separated key=value
pairs in a fixed order, with schema_version first. Floats are serialized
with repr() and read back with float(), so a file read back reproduces the
in-memory values bit for bit. Lines are self-contained, which lets parallel
workers write shard files that merge by simple concatenation plus the
canonical sort.

The line template and the line regex are both built from one table of the
fields (_SYNTAX, whose keys are RECORD_FIELDS). A row is written with one
%-template fill and read with one fullmatch of the regex, which accepts
exactly the lines the writer emits; the CSV export fills the same cells
into a comma template.
"""

from __future__ import annotations

import os
import re
from array import array
from itertools import combinations
from operator import attrgetter, itemgetter

import numpy as np

from .experiments import TrialResult
from .stats import (
    StatTestResult,
    bonferroni,
    cohens_d,
    mean_ci,
    one_way_anova,
    paired_t_test,
)

SCHEMA_VERSION = 1

# what str() of an int and repr() of a float print, and nothing else; an
# optional group is written (?:...|), which the re module matches faster
# than (?:...)?
_INT = r"-?(?:[1-9][0-9]*|0)"
_FLOAT = r"(?:-?(?:[1-9][0-9]*|0)(?:\.[0-9]+|)(?:e[-+][0-9]+|)|-?inf|nan)"
_BOOL = "true|false"
_TEXT = "[^ ]*"

# field -> (template conversion, value regex), in line order; schema_version
# is fixed text in both
_SYNTAX = {
    "schema_version": (str(SCHEMA_VERSION), str(SCHEMA_VERSION)),
    "sweep_index": ("%s", _INT),
    "sweep_value": ("%s", f"none|{_FLOAT}"),
    "algorithm": ("%s", _TEXT),
    "trial_index": ("%s", _INT),
    "channel_hash": ("%s", _TEXT),
    "failed": ("%s", _BOOL),
    "converged": ("%s", _BOOL),
    "monotone": ("%s", _BOOL),
    "iterations_used": ("%s", _INT),
    "objective": ("%r", _FLOAT),
    "sum_rate": ("%r", _FLOAT),
    "sinr_db": ("%s", f"(?:{_FLOAT}(?:;{_FLOAT})*|)"),
    "detection_prob": ("%r", _FLOAT),
    "crlb": ("%r", _FLOAT),
    "energy_efficiency": ("%r", _FLOAT),
    "fairness": ("%r", _FLOAT),
}
RECORD_FIELDS = tuple(_SYNTAX)

PLOT_METRICS = ("objective", "sum_rate", "detection_prob", "crlb",
                "energy_efficiency", "fairness")


# =====================================================================
# Record serialization
# =====================================================================

_RECORD_TEMPLATE = " ".join(f"{field}={conversion}"
                            for field, (conversion, _) in _SYNTAX.items())
_CSV_TEMPLATE = ",".join(conversion for conversion, _ in _SYNTAX.values())
# one group per field of TrialResult, in its field order
_RECORD_RE = re.compile(" ".join(
    f"{field}={pattern}" if field == "schema_version"
    else f"{field}=({pattern})" for field, (_, pattern) in _SYNTAX.items()))

_row_values = attrgetter(*RECORD_FIELDS[1:])


def _cells(row: TrialResult) -> tuple:
    """The template cells of a row, in field order after schema_version.

    The float() casts keep numpy scalars out of %r, which would print
    np.float64(...) under numpy 2."""
    (sweep_index, sweep_value, algorithm, trial_index, channel_hash, failed,
     converged, monotone, iterations_used, objective, sum_rate, sinr_db,
     detection_prob, crlb, energy_efficiency, fairness) = _row_values(row)
    return (sweep_index,
            "none" if sweep_value is None else repr(float(sweep_value)),
            algorithm, trial_index, channel_hash,
            "true" if failed else "false",
            "true" if converged else "false",
            "true" if monotone else "false",
            iterations_used, float(objective), float(sum_rate),
            ";".join([repr(float(v)) for v in sinr_db]),
            float(detection_prob), float(crlb), float(energy_efficiency),
            float(fairness))


def format_record(row: TrialResult) -> str:
    """One record line; schema_version leads, field order is fixed."""
    return _RECORD_TEMPLATE % _cells(row)


def _reject(line: str):
    """Raise why the record regex rejected line: the first field whose
    token is missing, out of place or not what the writer emits."""
    tokens = line.split(" ")
    if len(tokens) != len(RECORD_FIELDS):
        raise ValueError(
            f"record has {len(tokens)} fields, expected {len(RECORD_FIELDS)}")
    for field, token in zip(RECORD_FIELDS, tokens):
        key, sep, text = token.partition("=")
        if not sep or key != field:
            raise ValueError(f"expected field {field!r}, got token {token!r}")
        if re.fullmatch(_SYNTAX[field][1], text) is None:
            if field == "schema_version":
                raise ValueError(f"unsupported schema version {text}")
            if _SYNTAX[field][1] == _BOOL:
                raise ValueError(f"bad boolean {text!r} for field {field}")
            raise ValueError(f"bad value {text!r} for field {field}")
    raise ValueError(f"malformed record {line!r}")


def parse_record(line: str, shared: dict | None = None) -> TrialResult:
    """One record line back into its row: one regex match, then float(),
    int() and the word tests. A rejected line raises ValueError naming the
    first field at fault.

    shared, when given, is a dict kept across the lines of one file; the
    rows then share one object per distinct algorithm name, channel hash
    and sweep value. It is keyed on the token text, so -0.0 and 0.0 stay
    distinct."""
    match = _RECORD_RE.fullmatch(line)
    if match is None:
        _reject(line)
    (sweep_index, sweep_value, algorithm, trial_index, channel_hash, failed,
     converged, monotone, iterations_used, objective, sum_rate, sinr_db,
     detection_prob, crlb, energy_efficiency, fairness) = match.groups()
    if shared is None:
        shared = {}
    # a sweep value is filed apart from the text tokens, which map to
    # themselves
    token = ("sweep_value", sweep_value)
    try:
        value = shared[token]
    except KeyError:
        value = shared[token] = (None if sweep_value == "none"
                                 else float(sweep_value))
    share = shared.setdefault
    return TrialResult(
        int(sweep_index), value, share(algorithm, algorithm),
        int(trial_index), share(channel_hash, channel_hash), failed == "true",
        converged == "true", monotone == "true", int(iterations_used),
        float(objective), float(sum_rate),
        tuple([float(v) for v in sinr_db.split(";")]) if sinr_db else (),
        float(detection_prob), float(crlb), float(energy_efficiency),
        float(fairness))


def write_records(rows, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for row in rows:
            fh.write(_RECORD_TEMPLATE % _cells(row) + "\n")


def iter_records(path):
    """Stream the TrialResult rows of a record file (bit-exact floats).

    The rows of one file share their repeated algorithm names, channel
    hashes and sweep values (see parse_record), so the rows of one trial
    hold one channel_hash string."""
    shared = {}
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                row = parse_record(line, shared)
            except ValueError as exc:
                raise ValueError(f"{path}, line {lineno}: {exc}") from None
            yield row


def read_records(path):
    """Parse a record file back into a list of TrialResult rows."""
    return list(iter_records(path))


def merge_records(paths):
    """Concatenate shard files and restore the canonical row order.

    Raises ValueError, naming the key and the file of each occurrence, when
    a (sweep_index, sweep_value, algorithm, trial_index) key repeats."""
    shards = [(path, read_records(path)) for path in paths]
    _key_table(shards, ())
    rows = [row for _, shard in shards for row in shard]
    rows.sort(key=attrgetter("sweep_index", "algorithm", "trial_index"))
    return rows


# =====================================================================
# Key-and-metric tables
# =====================================================================

def _source(rows):
    """(name, rows) for _key_table: a record file's path is streamed once
    and named when it repeats a key; other rows have no name."""
    if isinstance(rows, (str, os.PathLike)):
        return rows, iter_records(rows)
    return None, rows


def _key_table(sources, metrics):
    """The rows of (name, rows) sources reduced to what the aggregates read.

    Returns {(sweep_index, sweep_value, algorithm): (trials, samples)} in
    the order the groups first appear, where trials holds the trial
    indices of the group's non-failed rows in ascending order and samples
    maps each metric to its float64 values at those trials. A group with
    no such row is left out. A repeated (sweep_index, sweep_value,
    algorithm, trial_index) key raises ValueError naming the key and the
    source of each occurrence; of several, the first in the canonical row
    order is named.
    """
    get = attrgetter("sweep_index", "sweep_value", "algorithm",
                     "trial_index", "failed", *metrics)
    names, columns_of = [], {}
    for number, (name, rows) in enumerate(sources):
        names.append(name)
        for row in rows:
            values = get(row)
            key = values[:3]
            columns = columns_of.get(key)
            if columns is None:
                # trial index, failed flag (a list: it may be a numpy
                # bool), the metrics row after row, the source number
                columns = columns_of[key] = (array("q"), [], array("d"),
                                             array("I"))
            trials, failed, samples, numbers = columns
            trials.append(values[3])
            failed.append(values[4])
            samples.extend(values[5:])
            numbers.append(number)

    table, repeats = {}, []
    for key, (trials, failed, samples, numbers) in columns_of.items():
        trials = np.frombuffer(trials, dtype=np.int64)
        order = np.argsort(trials, kind="stable")
        ordered = trials[order]
        same = np.flatnonzero(ordered[1:] == ordered[:-1])
        if same.size:
            trial = ordered[same[0]]
            where = [names[numbers[i]] for i in np.flatnonzero(trials == trial)]
            repeats.append(((key[0], key[2], trial), key, where))
        kept = order[~np.array(failed, dtype=bool)[order]]
        if kept.size:
            samples = np.frombuffer(samples, dtype=np.float64).reshape(
                trials.size, len(metrics))
            table[key] = (trials[kept], {metric: samples[kept, i]
                                         for i, metric in enumerate(metrics)})
    if repeats:
        (_, _, trial), (sweep_index, sweep_value, algorithm), where = min(
            repeats, key=itemgetter(0))
        files = " and ".join(str(name) for name in where if name is not None)
        raise ValueError(
            f"duplicate row key (sweep_index={sweep_index}, sweep_value="
            f"{sweep_value!r}, algorithm={algorithm}, trial_index={trial})"
            + (f" in {files}" if files else ""))
    return table


def _paired(group_a, group_b, metric):
    """One metric's samples of two groups at the trials both hold, in trial
    order."""
    _, i, j = np.intersect1d(group_a[0], group_b[0], assume_unique=True,
                             return_indices=True)
    return group_a[1][metric][i], group_b[1][metric][j]


# =====================================================================
# CSV export
# =====================================================================

def write_csv(rows, path) -> None:
    """Human-readable tabular export, same field order and cells as the
    record file."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join(RECORD_FIELDS) + "\n")
        for row in rows:
            fh.write(_CSV_TEMPLATE % _cells(row) + "\n")


# =====================================================================
# Plot-ready tidy tables
# =====================================================================

def write_plot_data(rows, path, metrics=PLOT_METRICS,
                    confidence: float = 0.95) -> None:
    """Tidy table (x, series, y, ci_low, ci_high), one series per
    algorithm.metric pair; x is the sweep value (sweep index when the run
    had no sweep). Failed trials are excluded from the aggregates, and the
    rows may come in any order."""
    table = _key_table([(None, rows)], metrics)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("x,series,y,ci_low,ci_high\n")
        for (sweep_index, sweep_value, algorithm), (_, samples_of) in sorted(
                table.items(), key=lambda item: (item[0][0], item[0][2])):
            x = float(sweep_index) if sweep_value is None else sweep_value
            for metric in metrics:
                samples = samples_of[metric]
                if samples.size >= 2 and np.all(np.isfinite(samples)):
                    y, lo, hi = mean_ci(samples, confidence)
                else:
                    y = float(np.mean(samples))
                    lo = hi = y
                fh.write(f"{x!r},{algorithm}.{metric},{y!r},{lo!r},{hi!r}\n")


# =====================================================================
# Stats reports
# =====================================================================

STATS_METRICS = ("objective", "sum_rate")


def _fmt_test(result: StatTestResult) -> str:
    bits = [f"kind={result.kind}", f"statistic={float(result.statistic)!r}",
            f"df={float(result.df)!r}"]
    if result.df2 is not None:
        bits.append(f"df2={float(result.df2)!r}")
    bits += [f"p={result.p_display()}",
             f"effect_size={float(result.effect_size)!r}",
             f"ci_low={float(result.ci_low)!r}",
             f"ci_high={float(result.ci_high)!r}",
             f"confidence={float(result.confidence)!r}"]
    return " ".join(bits)


def write_stats_report(rows, path, baseline_rows=None,
                       metrics=STATS_METRICS) -> int:
    """Comparison battery over a result set, one finding per line; returns
    the number of findings.

    rows and baseline_rows are TrialResult rows in any order, or the path
    of a record file, which is read once and named if it repeats a key.
    Rows are grouped by sweep point, the pair (sweep_index, sweep_value).
    Single-set mode reports, per sweep point and metric:
    per-algorithm means with 95% and 99% intervals, a one-way ANOVA across
    algorithms, and all pairwise paired t-tests (shared channels per trial
    justify pairing) with Cohen's d and Bonferroni-adjusted p-values.

    With baseline_rows, each algorithm is instead compared against its own
    baseline samples at the same sweep point, trial by trial; identical
    inputs give p = 1 exactly.
    """
    table = _key_table([_source(rows)], metrics)
    base = (None if baseline_rows is None
            else _key_table([_source(baseline_rows)], metrics))
    lines = [f"schema_version={SCHEMA_VERSION} report=stats "
             f"correction=bonferroni_pairwise"]
    # an algorithm whose rows all failed at a point has no group there, so
    # it adds no line in either mode
    points = {}
    for (sweep_index, sweep_value, algorithm), group in table.items():
        points.setdefault((sweep_index, sweep_value), {})[algorithm] = group
    for point in sorted(points):
        sweep_index, sweep_value = point
        at_point = points[point]
        algorithms = sorted(at_point)
        sv = "none" if sweep_value is None else repr(sweep_value)
        prefix = f"sweep_index={sweep_index} sweep_value={sv}"

        if base is not None:
            for metric in metrics:
                for algorithm in algorithms:
                    other = base.get(point + (algorithm,))
                    if other is None:
                        continue
                    a, b = _paired(at_point[algorithm], other, metric)
                    if a.size < 2:
                        continue
                    test = paired_t_test(a, b)
                    lines.append(f"{prefix} comparison=vs_baseline "
                                 f"metric={metric} algorithm={algorithm} "
                                 f"n={a.size} {_fmt_test(test)}")
            continue

        for metric in metrics:
            samples = {alg: at_point[alg][1][metric] for alg in algorithms}
            for alg in algorithms:
                vals = samples[alg]
                if vals.size < 2:
                    continue
                m95 = mean_ci(vals, 0.95)
                m99 = mean_ci(vals, 0.99)
                lines.append(
                    f"{prefix} summary=mean metric={metric} algorithm={alg} "
                    f"n={vals.size} mean={m95[0]!r} "
                    f"ci95_low={m95[1]!r} ci95_high={m95[2]!r} "
                    f"ci99_low={m99[1]!r} ci99_high={m99[2]!r}")

            groups = [samples[alg] for alg in algorithms
                      if samples[alg].size >= 2]
            if len(groups) >= 2:
                test = one_way_anova(groups)
                lines.append(f"{prefix} comparison=across_algorithms "
                             f"metric={metric} {_fmt_test(test)}")

            pair_tests = []
            for alg_a, alg_b in combinations(algorithms, 2):
                a, b = _paired(at_point[alg_a], at_point[alg_b], metric)
                if a.size < 2:
                    continue
                pair_tests.append((alg_a, alg_b, a.size, paired_t_test(a, b),
                                   cohens_d(a, b)))
            if pair_tests:
                adjusted = bonferroni([t.p_value for _, _, _, t, _
                                       in pair_tests], len(pair_tests))
                for (alg_a, alg_b, n, test, d), p_adj in zip(pair_tests,
                                                             adjusted):
                    p_adj_text = ("<1e-300" if test.p_value == 0.0
                                  else repr(float(p_adj)))
                    lines.append(f"{prefix} comparison=pairwise "
                                 f"metric={metric} a={alg_a} b={alg_b} n={n} "
                                 f"{_fmt_test(test)} cohens_d={d!r} "
                                 f"p_adjusted={p_adj_text}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
    return len(lines) - 1
