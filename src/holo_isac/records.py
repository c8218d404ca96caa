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
from itertools import combinations, islice
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


def _parsed_lines(path, parse):
    """parse(line) of each non-empty line of a record file, in file order.

    The one loop over the lines of a record file, for rows and for the
    column read alike: a ValueError that parse raises is raised again
    with the path and the line number in front."""
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                value = parse(line)
            except ValueError as exc:
                raise ValueError(f"{path}, line {lineno}: {exc}") from None
            yield value


def iter_records(path):
    """Stream the TrialResult rows of a record file (bit-exact floats).

    The rows of one file share their repeated algorithm names, channel
    hashes and sweep values (see parse_record), so the rows of one trial
    hold one channel_hash string."""
    shared = {}
    return _parsed_lines(path, lambda line: parse_record(line, shared))


def read_records(path):
    """Parse a record file back into a list of TrialResult rows."""
    return list(iter_records(path))


def merge_records(paths):
    """Concatenate shard files and restore the canonical row order.

    Raises ValueError, naming the key and the file of each occurrence, when
    a (sweep_index, sweep_value, algorithm, trial_index) key repeats."""
    shards = [(path, read_records(path)) for path in paths]
    _key_table([(path, _row_chunks(shard, ())) for path, shard in shards],
               ())
    rows = [row for _, shard in shards for row in shard]
    rows.sort(key=attrgetter("sweep_index", "algorithm", "trial_index"))
    return rows


# =====================================================================
# Key-and-metric tables
# =====================================================================

# rows or lines converted at once into the columns of a key table; 4096
# is no faster and holds about 4 MB more at a time
_CHUNK_LINES = 1024

_KEY_FIELDS = ("sweep_index", "sweep_value", "algorithm", "trial_index",
               "failed")


def _row_chunks(rows, metrics):
    """The key and metric columns of rows, a chunk of rows at a time: per
    chunk (keys, trial indices, failed flags, one column per metric)."""
    get = attrgetter(*_KEY_FIELDS, *metrics)
    rows = iter(rows)
    while chunk := list(map(get, islice(rows, _CHUNK_LINES))):
        sweep_index, sweep_value, algorithm, trials, failed, *columns = \
            zip(*chunk)
        # a failed flag may be a numpy bool
        yield (zip(sweep_index, sweep_value, algorithm), trials,
               map(bool, failed), columns)


def _column_chunks(path, metrics):
    """The key and metric columns of a record file, as _row_chunks gives
    them, without building a row.

    Each line is checked by the full record regex; of its groups only the
    key, the failed flag and the metrics are taken, and a chunk of lines
    is converted column by column. A key is converted once per distinct
    token triple, so 0.0 and -0.0 give two floats, as parse_record does;
    iterations_used is read as an int."""
    groups = [RECORD_FIELDS.index(field)
              for field in (*_KEY_FIELDS, *metrics)]

    def fields(line):
        match = _RECORD_RE.fullmatch(line)
        if match is None:
            _reject(line)
        return match.group(*groups)

    lines = _parsed_lines(path, fields)
    key_of = {}
    while chunk := list(islice(lines, _CHUNK_LINES)):
        sweep_index, sweep_value, algorithm, trials, failed, *columns = \
            zip(*chunk)
        keys = []
        for tokens in zip(sweep_index, sweep_value, algorithm):
            key = key_of.get(tokens)
            if key is None:
                index, value, name = tokens
                key = key_of[tokens] = (
                    int(index), None if value == "none" else float(value),
                    name)
            keys.append(key)
        yield (keys, map(int, trials), map("true".__eq__, failed),
               [map(int if metric == "iterations_used" else float, column)
                for metric, column in zip(metrics, columns)])


def _source(rows, metrics):
    """(name, chunks) for _key_table: a record file's path is read once by
    columns and named when it repeats a key; other rows have no name."""
    if isinstance(rows, (str, os.PathLike)):
        return rows, _column_chunks(rows, metrics)
    return None, _row_chunks(rows, metrics)


def _key_table(sources, metrics):
    """The rows of (name, chunks) sources reduced to what the aggregates
    read; chunks are those of _row_chunks or _column_chunks.

    Returns {(sweep_index, sweep_value, algorithm): (trials, samples)} in
    the order the groups first appear, where trials holds the trial
    indices of the group's non-failed rows in ascending order and samples
    maps each metric to its float64 values at those trials. A group with
    no such row is left out. A repeated (sweep_index, sweep_value,
    algorithm, trial_index) key raises ValueError naming the key and the
    source of each occurrence; of several, the first in the canonical row
    order is named.
    """
    names, ends, code_of = [], [], {}
    # per row: its group's number (in order of first appearance), trial
    # index, failed flag and metrics
    group, trial, failed = array("I"), array("q"), array("b")
    samples = [array("d") for _ in metrics]
    for name, chunks in sources:
        names.append(name)
        for keys, trials, flags, columns in chunks:
            group.extend([code_of.setdefault(key, len(code_of))
                          for key in keys])
            trial.extend(trials)
            failed.extend(flags)
            for column, values in zip(columns, samples):
                values.extend(column)
        ends.append(len(group))

    group = np.frombuffer(group, dtype=np.uint32)
    trial = np.frombuffer(trial, dtype=np.int64)
    keys = list(code_of)
    order = np.lexsort((trial, group))
    ordered_group, ordered_trial = group[order], trial[order]
    same = np.flatnonzero((ordered_group[1:] == ordered_group[:-1])
                          & (ordered_trial[1:] == ordered_trial[:-1]))
    if same.size:
        # the first repeated trial of each group that repeats one
        _, first = np.unique(ordered_group[same], return_index=True)
        repeats = []
        for code, repeated in zip(ordered_group[same[first]],
                                  ordered_trial[same[first]]):
            rows = np.flatnonzero((group == code) & (trial == repeated))
            where = [names[i] for i in np.searchsorted(ends, rows,
                                                       side="right")]
            key = keys[code]
            repeats.append(((key[0], key[2], repeated), key, where))
        (_, _, repeated), (sweep_index, sweep_value, algorithm), where = min(
            repeats, key=itemgetter(0))
        files = " and ".join(str(name) for name in where if name is not None)
        raise ValueError(
            f"duplicate row key (sweep_index={sweep_index}, sweep_value="
            f"{sweep_value!r}, algorithm={algorithm}, trial_index="
            f"{repeated})" + (f" in {files}" if files else ""))

    kept = order[~np.frombuffer(failed, dtype=bool)[order]]
    kept_group = group[kept]
    samples = [np.frombuffer(values, dtype=np.float64) for values in samples]
    table = {}
    for rows in np.split(kept, np.flatnonzero(kept_group[1:]
                                              != kept_group[:-1]) + 1):
        if rows.size:
            table[keys[group[rows[0]]]] = (
                trial[rows], {metric: values[rows]
                              for metric, values in zip(metrics, samples)})
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
    table = _key_table([(None, _row_chunks(rows, metrics))], metrics)
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


# what a comparison line holds in place of its test when a sample is NaN or
# infinite, where the t and F statistics are undefined
_SKIPPED = "skipped=non_finite_samples"


def _finite(*samples) -> bool:
    return all(np.isfinite(x).all() for x in samples)


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

    A test whose samples hold a NaN or an infinity is not run: its line
    ends in skipped=non_finite_samples, and the Bonferroni correction
    counts the pairwise tests that were run. A summary over such samples
    gives the plain mean, which is also each of its interval bounds, as
    the plot table does.
    """
    table = _key_table([_source(rows, metrics)], metrics)
    base = (None if baseline_rows is None
            else _key_table([_source(baseline_rows, metrics)], metrics))
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
                    outcome = (_fmt_test(paired_t_test(a, b))
                               if _finite(a, b) else _SKIPPED)
                    lines.append(f"{prefix} comparison=vs_baseline "
                                 f"metric={metric} algorithm={algorithm} "
                                 f"n={a.size} {outcome}")
            continue

        for metric in metrics:
            samples = {alg: at_point[alg][1][metric] for alg in algorithms}
            for alg in algorithms:
                vals = samples[alg]
                if vals.size < 2:
                    continue
                if _finite(vals):
                    m95 = mean_ci(vals, 0.95)
                    m99 = mean_ci(vals, 0.99)
                else:
                    # the plain mean, as in the plot table
                    m95 = m99 = (float(np.mean(vals)),) * 3
                lines.append(
                    f"{prefix} summary=mean metric={metric} algorithm={alg} "
                    f"n={vals.size} mean={m95[0]!r} "
                    f"ci95_low={m95[1]!r} ci95_high={m95[2]!r} "
                    f"ci99_low={m99[1]!r} ci99_high={m99[2]!r}")

            groups = [samples[alg] for alg in algorithms
                      if samples[alg].size >= 2]
            if len(groups) >= 2:
                outcome = (_fmt_test(one_way_anova(groups))
                           if _finite(*groups) else _SKIPPED)
                lines.append(f"{prefix} comparison=across_algorithms "
                             f"metric={metric} {outcome}")

            # (a, b, n, test, d) per pair; test is None for a skipped one
            pair_tests = []
            for alg_a, alg_b in combinations(algorithms, 2):
                a, b = _paired(at_point[alg_a], at_point[alg_b], metric)
                if a.size < 2:
                    continue
                pair_tests.append(
                    (alg_a, alg_b, a.size, paired_t_test(a, b),
                     cohens_d(a, b)) if _finite(a, b)
                    else (alg_a, alg_b, a.size, None, None))
            run = [t.p_value for _, _, _, t, _ in pair_tests if t is not None]
            # the correction counts the tests run
            adjusted = iter(bonferroni(run, len(run)) if run else ())
            for alg_a, alg_b, n, test, d in pair_tests:
                if test is None:
                    outcome = _SKIPPED
                else:
                    p_adj = next(adjusted)
                    p_adj_text = ("<1e-300" if test.p_value == 0.0
                                  else repr(float(p_adj)))
                    outcome = (f"{_fmt_test(test)} cohens_d={d!r} "
                               f"p_adjusted={p_adj_text}")
                lines.append(f"{prefix} comparison=pairwise "
                             f"metric={metric} a={alg_a} b={alg_b} n={n} "
                             f"{outcome}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
    return len(lines) - 1
