import math
import re
from dataclasses import replace

import numpy as np
import pytest

from holo_isac import records
from holo_isac.config import ALGORITHM_NAMES
from holo_isac.experiments import TrialResult, _failure_result
from holo_isac.records import (
    PLOT_METRICS,
    RECORD_FIELDS,
    format_record,
    iter_records,
    merge_records,
    parse_record,
    read_records,
    write_csv,
    write_plot_data,
    write_records,
    write_stats_report,
)
from oracles import (csv_cells_by_field, format_record_by_field,
                     parse_record_by_field)


def sample_row(**overrides):
    base = dict(
        sweep_index=0, sweep_value=None, algorithm="fp", trial_index=0,
        channel_hash="0123456789abcdef", failed=False, converged=True,
        monotone=True, iterations_used=7, objective=12.5,
        sum_rate=30.25, sinr_db=(3.5, -1.25), detection_prob=0.875,
        crlb=6.1e-7, energy_efficiency=0.3025, fairness=0.9,
    )
    base.update(overrides)
    return TrialResult(**base)


def make_batch(algorithms=("fp", "conv_noma"), trials=6, shift=0.0, seed=71):
    rng = np.random.default_rng(seed)
    rows = []
    for trial in range(trials):
        draw = rng.standard_normal()
        for j, alg in enumerate(algorithms):
            rows.append(sample_row(
                algorithm=alg, trial_index=trial,
                channel_hash=f"{trial:016x}",
                objective=10.0 + draw + j * 0.5 + shift,
                sum_rate=20.0 + draw + j + shift,
            ))
    return rows


# =====================================================================
# Line format
# =====================================================================

def test_golden_record_line():
    line = format_record(sample_row())
    assert line == (
        "schema_version=1 sweep_index=0 sweep_value=none algorithm=fp "
        "trial_index=0 channel_hash=0123456789abcdef failed=false "
        "converged=true monotone=true iterations_used=7 objective=12.5 "
        "sum_rate=30.25 sinr_db=3.5;-1.25 detection_prob=0.875 crlb=6.1e-07 "
        "energy_efficiency=0.3025 fairness=0.9"
    )
    assert parse_record(line) == sample_row()


def test_parse_rejects_malformed_lines():
    good = format_record(sample_row())
    with pytest.raises(ValueError, match="fields"):
        parse_record(good + " extra=1")
    swapped = good.replace("failed=false converged=true",
                           "converged=true failed=false")
    with pytest.raises(ValueError, match="expected field"):
        parse_record(swapped)
    with pytest.raises(ValueError, match="schema"):
        parse_record(good.replace("schema_version=1", "schema_version=9"))
    with pytest.raises(ValueError, match="boolean"):
        parse_record(good.replace("failed=false", "failed=maybe"))
    # the reader takes only what the writer emits: repr() floats, str() ints
    for bad in ("objective=twelve", "objective=1e5", "objective=+12.5",
                "objective=NaN", "sinr_db=3.5;;-1.25", "iterations_used=07"):
        field = bad.partition("=")[0]
        token = next(tok for tok in good.split()
                     if tok.startswith(field + "="))
        with pytest.raises(ValueError, match=f"bad value .* field {field}"):
            parse_record(good.replace(token, bad))


def test_round_trip_is_bit_exact(tmp_path):
    rows = [
        sample_row(),
        sample_row(trial_index=1, sweep_value=0.1,
                   objective=1.0 / 3.0, sum_rate=np.pi,
                   crlb=float("inf"), sinr_db=()),
        sample_row(trial_index=2, failed=True, objective=0.0,
                   detection_prob=0.0),
    ]
    path = tmp_path / "out.records"
    write_records(rows, path)
    back = read_records(path)
    assert back == rows
    assert back[1].objective == rows[1].objective  # no float drift
    assert back[1].crlb == float("inf")
    assert back[1].sinr_db == ()


# values at which repr() changes form or rounds hardest, and the inputs
# the writer must cast (numpy scalars)
SPECIAL_FLOATS = (math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
                  1e16, np.nextafter(1e16, 0.0), 1e-5, np.nextafter(1e-5, 0.0),
                  1e-4, np.nextafter(1e-4, 0.0), 1e-7, 0.1, 1.0 / 3.0,
                  1.7976931348623157e308, 2.2250738585072014e-308)


def random_float(rng):
    """A special value or a random magnitude, as a float or np.float64."""
    if rng.random() < 0.4:
        value = float(SPECIAL_FLOATS[rng.integers(len(SPECIAL_FLOATS))])
    else:
        value = float(rng.standard_normal() * 10.0 ** rng.integers(-320, 300))
    return np.float64(value) if rng.random() < 0.3 else value


def random_int(rng, high):
    value = int(rng.integers(0, high))
    return np.int64(value) if rng.random() < 0.3 else value


def random_row(rng):
    return TrialResult(
        sweep_index=random_int(rng, 40),
        sweep_value=None if rng.random() < 0.3 else random_float(rng),
        algorithm=ALGORITHM_NAMES[rng.integers(len(ALGORITHM_NAMES))],
        trial_index=random_int(rng, 10**6),
        channel_hash=f"{int(rng.integers(0, 2**63)):016x}",
        failed=bool(rng.random() < 0.2),
        converged=np.bool_(rng.random() < 0.5),
        monotone=bool(rng.random() < 0.8),
        iterations_used=random_int(rng, 200),
        objective=random_float(rng), sum_rate=random_float(rng),
        sinr_db=tuple(random_float(rng)
                      for _ in range((0, 1, 2, 8)[rng.integers(4)])),
        detection_prob=random_float(rng), crlb=random_float(rng),
        energy_efficiency=random_float(rng), fairness=random_float(rng))


def float_bits(row):
    """A row's field values with every float as float.hex, so NaN matches
    NaN and -0.0 differs from 0.0."""
    def bits(value):
        if isinstance(value, tuple):
            return tuple(bits(v) for v in value)
        return value.hex() if isinstance(value, float) else value
    return {key: (bits(value), type(value))
            for key, value in vars(row).items()}


def test_one_pass_codec_matches_the_field_by_field_codec(tmp_path):
    rng = np.random.default_rng(73)
    rows = [random_row(rng) for _ in range(2000)]
    lines = [format_record_by_field(row) for row in rows]
    for row, line in zip(rows, lines):
        assert format_record(row) == line
        assert float_bits(parse_record(line)) == \
            float_bits(parse_record_by_field(line))
    path = tmp_path / "random.records"
    write_records(rows, path)
    assert path.read_text() == "".join(line + "\n" for line in lines)
    csv = tmp_path / "random.csv"
    write_csv(rows, csv)
    assert csv.read_text().splitlines()[1:] == \
        [",".join(csv_cells_by_field(row)) for row in rows]


def test_rows_of_a_file_share_their_repeated_text(tmp_path):
    rows = [sample_row(sweep_index=index, sweep_value=value, algorithm=alg,
                       trial_index=trial, channel_hash=f"{index}{trial:015x}")
            for index, value in enumerate((0.0, -0.0, None))
            for trial in range(3) for alg in ("fp", "hao_sca")]
    rows.append(_failure_result(1, -0.0, "conv_noma", 2, "1000000000000002",
                                2))
    path = tmp_path / "shared.records"
    write_records(rows, path)
    back = read_records(path)
    assert [float_bits(row) for row in back] == [float_bits(row)
                                                 for row in rows]
    assert [format_record(row) for row in back] == [format_record(row)
                                                    for row in rows]
    # the failed row's NaN and inf metrics, bit for bit
    metrics = ("objective", "sum_rate", "detection_prob", "crlb",
               "energy_efficiency", "fairness")
    assert np.array([getattr(back[-1], m) for m in metrics]).view(
        np.uint64).tolist() == np.array([getattr(rows[-1], m) for m in
                                         metrics]).view(np.uint64).tolist()
    assert np.isnan(back[-1].objective) and back[-1].crlb == math.inf
    assert math.copysign(1.0, back[0].sweep_value) == 1.0
    assert math.copysign(1.0, back[6].sweep_value) == -1.0
    by_trial = {}
    for row in back:
        by_trial.setdefault((row.sweep_index, row.trial_index), []).append(row)
    for trial_rows in by_trial.values():
        assert len({id(row.channel_hash) for row in trial_rows}) == 1
    # one object per distinct token: 0.0 and -0.0 stay two floats
    assert len({id(row.sweep_value) for row in back}) == 3
    assert len({id(row.algorithm) for row in back}) == 3
    assert [float_bits(row) for row in iter_records(path)] == \
        [float_bits(row) for row in back]


def test_read_reports_bad_line_number(tmp_path):
    path = tmp_path / "bad.records"
    path.write_text(format_record(sample_row()) + "\nnot a record\n")
    with pytest.raises(ValueError, match="line 2"):
        read_records(path)


def test_merge_restores_canonical_order(tmp_path):
    rows = make_batch(trials=4)
    shard_a = tmp_path / "a.records"
    shard_b = tmp_path / "b.records"
    write_records([rows[3], rows[1]], shard_a)
    write_records([rows[6], rows[0], rows[2]], shard_b)
    merged = merge_records([shard_a, shard_b])
    keys = [r.sort_key() for r in merged]
    assert keys == sorted(keys)
    assert len(merged) == 5


def test_merging_a_file_with_itself_names_the_repeated_key(tmp_path):
    shard = tmp_path / "a.records"
    write_records(make_batch(trials=3), shard)
    with pytest.raises(ValueError) as err:
        merge_records([shard, shard])
    message = str(err.value)
    assert "sweep_index=0, sweep_value=None, algorithm=conv_noma, " \
        "trial_index=0" in message
    assert message.count(str(shard)) == 2


def test_a_shard_that_repeats_two_keys_is_refused(tmp_path):
    rows = make_batch(trials=6)
    full, repeat = tmp_path / "full.records", tmp_path / "repeat.records"
    write_records(rows, full)
    # the same (sweep, algorithm, trial) keys with objective + 100
    write_records([sample_row(algorithm=r.algorithm,
                              trial_index=r.trial_index,
                              objective=r.objective + 100.0)
                   for r in (rows[2], rows[7])], repeat)
    with pytest.raises(ValueError) as err:
        merge_records([full, repeat])
    # the first repeated key in the canonical order is named
    first = min(rows[2], rows[7], key=TrialResult.sort_key)
    message = str(err.value)
    assert f"algorithm={first.algorithm}, trial_index=" \
        f"{first.trial_index}" in message
    assert str(full) in message and str(repeat) in message
    # the same trials at another sweep value are no repeat
    write_records([sample_row(algorithm=r.algorithm, sweep_value=0.5,
                              trial_index=r.trial_index)
                   for r in (rows[2], rows[7])], repeat)
    assert len(merge_records([full, repeat])) == len(rows) + 2


def test_reports_refuse_a_repeated_key_in_rows(tmp_path):
    rows = make_batch(trials=4)
    again = rows + [replace(rows[5], objective=-1.0)]
    path = tmp_path / "out.txt"
    key = "algorithm=conv_noma, trial_index=2)"
    with pytest.raises(ValueError, match=re.escape(key)):
        write_stats_report(again, path)
    with pytest.raises(ValueError, match=re.escape(key)):
        write_stats_report(rows, path, baseline_rows=again)
    with pytest.raises(ValueError, match=re.escape(key)):
        write_plot_data(again, path)
    assert not path.exists()


# =====================================================================
# CSV and plot tables
# =====================================================================

def test_csv_layout(tmp_path):
    rows = make_batch(trials=2)
    path = tmp_path / "out.csv"
    write_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(RECORD_FIELDS)
    assert len(lines) == 1 + len(rows)
    first = lines[1].split(",")
    assert first[0] == "1" and first[3] == "fp"


def test_plot_data_series_and_intervals(tmp_path):
    rows = make_batch(trials=6)
    rows.append(sample_row(algorithm="fp", trial_index=99, failed=True,
                           objective=-1e9))
    path = tmp_path / "plot.csv"
    write_plot_data(rows, path, metrics=("objective",))
    lines = path.read_text().splitlines()
    assert lines[0] == "x,series,y,ci_low,ci_high"
    assert len(lines) == 3  # one line per algorithm
    series = {ln.split(",")[1] for ln in lines[1:]}
    assert series == {"fp.objective", "conv_noma.objective"}
    for ln in lines[1:]:
        x, _, y, lo, hi = ln.split(",")
        assert float(lo) < float(y) < float(hi)
        # the failed row's absurd objective must not leak into the mean
        assert float(y) > 0.0
    assert "np.float64" not in path.read_text()


def test_failed_row_round_trips_and_stays_out_of_aggregates(tmp_path):
    failed = _failure_result(0, None, "fp", 99, "feedfacecafebeef", 2)
    assert failed.crlb == float("inf") and np.isnan(failed.objective)
    rows = make_batch(trials=6) + [failed]
    # NaN never equals itself, so rows holding one compare as record lines
    path = tmp_path / "results.records"
    write_records(rows, path)
    back = read_records(path)
    assert [format_record(r) for r in back] == [format_record(r) for r in rows]
    assert ("objective=nan sum_rate=nan sinr_db=nan;nan detection_prob=nan "
            "crlb=inf energy_efficiency=nan fairness=nan") in format_record(back[-1])
    csv = tmp_path / "results.csv"
    write_csv(rows, csv)
    cells = csv.read_text().splitlines()[-1].split(",")
    assert cells[RECORD_FIELDS.index("failed")] == "true"
    assert cells[RECORD_FIELDS.index("objective")] == "nan"
    assert cells[RECORD_FIELDS.index("crlb")] == "inf"

    plot = tmp_path / "plot.csv"
    write_plot_data(rows, plot)
    stats = tmp_path / "stats.txt"
    write_stats_report(rows, stats)
    # both read exactly as if the failed row were not there
    alone = tmp_path / "alone.csv"
    write_plot_data(rows[:-1], alone)
    assert plot.read_text() == alone.read_text()
    write_stats_report(rows[:-1], alone)
    assert stats.read_text() == alone.read_text()


# =====================================================================
# Stats reports
# =====================================================================

def test_stats_report_single_mode(tmp_path):
    rows = make_batch(trials=10)
    path = tmp_path / "stats.txt"
    write_stats_report(rows, path)
    text = path.read_text()
    head = text.splitlines()[0]
    assert head == ("schema_version=1 report=stats "
                    "correction=bonferroni_pairwise")
    assert "summary=mean" in text and "ci99_low=" in text
    assert "comparison=across_algorithms" in text and "kind=anova" in text
    assert "comparison=pairwise" in text and "p_adjusted=" in text
    assert "np.float64" not in text


def test_stats_report_identical_baseline(tmp_path):
    rows = make_batch(trials=8)
    path = tmp_path / "stats.txt"
    write_stats_report(rows, path, baseline_rows=rows)
    for line in path.read_text().splitlines()[1:]:
        assert "comparison=vs_baseline" in line
        assert "p=1.0" in line


def test_stats_report_p_sentinel(tmp_path):
    # constant positive paired difference: t = inf, p stored as exact zero
    rows = make_batch(trials=5, seed=72)
    base = [sample_row(algorithm=r.algorithm, trial_index=r.trial_index,
                       objective=r.objective - 1.0,
                       sum_rate=r.sum_rate - 1.0) for r in rows]
    path = tmp_path / "stats.txt"
    write_stats_report(rows, path, baseline_rows=base)
    text = path.read_text()
    assert "p=<1e-300" in text


def test_stats_report_keeps_sweep_values_at_one_index_apart(tmp_path):
    # two sweeps whose grids differ at index 0, merged into one file
    low = [replace(r, sweep_value=0.1) for r in make_batch(trials=6)]
    high = [replace(r, sweep_value=0.2, objective=r.objective + 5.0)
            for r in make_batch(trials=6, seed=73)]
    path = tmp_path / "stats.txt"
    write_stats_report(low + high, path)
    means = {}
    for line in path.read_text().splitlines():
        if "summary=mean metric=objective algorithm=fp" in line:
            fields = dict(tok.split("=", 1) for tok in line.split())
            means[fields["sweep_value"]] = (fields["n"], fields["mean"])
    assert set(means) == {"0.1", "0.2"}
    assert means["0.1"][0] == means["0.2"][0] == "6"
    assert means["0.1"] != means["0.2"]
    # and each point meets its own baseline rows
    write_stats_report(low + high, path, baseline_rows=low + high)
    lines = path.read_text().splitlines()[1:]
    assert lines and all("p=1.0" in line and "n=6" in line for line in lines)


def random_metric(rng, scale):
    """A finite draw at scale, or now and then NaN or an infinity."""
    u = rng.random()
    if u < 0.06:
        return math.nan
    if u < 0.1:
        return math.inf if u < 0.08 else -math.inf
    return float(rng.standard_normal() * scale)


def random_result_set(rng):
    """Canonically ordered rows and a baseline on the same keys: a point
    without a sweep, one whose rows hold 0.0 or -0.0, one at a random value;
    failed rows, non-finite metrics and empty sinr_db among them."""
    points = [(0, None), (1, 0.0), (2, float(rng.standard_normal()))]
    points = [points[i] for i in sorted(rng.choice(3, rng.integers(1, 4),
                                                   replace=False))]
    algorithms = sorted(rng.choice(ALGORITHM_NAMES, rng.integers(1, 5),
                                   replace=False))
    trials = sorted(rng.choice(40, rng.integers(1, 8), replace=False))
    # a metric drawn at one scale per set, and now and then held constant
    scales = {metric: 10.0 ** rng.integers(-8, 4) for metric in
              ("objective", "sum_rate", "detection_prob", "crlb",
               "energy_efficiency", "fairness")}
    constant = {metric: rng.random() < 0.1 for metric in scales}

    def row(index, value, algorithm, trial):
        if value == 0.0:
            value = (0.0, -0.0)[rng.integers(2)]
        channel_hash = f"{index}{trial:015x}"
        if rng.random() < 0.15:
            return _failure_result(index, value, algorithm, int(trial),
                                   channel_hash, 2)
        metrics = {metric: scale if constant[metric]
                   else random_metric(rng, scale)
                   for metric, scale in scales.items()}
        return TrialResult(
            sweep_index=index, sweep_value=value, algorithm=str(algorithm),
            trial_index=int(trial), channel_hash=channel_hash,
            failed=bool(rng.random() < 0.1), converged=True, monotone=True,
            iterations_used=int(rng.integers(0, 4)),
            sinr_db=tuple(rng.standard_normal(rng.integers(0, 3))),
            **metrics)

    keys = [(index, value, algorithm, trial) for index, value in points
            for algorithm in algorithms for trial in trials]
    return ([row(*key) for key in keys],
            [row(*key) for key in keys if rng.random() < 0.9])


def test_stats_report_reads_a_file_by_columns_as_it_reads_rows(
        tmp_path, monkeypatch):
    rng = np.random.default_rng(74)
    metrics = PLOT_METRICS + ("iterations_used",)
    rows_path, base_path = tmp_path / "rows.records", tmp_path / "base.records"
    by_rows, by_columns = tmp_path / "by_rows.txt", tmp_path / "by_columns.txt"

    def no_rows(*args, **kwargs):
        raise AssertionError("a record line was parsed into a row")

    for _ in range(300):
        rows, base = random_result_set(rng)
        write_records(rows, rows_path)
        write_records(base, base_path)
        for baseline in (None, base_path):
            write_stats_report(
                read_records(rows_path), by_rows, metrics=metrics,
                baseline_rows=None if baseline is None
                else read_records(baseline))
            with monkeypatch.context() as patch:
                patch.setattr(records, "parse_record", no_rows)
                write_stats_report(rows_path, by_columns, metrics=metrics,
                                   baseline_rows=baseline)
            assert by_columns.read_bytes() == by_rows.read_bytes()


def test_outputs_do_not_depend_on_how_the_rows_arrive(tmp_path):
    def at_points(shift, seed):
        batch = make_batch(algorithms=("fp", "conv_noma", "hao_sca"),
                           trials=9, shift=shift, seed=seed)
        return [replace(row, sweep_index=index, sweep_value=value,
                        objective=row.objective + index)
                for index, value in enumerate((0.1, 0.2)) for row in batch]

    rows = at_points(0.0, 81)
    rows.append(_failure_result(1, 0.2, "fp", 9, "feedfacecafebeef", 2))
    base = at_points(-0.3, 82)
    files = {}
    for name, kept in (("rows", rows), ("base", base)):
        for parity in (0, 1):
            files[name, parity] = tmp_path / f"{name}-{parity}.records"
            write_records([r for r in kept if r.trial_index % 2 == parity],
                          files[name, parity])
    arrivals = {
        "list": lambda name, kept: kept,
        "generator": lambda name, kept: (row for row in kept),
        "unsorted shards": lambda name, kept: (read_records(files[name, 1])
                                               + read_records(files[name, 0])),
        "merged shards": lambda name, kept: merge_records(
            [files[name, 0], files[name, 1]]),
    }
    outputs = {}
    for arrival, given in arrivals.items():
        out = tmp_path / arrival
        out.mkdir()
        write_stats_report(given("rows", rows), out / "stats_report.txt")
        write_stats_report(given("rows", rows), out / "stats_baseline.txt",
                           baseline_rows=given("base", base))
        write_plot_data(given("rows", rows), out / "plot_data.csv")
        outputs[arrival] = {path.name: path.read_bytes()
                            for path in sorted(out.iterdir())}
    assert len(outputs["list"]) == 3
    for arrival in arrivals:
        assert outputs[arrival] == outputs["list"], arrival

