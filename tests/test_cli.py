from dataclasses import replace

import pytest

from holo_isac import cli, experiments, records
from holo_isac.cli import main
from holo_isac.experiments import TrialResult
from holo_isac.records import read_records, write_records

TINY_CFG = """
geometry.mx = 4
geometry.my = 4
population.num_users = 4
population.num_targets = 2
population.num_groups = 2
optimizer.max_iters = 2
optimizer.inner_steps = 4
experiment.trials = 2
experiment.algorithms = fp, conv_noma
"""


@pytest.fixture
def tiny_cfg_path(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CFG)
    return str(path)


# =====================================================================
# validate
# =====================================================================

def test_validate_preset(capsys):
    assert main(["validate", "--preset", "paper_full"]) == 0
    out = capsys.readouterr().out
    assert "config: OK" in out
    assert "antennas = 1024 (32x32)" in out
    assert "wavelength = 0.003 m" in out
    assert "rayleigh_distance = 0.384 m" in out
    assert "p_max = 50 dBm = 100 W" in out


def test_validate_config_file(tiny_cfg_path, capsys):
    assert main(["validate", "--config", tiny_cfg_path]) == 0
    out = capsys.readouterr().out
    assert "antennas = 16 (4x4)" in out
    assert "users = 4, targets = 2, groups = 2" in out


def test_validate_rejects_broken_config(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("geometry.mx = 0\n")
    assert main(["validate", "--config", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


# =====================================================================
# run
# =====================================================================

def test_run_writes_outputs(tiny_cfg_path, tmp_path, capsys):
    out_dir = tmp_path / "results"
    code = main(["run", "--config", tiny_cfg_path, "--out", str(out_dir),
                 "--seed", "3"])
    assert code == 0
    rows = read_records(out_dir / "results.records")
    assert len(rows) == 4  # 2 algorithms x 2 trials
    assert (out_dir / "results.csv").exists()
    assert (out_dir / "plot_data.csv").exists()
    text = capsys.readouterr().out
    assert "wrote 4 rows" in text
    assert "failures=0" in text


def test_run_flag_overrides(tiny_cfg_path, tmp_path):
    out_dir = tmp_path / "r2"
    code = main(["run", "--config", tiny_cfg_path, "--out", str(out_dir),
                 "--trials", "3", "--algorithms", "fp"])
    assert code == 0
    rows = read_records(out_dir / "results.records")
    assert len(rows) == 3
    assert {r.algorithm for r in rows} == {"fp"}


def test_run_seed_reproducibility(tiny_cfg_path, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["run", "--config", tiny_cfg_path, "--out", str(out),
                     "--seed", "17", "--algorithms", "fp"]) == 0
    assert (out_a / "results.records").read_text() == \
        (out_b / "results.records").read_text()


def test_run_rejects_unknown_algorithm(tiny_cfg_path, tmp_path, capsys):
    code = main(["run", "--config", tiny_cfg_path,
                 "--out", str(tmp_path / "x"), "--algorithms", "sgd"])
    assert code == 1
    assert "unknown algorithm" in capsys.readouterr().err


def test_run_rejects_duplicate_algorithms(tiny_cfg_path, tmp_path, capsys):
    code = main(["run", "--config", tiny_cfg_path,
                 "--out", str(tmp_path / "x"), "--algorithms", "fp,fp"])
    assert code == 1
    assert "more than once" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["run"],
    ["sweep", "--axis", "csi_eps", "--grid", "0.0,0.1"],
])
def test_run_and_sweep_fail_when_every_row_failed(tiny_cfg_path, tmp_path,
                                                  monkeypatch, capsys, command):
    def broken_solver(*args, **kwargs):
        raise RuntimeError("solver diverged")

    monkeypatch.setattr(experiments, "solve_instance", broken_solver)
    out_dir = tmp_path / "failed"
    code = main(command + ["--config", tiny_cfg_path, "--out", str(out_dir)])
    assert code == 1
    rows = read_records(out_dir / "results.records")
    assert rows and all(r.failed for r in rows)
    captured = capsys.readouterr()
    assert "failures=" in captured.out
    assert "every one of the" in captured.err


def test_run_missing_config_fails(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "ghost.cfg"),
                 "--out", str(tmp_path / "x")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_config_and_preset_are_exclusive(tiny_cfg_path, capsys):
    code = main(["validate", "--config", tiny_cfg_path,
                 "--preset", "desk_small"])
    assert code == 1
    assert "mutually exclusive" in capsys.readouterr().err


# =====================================================================
# threads resolution
# =====================================================================

def test_threads_flag_beats_env(tiny_cfg_path, tmp_path, monkeypatch, capsys):
    # --threads alone sets the count; the environment plays no part
    monkeypatch.setenv("HOLO_ISAC_THREADS", "many")
    run = ["run", "--config", tiny_cfg_path, "--algorithms", "fp"]
    assert main(run + ["--out", str(tmp_path / "a")]) == 0
    assert "threads=1" in capsys.readouterr().out
    assert main(run + ["--out", str(tmp_path / "b"), "--threads", "2"]) == 0
    assert "threads=2" in capsys.readouterr().out
    assert main(run + ["--out", str(tmp_path / "c"), "--threads", "0"]) == 1
    assert "threads must be at least 1" in capsys.readouterr().err


# =====================================================================
# sweep and stats
# =====================================================================

def test_sweep_then_stats(tiny_cfg_path, tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    code = main(["sweep", "--config", tiny_cfg_path, "--out", str(out_dir),
                 "--axis", "csi_eps", "--grid", "0.0,0.2"])
    assert code == 0
    rows = read_records(out_dir / "results.records")
    assert len(rows) == 8  # 2 sweep points x 2 algorithms x 2 trials
    assert {r.sweep_value for r in rows} == {0.0, 0.2}

    rec = str(out_dir / "results.records")
    assert main(["stats", rec]) == 0
    report = out_dir / "stats_report.txt"
    assert report.exists()
    text = report.read_text()
    assert "correction=bonferroni_pairwise" in text
    assert "sweep_value=0.2" in text
    capsys.readouterr()


def test_stats_baseline_and_custom_out(tiny_cfg_path, tmp_path, capsys):
    out_dir = tmp_path / "base"
    main(["run", "--config", tiny_cfg_path, "--out", str(out_dir),
          "--algorithms", "fp", "--trials", "4"])
    rec = str(out_dir / "results.records")
    report = str(tmp_path / "vs_self.txt")
    code = main(["stats", rec, "--baseline", rec, "--out", report,
                 "--metrics", "sum_rate"])
    assert code == 0
    text = open(report).read()
    assert "comparison=vs_baseline" in text
    assert "metric=sum_rate" in text
    assert "p=1.0" in text
    capsys.readouterr()


def stats_rows(trials=4):
    return [TrialResult(
        sweep_index=0, sweep_value=0.5, algorithm=algorithm, trial_index=trial,
        channel_hash=f"{trial:016x}", failed=False, converged=True,
        monotone=True, iterations_used=3, objective=10.0 + trial + 0.25 * j,
        sum_rate=20.0 + 0.5 * trial - j, sinr_db=(1.0,), detection_prob=0.5,
        crlb=1e-6, energy_efficiency=0.2, fairness=0.9)
        for j, algorithm in enumerate(("conv_noma", "fp"))
        for trial in range(trials)]


def test_stats_streams_each_file_and_counts_its_findings(tmp_path, capsys,
                                                         monkeypatch):
    def no_list_reader(*args, **kwargs):
        raise AssertionError("stats built a full row list")

    for module in (records, cli):
        for name in ("read_records", "merge_records"):
            monkeypatch.setattr(module, name, no_list_reader, raising=False)
    rec = tmp_path / "results.records"
    write_records(stats_rows(), rec)
    for extra, name in (([], "across.txt"),
                        (["--baseline", str(rec)], "baseline.txt")):
        report = tmp_path / name
        assert main(["stats", str(rec), "--out", str(report), *extra]) == 0
        findings = len(report.read_text().splitlines()) - 1
        assert findings > 0
        assert capsys.readouterr().out == \
            f"wrote {findings} findings to {report}\n"


@pytest.mark.parametrize("repeat_in", ["results", "baseline"])
def test_stats_refuses_a_repeated_key(tmp_path, capsys, repeat_in):
    rows = stats_rows()
    good, bad = tmp_path / "good.records", tmp_path / "bad.records"
    write_records(rows, good)
    # fp trial 2 again, with another objective
    write_records(rows + [replace(rows[6], objective=-1.0)], bad)
    args = (["stats", str(bad), "--baseline", str(good)]
            if repeat_in == "results"
            else ["stats", str(good), "--baseline", str(bad)])
    report = tmp_path / "report.txt"
    assert main([*args, "--out", str(report)]) == 1
    err = capsys.readouterr().err
    assert "duplicate row key (sweep_index=0, sweep_value=0.5, " \
        "algorithm=fp, trial_index=2)" in err
    assert err.count(str(bad)) == 2 and str(good) not in err
    assert not report.exists()


@pytest.mark.parametrize("bad_in", ["results", "baseline"])
@pytest.mark.parametrize("token, bad", [
    ("objective=10.0", "objective=1e1"),
    ("failed=false", "failed=no"),
    ("crlb=1e-06", "crlb=1e-06 extra=1"),
])
def test_stats_refuses_a_malformed_line(tmp_path, capsys, bad_in, token,
                                        bad):
    rows = stats_rows()
    good, broken = tmp_path / "good.records", tmp_path / "broken.records"
    write_records(rows, good)
    write_records(rows, broken)
    lines = broken.read_text().splitlines()
    assert token in lines[0]
    lines[0] = lines[0].replace(token, bad)
    broken.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as err:
        read_records(broken)
    assert f"{broken}, line 1: " in str(err.value)
    args = (["stats", str(broken), "--baseline", str(good)]
            if bad_in == "results"
            else ["stats", str(good), "--baseline", str(broken)])
    report = tmp_path / "report.txt"
    assert main([*args, "--out", str(report)]) == 1
    assert capsys.readouterr().err == f"error: {err.value}\n"
    assert not report.exists()


def test_stats_skips_the_tests_of_a_non_finite_metric(tmp_path, capsys):
    # crlb is inf on every fp row, as on a failed sensing solve
    rows = [replace(row, crlb=float("inf")) if row.algorithm == "fp" else row
            for row in stats_rows()]
    rec = tmp_path / "results.records"
    write_records(rows, rec)
    for extra in ([], ["--baseline", str(rec)]):
        reports = {}
        for metrics in ("objective,sum_rate,iterations_used,crlb,fairness",
                        "objective,sum_rate,iterations_used,fairness"):
            reports[metrics] = tmp_path / f"{len(metrics)}.txt"
            assert main(["stats", str(rec), *extra, "--metrics", metrics,
                         "--out", str(reports[metrics])]) == 0
        with_crlb, without = (path.read_text().splitlines()
                              for path in reports.values())
        crlb = [line for line in with_crlb if "metric=crlb" in line]
        assert [line for line in with_crlb if line not in crlb] == without
        skipped = [line for line in crlb
                   if line.endswith(" skipped=non_finite_samples")]
        if extra:
            assert len(crlb) == 2 and len(skipped) == 1
            assert "algorithm=fp n=4 skipped" in skipped[0]
        else:
            assert len(crlb) == 4 and len(skipped) == 2
            assert "metric=crlb algorithm=fp n=4 mean=inf ci95_low=inf " \
                "ci95_high=inf ci99_low=inf ci99_high=inf" in crlb[1]
    capsys.readouterr()


def test_stats_rejects_unknown_metric(tiny_cfg_path, tmp_path, capsys):
    out_dir = tmp_path / "m"
    main(["run", "--config", tiny_cfg_path, "--out", str(out_dir),
          "--algorithms", "fp"])
    code = main(["stats", str(out_dir / "results.records"),
                 "--metrics", "latency"])
    assert code == 1
    assert "unknown metric" in capsys.readouterr().err


def test_stats_rejects_an_empty_metric_list(tiny_cfg_path, tmp_path, capsys):
    out_dir = tmp_path / "m"
    main(["run", "--config", tiny_cfg_path, "--out", str(out_dir),
          "--algorithms", "fp"])
    report = tmp_path / "empty.txt"
    code = main(["stats", str(out_dir / "results.records"),
                 "--metrics", ",", "--out", str(report)])
    assert code == 1
    assert "--metrics list is empty" in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("axis, grid", [
    ("impairment", "nan,-30"),
    ("impairment", "inf,-30"),
    ("antennas", "4.5"),
    ("antennas", "4,0"),
])
def test_sweep_rejects_a_bad_grid_before_any_trial(tiny_cfg_path, tmp_path,
                                                   monkeypatch, capsys,
                                                   axis, grid):
    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(experiments, "_run_task", no_trial)
    out_dir = tmp_path / "swept"
    code = main(["sweep", "--config", tiny_cfg_path, "--out", str(out_dir),
                 "--axis", axis, "--grid", grid])
    assert code == 1
    assert f"sweep {axis} = " in capsys.readouterr().err
    assert not out_dir.exists()


# =====================================================================
# argparse plumbing
# =====================================================================

def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_sweep_requires_axis(tiny_cfg_path):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", tiny_cfg_path, "--grid", "0.1"])
    assert exc.value.code == 2
