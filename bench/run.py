"""Trial-throughput benchmark for holo-isac, with per-layer traced timings.

Usage (from the repository root):

    python3 bench/run.py --workload tiny_impaired_sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Each run builds its inputs from the seed, sets up and warms up (timed as
setup_s), then repeats whole rounds of the workload's command through
holo_isac.cli.main, in this process, until --seconds have been measured.
Every round runs the same inputs. With --trace 1 a further round runs with
spans around every layer and the per-layer metrics are reported instead of
the end-to-end ones. Outputs are checked after the clock stops. The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# BLAS stays on one thread: the only parallelism measured is the program's
# own worker threads. Must be set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("HOLO_ISAC_THREADS", None)

import checks  # noqa: E402
import inputs  # noqa: E402
import tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("tiny_impaired_sweep", "paper_slice", "records_stats")
SETUP_REPS = 3


def load_package():
    """Import holo_isac from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "holo_isac" / "__init__.py").is_file():
        sys.exit(f"bench: no holo_isac package under {src}")
    sys.path.insert(0, str(src))
    import holo_isac
    from holo_isac import cli, experiments, rates, records  # noqa: F401
    if Path(holo_isac.__file__).resolve().parent != src / "holo_isac":
        sys.exit(f"bench: imported holo_isac from {holo_isac.__file__}")
    return holo_isac


def peak_rss_mb() -> float:
    """High-water resident memory of this process plus waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# =====================================================================
# Workloads
# =====================================================================

class SolverBench:
    """run/sweep through the CLI on a generated config file."""

    def __init__(self, pkg, spec, seed, work: Path):
        self.pkg, self.spec, self.seed, self.work = pkg, spec, seed, work
        self.config_path = None
        self.round_outputs = []     # (cli exit code, records digest, path)

    def setup(self, rep: int) -> None:
        cli = self.pkg.cli
        where = self.work / f"setup-{rep}"
        where.mkdir(parents=True)
        self.config_path = where / "scenario.cfg"
        self.config_path.write_text(self.spec.config_text(self.seed))
        warm = self.spec.warm_up()
        warm_path = where / "warm_up.cfg"
        warm_path.write_text(warm.config_text(self.seed))
        with contextlib.redirect_stdout(io.StringIO()):
            codes = (cli.main(["validate", "--config", str(self.config_path)]),
                     cli.main(warm.cli_args(str(warm_path), str(where / "out"))))
        if codes != (0, 0):
            raise RuntimeError(f"set-up command failed with codes {codes}")

    def round(self, index: int) -> float:
        out = self.work / f"round-{index}"
        args = self.spec.cli_args(str(self.config_path), str(out))
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = self.pkg.cli.main(args)
            wall = time.perf_counter() - start
        records = out / "results.records"
        digest = file_digest(records) if records.is_file() else None
        self.round_outputs.append((code, digest, records))
        return wall

    def verify(self, capture):
        """(attempted, failed, errors, rows of the latest round).

        The rows and solutions of the latest round are checked in full;
        every other round must have written the same bytes."""
        per_round = self.spec.rows_per_round
        attempted = per_round * len(self.round_outputs)
        code, digest, path = self.round_outputs[-1]
        if code != 0 or digest is None:
            return attempted, attempted, [f"round exited {code}"], []
        rows = checks.read_record_file(path)
        errors, bad = checks.check_solver_rows(self.spec, rows, capture,
                                               self.pkg.rates.rate_breakdown)
        if any(d != digest for _, d, _ in self.round_outputs):
            errors.append("rounds on identical inputs wrote different records")
            bad = per_round
        return attempted, bad * len(self.round_outputs), errors, rows

    def objective(self, rows) -> float:
        values = [r["objective"] for r in rows if r["algorithm"] == "hao_sca"]
        return sum(values) / len(values)


class RecordsBench:
    """Records writers, reader and merge, then `holo-isac stats` twice."""

    def __init__(self, pkg, spec, seed, work: Path):
        self.pkg, self.spec, self.seed, self.work = pkg, spec, seed, work
        self.round_outputs = []     # (exit codes, digests, round dir)

    def _inputs(self, spec, where: Path):
        trial_result = self.pkg.experiments.TrialResult
        self.rows = inputs.synthetic_rows(spec, self.seed, trial_result)
        self.baseline = inputs.synthetic_rows(spec, self.seed, trial_result,
                                              baseline=True)
        self.shards = ([r for r in self.rows if r.trial_index % 2 == 0],
                       [r for r in self.rows if r.trial_index % 2 == 1])
        self.baseline_path = where / "baseline.records"
        self.pkg.records.write_records(self.baseline, self.baseline_path)

    def setup(self, rep: int) -> None:
        where = self.work / f"setup-{rep}"
        where.mkdir(parents=True)
        self._inputs(self.spec.warm_up(), where)
        self._round(where / "warm-up")
        self._inputs(self.spec, where)

    def _round(self, out: Path):
        rec, cli = self.pkg.records, self.pkg.cli
        out.mkdir()
        shard_paths = [out / "shard-0.records", out / "shard-1.records"]
        results = out / "results.records"
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            for rows, path in zip(self.shards, shard_paths):
                rec.write_records(rows, path)
            merged = rec.merge_records(shard_paths)
            rec.write_records(merged, results)
            rec.write_csv(merged, out / "results.csv")
            rec.write_plot_data(merged, out / "plot_data.csv")
            codes = (
                cli.main(["stats", str(results),
                          "--out", str(out / "stats_across.txt")]),
                cli.main(["stats", str(results), "--baseline",
                          str(self.baseline_path),
                          "--out", str(out / "stats_baseline.txt")]))
            wall = time.perf_counter() - start
        return wall, codes, merged

    def round(self, index: int) -> float:
        out = self.work / f"round-{index}"
        wall, codes, merged = self._round(out)
        names = ("results.records", "stats_across.txt", "stats_baseline.txt")
        digests = tuple(file_digest(out / n) if (out / n).is_file() else None
                        for n in names)
        self.merged = merged
        self.round_outputs.append((codes, digests, out))
        # keep only the latest round's files on disk
        for _, _, older in self.round_outputs[:-1]:
            shutil.rmtree(older, ignore_errors=True)
        return wall

    def verify(self, _capture):
        """(attempted, failed, errors, no rows): the latest round's files
        are checked in full; every other round must have written the same."""
        per_round = self.spec.rows_per_round
        attempted = per_round * len(self.round_outputs)
        codes, digests, out = self.round_outputs[-1]
        if codes != (0, 0) or None in digests:
            return attempted, attempted, [f"round exited {codes}"], []
        bad = checks.count_mismatched_rows(self.rows, self.merged)
        errors = [f"{bad} rows did not read back bit-identical"] if bad else []
        metrics = tuple(self.pkg.records.STATS_METRICS)
        errors += checks.check_stats_report(out / "stats_across.txt",
                                            self.rows, metrics)
        errors += checks.check_stats_report(out / "stats_baseline.txt",
                                            self.rows, metrics,
                                            baseline_rows=self.baseline)
        if any(d != digests for _, d, _ in self.round_outputs):
            errors.append("rounds on identical inputs wrote different files")
            bad = per_round
        return attempted, bad * len(self.round_outputs), errors, []

    def objective(self, _rows) -> float:
        values = [r.objective for r in self.merged if r.algorithm == "hao_sca"]
        return sum(values) / len(values)


# =====================================================================
# One run
# =====================================================================

def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    pkg = load_package()
    import_s = time.perf_counter() - _START

    if name == "records_stats":
        spec, bench_cls = inputs.RECORDS_WORKLOAD, RecordsBench
    else:
        spec, bench_cls = inputs.SOLVER_WORKLOADS[name], SolverBench
    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"{name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    modules = [m for key, m in sys.modules.items()
               if key == "holo_isac" or key.startswith("holo_isac.")]
    hooks = tracer.Hooks(modules)
    capture = tracer.Capture()
    try:
        bench = bench_cls(pkg, spec, seed, work)
        capture.install(hooks, pkg.experiments)
        setup_times = []
        for rep in range(SETUP_REPS):
            start = time.perf_counter()
            bench.setup(rep)
            setup_times.append(time.perf_counter() - start)

        # Objects made during set-up (inputs, captures) stay out of the
        # collector's scans, which would otherwise bill them to the program.
        gc.collect()
        gc.freeze()
        setup_end = time.perf_counter()
        walls = []
        while not walls or sum(walls) < seconds:
            capture.reset()
            walls.append(bench.round(len(walls)))
            if len(walls) == 1:
                # one pass, as one command: later rounds only add the
                # allocator's drift and the previous round's kept rows
                rss = peak_rss_mb()

        if trace:
            spans = tracer.Tracer()
            capture.reset()
            spans.install(hooks, pkg)
            try:
                traced_wall = bench.round(len(walls))
            finally:
                hooks.remove()
            summary = spans.summarize()

        check_start = time.perf_counter()
        attempted, failed, errors, rows = bench.verify(capture)
        print(f"bench: set-up {setup_end - _START:.1f} s, rounds "
              f"{' '.join(f'{w:.2f}' for w in walls)} s, checks "
              f"{time.perf_counter() - check_start:.1f} s", file=sys.stderr)
        if trace:
            layer = tracer.per_layer_metrics(summary, rows, spec.threads,
                                             traced_wall, walls)
            spans.write(OUT_DIR / f"trace-{name}-seed{seed}.json",
                        {"workload": name, "seed": seed,
                         "metrics": {k: v["value"] for k, v in layer.items()}})
    finally:
        hooks.remove()
        shutil.rmtree(work, ignore_errors=True)

    for message in errors[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    timed = sum(walls)
    rounds = len(walls)
    if trace:
        metrics = layer
    else:
        metrics = {
            "setup_s": {"value": import_s + statistics.median(setup_times),
                        "unit": "s"},
            "trials_per_s": {"value": spec.tasks_per_round * rounds / timed,
                             "unit": "tasks/s"},
            "rows_per_s": {"value": spec.rows_per_round * rounds / timed,
                           "unit": "rows/s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
            "hao_sca_objective": {"value": bench.objective(rows),
                                  "unit": "objective"},
        }
    return {"correct": not errors, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in its own process, one after another; a table of the
    results goes to stdout."""
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}")
            code = 1
            continue
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    for metric, entry in result["metrics"].items():
        print(f"{metric} = {entry['value']:.6g} {entry['unit']}",
              file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
