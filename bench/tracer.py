"""Spans and captures around the program's layers, installed from outside.

Nothing in the package is edited: each hook replaces a module (or class)
attribute with a wrapper, in every holo_isac module that holds a reference
to the same function, and puts the original back on removal.

* Capture hooks record what the program computed (trial data, solutions) so
  the checks can recompute it after the clock stops. They take no timings
  and stay installed in untraced rounds too.
* Span hooks (Tracer) record (name, start, end, parent) per call into
  per-thread lists kept in memory; count hooks only count calls. Self time
  of a span is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import threading
from collections import Counter
from time import perf_counter

ALGORITHMS = ("hao_sca", "e_wmmse", "fp", "conv_noma")


class Hooks:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self, package_modules):
        self.modules = package_modules
        self._undo = []

    def replace(self, owner, attr: str, make_wrapper, required=True):
        """Swap owner.attr (and every module-level alias of it) for
        make_wrapper(original). An optional attribute that no longer exists
        is skipped with a note, and its layer then reads 0."""
        original = getattr(owner, attr, None)
        if original is None:
            if required:
                raise AttributeError(f"{owner.__name__}.{attr} not found")
            print(f"bench: no {owner.__name__}.{attr}; layer not traced",
                  file=sys.stderr)
            return
        wrapper = make_wrapper(original)
        targets = [owner] if isinstance(owner, type) else [
            mod for mod in self.modules
            if any(value is original for value in vars(mod).values())]
        for target in targets:
            for name, value in list(vars(target).items()):
                if value is original:
                    setattr(target, name, wrapper)
                    self._undo.append((target, name, original))

    def remove(self):
        while self._undo:
            target, name, original = self._undo.pop()
            setattr(target, name, original)


# =====================================================================
# Output capture for the checks
# =====================================================================

class Capture:
    """Trial data and solver outputs of the latest round, untimed."""

    def __init__(self):
        self.trials = []   # TrialData objects
        self.solves = []   # (algorithm, targets list, solution, trace)

    def reset(self):
        self.trials = []
        self.solves = []

    def install(self, hooks: Hooks, experiments):
        def on_trial(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                data = fn(*args, **kwargs)
                self.trials.append(data)
                return data
            return wrapper

        def on_solve(fn):
            @functools.wraps(fn)
            def wrapper(algorithm, channels, targets, cfg, *args, **kwargs):
                sol, trace = fn(algorithm, channels, targets, cfg,
                                *args, **kwargs)
                self.solves.append((algorithm, targets, sol, trace))
                return sol, trace
            return wrapper

        hooks.replace(experiments, "generate_trial_data", on_trial)
        hooks.replace(experiments, "solve_instance", on_solve)

    def by_row_key(self):
        """(channel_hash, algorithm) -> (trial data, solution, trace)."""
        data_of = {id(d.targets): d for d in self.trials}
        return {(data_of[id(targets)].channel_hash, algorithm):
                (data_of[id(targets)], sol, trace)
                for algorithm, targets, sol, trace in self.solves}


# =====================================================================
# Span tracer
# =====================================================================

# (owner attribute path, span name); owners are resolved against the
# package at install time. solve_instance spans carry the algorithm name.
SPAN_TARGETS = (
    ("cli", "main", "cli.main"),
    ("config", "parse_config", "config.parse_config"),
    ("experiments", "run_experiment", "experiments.run_experiment"),
    ("experiments", "_run_task", "experiments.run_task"),
    ("experiments", "apply_sweep", "experiments.apply_sweep"),
    ("experiments", "generate_trial_data", "experiments.generate_trial_data"),
    ("experiments", "solve_instance", "experiments.solve_instance"),
    ("experiments", "_evaluate_trial", "experiments.evaluate_trial"),
    ("optimizers", "run_hao_sca", "optimizers.run_hao_sca"),
    ("optimizers", "run_e_wmmse", "optimizers.run_e_wmmse"),
    ("optimizers", "run_fp", "optimizers.run_fp"),
    ("optimizers", "init_hao_sca", "optimizers.init_hao_sca"),
    ("optimizers", "_beam_block", "optimizers.beam_block"),
    ("optimizers", "_power_block", "optimizers.power_block"),
    ("optimizers", "_rho_block", "optimizers.rho_block"),
    ("optimizers._EvalContext", "evaluate", "optimizers.evaluate"),
    ("rates", "rate_breakdown", "rates.rate_breakdown"),
    ("objective", "composite_objective", "objective.composite_objective"),
    ("sensing", "evaluate_sensing", "sensing.evaluate_sensing"),
    ("sensing", "sensing_sinr", "sensing.sensing_sinr"),
    ("records", "write_records", "records.write_records"),
    ("records", "write_csv", "records.write_csv"),
    ("records", "write_plot_data", "records.write_plot_data"),
    ("records", "read_records", "records.read_records"),
    ("records", "merge_records", "records.merge_records"),
    ("records", "write_stats_report", "records.write_stats_report"),
    ("stats", "mean_ci", "stats.mean_ci"),
    ("stats", "one_way_anova", "stats.one_way_anova"),
    ("stats", "paired_t_test", "stats.paired_t_test"),
    ("stats", "cohens_d", "stats.cohens_d"),
    ("stats", "bonferroni", "stats.bonferroni"),
)

# Hot inner functions that are counted, not timed.
COUNT_TARGETS = (
    ("stats", "regularized_incomplete_beta",
     "stats.regularized_incomplete_beta"),
)

LAYERS = ("cli", "config", "experiments", "optimizers", "rates", "sensing",
          "objective", "records", "stats")


class _ThreadState(threading.local):
    def __init__(self):
        self.spans = None
        self.stack = []
        self.counts = None


class Tracer:
    """In-memory spans per thread; aggregated once the traced round ends."""

    def __init__(self):
        self._local = _ThreadState()
        self._lock = threading.Lock()
        self.threads = []   # (thread name, spans, counts)
        self.byte_counts = Counter()

    def _state(self):
        st = self._local
        if st.spans is None:
            st.spans, st.counts = [], Counter()
            with self._lock:
                self.threads.append((threading.current_thread().name,
                                     st.spans, st.counts))
        return st

    def _span_wrapper(self, name, fn):
        state = self._state
        label_of_solve = name == "experiments.solve_instance"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = state()
            label = f"{name}.{args[0]}" if label_of_solve else name
            spans, stack = st.spans, st.stack
            rec = [label, perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
        return wrapper

    def _count_wrapper(self, name, fn):
        state = self._state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state().counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _bytes_wrapper(self, fn):
        """write_records: also count the bytes that reached the file."""
        @functools.wraps(fn)
        def wrapper(rows, path, *args, **kwargs):
            out = fn(rows, path, *args, **kwargs)
            with self._lock:
                self.byte_counts["records.write_records.bytes"] += \
                    os.path.getsize(path)
            return out
        return wrapper

    def install(self, hooks: Hooks, package):
        def owner_of(path):
            obj = package
            for part in path.split("."):
                obj = getattr(obj, part)
            return obj

        hooks.replace(owner_of("records"), "write_records", self._bytes_wrapper)
        for owner, attr, name in SPAN_TARGETS:
            hooks.replace(owner_of(owner), attr,
                          functools.partial(self._span_wrapper, name),
                          required=False)
        for owner, attr, name in COUNT_TARGETS:
            hooks.replace(owner_of(owner), attr,
                          functools.partial(self._count_wrapper, name),
                          required=False)

    # -- aggregation ----------------------------------------------------
    def summarize(self):
        """Per span name: calls, inclusive seconds, self seconds; plus
        evaluate calls attributed to the solve they ran under."""
        calls, total, self_s = Counter(), Counter(), Counter()
        counts = Counter(self.byte_counts)
        eval_by_alg = Counter()
        main_self = 0.0
        main_thread = threading.main_thread().name
        for thread_name, spans, thread_counts in self.threads:
            counts.update(thread_counts)
            child = [0.0] * len(spans)
            solve_of = [None] * len(spans)
            for i, (label, start, end, parent) in enumerate(spans):
                if parent >= 0:
                    child[parent] += end - start
                    solve_of[i] = solve_of[parent]
                if label.startswith("experiments.solve_instance."):
                    solve_of[i] = label.rsplit(".", 1)[1]
                elif label == "optimizers.evaluate" and solve_of[i]:
                    eval_by_alg[solve_of[i]] += 1
            for i, (label, start, end, _parent) in enumerate(spans):
                s = end - start - child[i]
                calls[label] += 1
                total[label] += end - start
                self_s[label] += s
                if thread_name == main_thread:
                    main_self += s
        return {"calls": calls, "total": total, "self": self_s,
                "counts": counts, "eval_by_alg": eval_by_alg,
                "main_self": main_self,
                "spans": sum(len(spans) for _, spans, _ in self.threads)}

    def write(self, path, extra):
        """Dump every span and counter as JSON (after the timed section)."""
        doc = {"threads": [
            {"name": name,
             "spans": [[label, round(start, 9), round(end, 9), parent]
                       for label, start, end, parent in spans],
             "counts": dict(counts)}
            for name, spans, counts in self.threads],
            "byte_counts": dict(self.byte_counts), **extra}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def per_layer_metrics(summary, rows, threads, traced_wall, untraced_walls):
    """Every per-layer metric, in the units BENCHMARK.json declares.

    rows are the result rows of the traced round (empty for records_stats);
    untraced_walls are the round times of the same process's untraced
    rounds, the base of trace.overhead_s.
    """
    calls, total, self_s = summary["calls"], summary["total"], summary["self"]
    counts = summary["counts"]
    out = {}

    def put(name, value, unit):
        out[name] = {"value": float(value), "unit": unit}

    for layer in LAYERS:
        put(f"{layer}.self_s",
            sum(v for k, v in self_s.items() if k.split(".", 1)[0] == layer),
            "s")
    put("config.parse_config.self_s", self_s["config.parse_config"], "s")
    put("cli.main.self_s", self_s["cli.main"], "s")
    put("experiments.run_experiment.self_s",
        self_s["experiments.run_experiment"], "s")
    put("experiments.run_task.self_s", self_s["experiments.run_task"], "s")
    put("experiments.generate_trial_data.self_s",
        self_s["experiments.generate_trial_data"], "s")
    put("experiments.generate_trial_data.calls",
        calls["experiments.generate_trial_data"], "count")
    busy = total["experiments.run_task"]
    capacity = total["experiments.run_experiment"] * threads
    put("experiments.worker_busy_share", busy / capacity if capacity else 0.0,
        "share")
    for alg in ALGORITHMS:
        key = f"experiments.solve_instance.{alg}"
        n = calls[key]
        put(f"{key}.calls", n, "count")
        put(f"{key}.s_per_call", total[key] / n if n else 0.0, "s")
    for fn in ("run_hao_sca", "run_e_wmmse", "run_fp", "init_hao_sca",
               "beam_block", "power_block", "rho_block", "evaluate"):
        put(f"optimizers.{fn}.self_s", self_s[f"optimizers.{fn}"], "s")
        put(f"optimizers.{fn}.calls", calls[f"optimizers.{fn}"], "count")
    for block in ("beam_block", "power_block", "rho_block"):
        # inclusive: the block's own work plus the evaluate calls it makes
        put(f"optimizers.{block}.total_s", total[f"optimizers.{block}"], "s")
    for alg in ALGORITHMS:
        n = calls[f"experiments.solve_instance.{alg}"]
        put(f"optimizers.evaluate.calls_per_solve.{alg}",
            summary["eval_by_alg"][alg] / n if n else 0.0, "count")
        mine = [r for r in rows if r["algorithm"] == alg]
        put(f"optimizers.iterations.{alg}",
            sum(r["iterations_used"] for r in mine) / len(mine) if mine
            else 0.0, "iterations")
        put(f"optimizers.converged.{alg}",
            sum(r["converged"] for r in mine) / len(mine) if mine else 0.0,
            "share")
    for name in ("rates.rate_breakdown", "objective.composite_objective",
                 "sensing.evaluate_sensing", "sensing.sensing_sinr"):
        put(f"{name}.self_s", self_s[name], "s")
    put("sensing.sensing_sinr.calls", calls["sensing.sensing_sinr"], "count")
    for name in ("write_records", "write_csv", "write_plot_data",
                 "read_records", "merge_records", "write_stats_report"):
        put(f"records.{name}.self_s", self_s[f"records.{name}"], "s")
    put("records.write_records.bytes",
        counts["records.write_records.bytes"], "bytes")
    put("stats.regularized_incomplete_beta.calls",
        counts["stats.regularized_incomplete_beta"], "count")
    put("trace.timed_s", traced_wall, "s")
    put("trace.overhead_s", traced_wall - statistics.median(untraced_walls),
        "s")
    put("trace.accounted_share", summary["main_self"] / traced_wall, "share")
    put("trace.spans", summary["spans"], "count")
    return out
