"""The repository's benchmark: one workload, one seed, one closed-loop client.

Usage, from the repository root::

    python3 perfbench/run.py --workload report-small --seed 1 --seconds 25 --trace 0

The run starts a ``local[k]`` Spark session (k = min(4, cores)), generates
the workload's frame from ``--seed``, caches it, runs the warm-up calls,
then times ``round(seconds / nominal cycle)`` cycles (at least one) of the
workload's fixed call sequence, one call at a time. Every output is checked
against a pandas reference; a failed check or an exception fails the call.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` times the same
cycles with every function of ``layers.json`` traced and prints the
per-layer metrics. The last line of standard output is the result as one
JSON object; the lines before it are a readable summary.
"""
from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import measure  # noqa: E402
import session  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench-work"

END_TO_END_UNITS = {
    "setup_s": "s",
    "call_p50_s": "s",
    "cycle_s": "s",
    "driver_peak_rss_mb": "MB",
}


def parse_args(argv: list[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    return "count"


def timed_call(call: workloads.Call, tally: measure.Tally) -> float:
    """Run one call, check its output outside the timed region, return seconds."""
    t0 = time.perf_counter()
    try:
        result = call.run()
    except Exception as exc:  # a failed call is counted, the run goes on
        elapsed = time.perf_counter() - t0
        tally.record(call.label, [f"{type(exc).__name__}: {exc}"])
        traceback.print_exc(file=sys.stderr)
        return elapsed
    elapsed = time.perf_counter() - t0
    try:
        problems = call.check(result)
    except Exception as exc:  # a check that cannot read the output fails the call
        problems = [f"check raised {type(exc).__name__}: {exc}"]
    tally.record(call.label, problems)
    return elapsed


@dataclass
class Timings:
    """Wall times of the timed cycles."""

    api: list[float] = field(default_factory=list)  # DataPrep API calls
    cycles: list[float] = field(default_factory=list)
    by_label: dict[str, list[float]] = field(default_factory=dict)


def measure_cycles(plan: list[workloads.Call], cycles: int, tally: measure.Tally) -> Timings:
    t = Timings()
    for _ in range(cycles):
        total = 0.0
        for call in plan:
            elapsed = timed_call(call, tally)
            total += elapsed
            t.by_label.setdefault(call.label, []).append(elapsed)
            if call.api:
                t.api.append(elapsed)
        t.cycles.append(total)
    return t


def end_to_end(setup_s: float, t: Timings, rss_mb: float, rss_reset: bool) -> dict[str, tuple[float, str]]:
    """``name -> (value, how it was taken)`` for every end-to-end metric."""
    return {
        "setup_s": (setup_s, "one set-up"),
        "call_p50_s": (measure.median(t.api), f"median of {len(t.api)} API calls"),
        "cycle_s": (measure.median(t.cycles), f"median of {len(t.cycles)} cycles"),
        "driver_peak_rss_mb": (rss_mb, "peak since set-up" if rss_reset else "peak since start"),
    }


def per_layer(tracer: spans.Tracer, functions, sc, t: Timings, jvm: int | None) -> dict[str, float]:
    tracer.collect_jobs()
    cycles = len(t.cycles)
    out = spans.layer_metrics(tracer, functions, cycles)
    counts = spans.spark_counts(sc, [j for s in tracer.spans for j in s.jobs])
    out.update({f"spark.{k}": v / cycles for k, v in counts.items()})
    out["spark.jvm_peak_rss_mb"] = session.peak_rss_mb(jvm) if jvm is not None else 0.0
    out["trace.cycle_s"] = measure.median(t.cycles)
    out["trace.overhead_s"] = tracer.overhead / cycles
    return out


def run(args: argparse.Namespace) -> tuple[dict, list[str]]:
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"perfbench: no program source under {ROOT / 'src' / 'repro'}")
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    wl = workloads.WORKLOADS[args.workload]
    spark = session.start(WORKDIR)
    try:
        import pyspark

        import repro.baseline as baseline
        import repro.core as core
        from repro import datasets

        sc = spark.sparkContext
        session_s = time.perf_counter() - PROCESS_START
        pdf, spec = workloads.generate(datasets, wl.dataset, args.seed)
        df, ref = workloads.cache(spark, pdf, session.cores())
        plan = wl.plan(core, baseline, df, ref, np.random.default_rng(args.seed))
        data_s = time.perf_counter() - PROCESS_START - session_s

        functions = spans.traced_functions()
        tracer = spans.Tracer(sc)
        if args.trace:
            spans.install(tracer, functions)

        warm = measure.Tally()
        if wl.warmup_rows is None:
            warm_plan, warm_df = plan, None
        else:
            warm_df, warm_ref = workloads.cache(spark, pdf.head(wl.warmup_rows), session.cores())
            warm_plan = wl.plan(core, baseline, warm_df, warm_ref, np.random.default_rng(args.seed))
        warm_times = [(c.label, timed_call(c, warm)) for c in wl.warmup(warm_plan)]
        if warm_df is not None:
            warm_df.unpersist()

        jvm = session.jvm_pid(spark)
        rss_reset = session.clear_peak_rss()
        if jvm is not None:
            session.clear_peak_rss(jvm)
        setup_s = time.perf_counter() - PROCESS_START

        cycles = max(1, round(args.seconds / wl.nominal_cycle_s))
        tally = measure.Tally()
        tracer.enabled = bool(args.trace)
        timings = measure_cycles(plan, cycles, tally)
        tracer.enabled = False
        driver_rss = session.peak_rss_mb()

        record = {
            "workload": wl.name,
            "seed": args.seed,
            "dataset_shape": wl.dataset,
            "rows": spec.nrows,
            "cols": f"{spec.ncols} ({spec.n_num} numeric / {spec.n_cat} categorical)",
            "git_sha": session.git_sha(ROOT),
            "spark": pyspark.__version__,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "master": sc.master,
            "shuffle_partitions": spark.conf.get("spark.sql.shuffle.partitions"),
            "cycles": cycles,
            "trace": args.trace,
            "setup_phases_s": {
                "session": round(session_s, 3),
                "data": round(data_s, 3),
                "warm_up": round(setup_s - session_s - data_s, 3),
            },
        }
        lines = [f"record {json.dumps(record)}"]
        lines += [f"warm-up {label}: {s:.3f} s" for label, s in warm_times]
        lines += [
            f"call {label}: median {measure.median(ts):.3f} s over {len(ts)}"
            for label, ts in timings.by_label.items()
        ]
        lines += [f"warm-up failure {f}" for f in warm.failures]
        lines += [f"failure {f}" for f in tally.failures]
        lines.append(f"fail_frac = {tally.failed}/{tally.attempted} = {tally.fail_frac:.4f}")
        pct, tail_s = measure.tail(timings.api)
        lines.append(
            f"call_tail_s = {tail_s:.4f} s (p{pct:.1f} of {len(timings.api)} API calls; "
            "a percentile with 10 calls beyond it needs more than 10 calls, so this is "
            "the maximum until then and is not a contract metric)"
        )
        correct = tally.failed == 0 and warm.failed == 0

        if args.trace:
            values = per_layer(tracer, functions, sc, timings, jvm)
            metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
            closure = tracer.closure_error()
            correct = correct and closure <= 1e-6
            lines.append(
                f"trace closure: span self times plus each call's unspanned remainder "
                f"match the call's wall time to {closure:.2e} s ({len(tracer.spans)} spans)"
            )
            lines += [f"metric {k} = {v:.4f} {layer_unit(k)}" for k, v in values.items()]
        else:
            values = end_to_end(setup_s, timings, driver_rss, rss_reset)
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, (v, _) in values.items()}
            lines += [f"metric {k} = {v:.4f} {END_TO_END_UNITS[k]} ({how})" for k, (v, how) in values.items()]
        result = {"correct": correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
        return result, lines
    finally:
        session.stop(spark)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    result, lines = run(args)
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
