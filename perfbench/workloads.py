"""Workloads: seeded inputs, the call sequence of one cycle, and output checks.

A workload's frame comes from ``repro.datasets.generate_pandas`` with the
run's seed put into a Table-2 shape through ``dataclasses.replace``. The
same pandas frame is cached in Spark for the program and kept on the driver
as the reference every output is checked against. The seed also picks the
columns and pairs of the task sweep.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
import pandas as pd

#: Absolute tolerance for Pearson coefficients against ``DataFrame.corr``.
PEARSON_TOL = 1e-6


@dataclass
class Reference:
    """Exact pandas answers for one generated frame."""

    pdf: pd.DataFrame
    num_cols: list[str]
    cat_cols: list[str]
    nmissing: dict[str, int]
    finite: dict[str, int]
    value_counts: dict[str, dict[str, int]]
    pearson: pd.DataFrame

    @property
    def nrows(self) -> int:
        return len(self.pdf)

    @classmethod
    def of(cls, pdf: pd.DataFrame) -> "Reference":
        num = [c for c in pdf.columns if pd.api.types.is_float_dtype(pdf[c])]
        cat = [c for c in pdf.columns if c not in num]
        return cls(
            pdf=pdf,
            num_cols=num,
            cat_cols=cat,
            nmissing={c: int(n) for c, n in pdf.isna().sum().items()},
            finite={c: int(np.isfinite(pdf[c].to_numpy()).sum()) for c in num},
            value_counts={c: {k: int(v) for k, v in pdf[c].value_counts().items()} for c in cat},
            pearson=pdf[num].corr(),
        )

    def both_present(self, a: str, b: str) -> int:
        return int((self.pdf[a].notna() & self.pdf[b].notna()).sum())


@dataclass
class Call:
    """One timed call: ``run`` calls the program, ``check`` lists what it got wrong."""

    label: str
    api: bool  # a DataPrep API call (False for the eager baseline)
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]


# -- checks ------------------------------------------------------------------


def _eq(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, want {want!r}")


def _close(problems: list[str], what: str, got, want) -> None:
    """Element-wise |got - want| <= PEARSON_TOL with NaN in the same places."""
    got = got.reindex_like(want).to_numpy(dtype="float64")
    want = want.to_numpy(dtype="float64")
    nan_g, nan_w = np.isnan(got), np.isnan(want)
    if (nan_g != nan_w).any():
        problems.append(f"{what}: NaN in {int(nan_g.sum())} cells, pandas has {int(nan_w.sum())}")
        return
    err = float(np.max(np.abs(got - want), initial=0.0, where=~nan_w))
    if err > PEARSON_TOL:
        problems.append(f"{what}: max |diff| {err:.3g} > {PEARSON_TOL}")


def _hist_mass(problems: list[str], ref: Reference, hists: dict) -> None:
    for c, counts in hists.items():
        _eq(problems, f"histogram mass of {c}", int(np.sum(counts)), ref.finite[c])


def _value_counts(problems: list[str], ref: Reference, counts: dict[str, pd.Series]) -> None:
    for c, s in counts.items():
        _eq(problems, f"value counts of {c}", {k: int(v) for k, v in s.items()}, ref.value_counts[c])


def check_report(ref: Reference, result) -> list[str]:
    inter = result.intermediates
    p: list[str] = []
    _eq(p, "nrows", inter["dataset_stats"]["nrows"], ref.nrows)
    _eq(p, "missing counts", {c: int(v) for c, v in inter["missing"]["bar"].items()}, ref.nmissing)
    _hist_mass(p, ref, {c: inter["variables"][c]["hist"]["counts"] for c in ref.num_cols})
    _value_counts(p, ref, inter["value_counts"])
    _close(p, "pearson", inter["correlations"]["pearson"], ref.pearson)
    return p


def check_baseline(ref: Reference, fused: dict, result) -> list[str]:
    """The eager report agrees with the latest fused report (the warm-up one first)."""
    p: list[str] = []
    want_rows = fused.get("nrows", ref.nrows)
    want_missing = fused.get("missing", ref.nmissing)
    _eq(p, "nrows vs fused", result["dataset_stats"]["nrows"], want_rows)
    _eq(
        p, "missing counts vs fused",
        {c: int(v.get("nmissing") or 0) for c, v in result["variables"].items()}, want_missing,
    )
    return p


def check_overview(ref: Reference, result) -> list[str]:
    inter = result.intermediates
    p: list[str] = []
    _eq(p, "nrows", inter["dataset_stats"]["nrows"], ref.nrows)
    _eq(p, "missing counts", {c: int(s["nmissing"]) for c, s in inter["col_stats"].items()}, ref.nmissing)
    _hist_mass(p, ref, {c: h[0] for c, h in inter["hists"].items()})
    _value_counts(p, ref, inter["value_counts"])
    return p


def check_numerical(ref: Reference, col: str, result) -> list[str]:
    inter = result.intermediates
    p: list[str] = []
    _eq(p, "nrows", inter["nrows"], ref.nrows)
    _eq(p, f"count of {col}", int(inter["stats"]["count"]), ref.finite[col])
    _eq(p, f"nmissing of {col}", int(inter["stats"]["nmissing"]), ref.nmissing[col])
    _hist_mass(p, ref, {col: inter["hist"]["counts"]})
    return p


def check_categorical(ref: Reference, col: str, result) -> list[str]:
    inter = result.intermediates
    p: list[str] = []
    present = ref.nrows - ref.nmissing[col]
    _eq(p, f"count of {col}", int(inter["stats"]["count"]), present)
    _eq(p, f"nmissing of {col}", int(inter["stats"]["nmissing"]), ref.nmissing[col])
    _eq(p, f"n_total of {col}", int(inter["stats"]["n_total"]), present)
    _eq(p, f"n_distinct of {col}", int(inter["stats"]["n_distinct_exact"]), len(ref.value_counts[col]))
    for value, n in inter["bar"].items():
        _eq(p, f"bar count of {col}={value}", int(n), ref.value_counts[col].get(value))
    return p


def check_correlation(ref: Reference, result) -> list[str]:
    p: list[str] = []
    _close(p, "pearson", result.intermediates["pearson"], ref.pearson)
    return p


def check_correlation_vector(ref: Reference, col: str, result) -> list[str]:
    inter = result.intermediates
    p: list[str] = []
    others = inter["columns"]
    _eq(p, f"columns beside {col}", sorted(others), sorted(c for c in ref.num_cols if c != col))
    _close(p, f"pearson of {col}", inter["pearson"], ref.pearson.loc[others, col])
    return p


def check_missing(ref: Reference, result) -> list[str]:
    inter = result.intermediates
    p: list[str] = []
    _eq(p, "nrows", inter["nrows"], ref.nrows)
    _eq(p, "missing counts", {c: int(v) for c, v in inter["bar"].items()}, ref.nmissing)
    return p


def check_missing_col(ref: Reference, col: str, result) -> list[str]:
    inter = result.intermediates
    pdf = ref.pdf
    kept = pdf[col].notna()
    p: list[str] = []
    _eq(p, "nrows", inter["nrows"], ref.nrows)
    _eq(p, f"n_dropped for {col}", inter["n_dropped"], ref.nmissing[col])
    others = [c for c in pdf.columns if c != col]
    _eq(p, "columns compared", sorted(list(inter["numeric"]) + list(inter["categorical"])), sorted(others))
    for c, frame in {**inter["numeric"], **inter["categorical"]}.items():
        _eq(p, f"{c} before dropping", int(frame["before"].sum()), int(pdf[c].notna().sum()))
        _eq(p, f"{c} after dropping", int(frame["after"].sum()), int((pdf[c].notna() & kept).sum()))
    return p


def check_num_num(ref: Reference, x: str, y: str, result) -> list[str]:
    p: list[str] = []
    _eq(p, f"hexbin mass of {x}, {y}", int(result.intermediates["hexbin"]["count"].sum()), ref.both_present(x, y))
    return p


def check_num_cat(ref: Reference, num: str, cat: str, result) -> list[str]:
    inter = result.intermediates
    pdf = ref.pdf
    sizes = pdf.loc[pdf[num].notna(), cat].value_counts()
    order = sorted(sizes.items(), key=lambda kv: (-kv[1], kv[0]))[: len(inter["groups"])]
    p: list[str] = []
    _eq(p, f"top groups of {cat}", list(inter["groups"]), [k for k, _ in order])
    box = inter["cat_box"]
    _eq(p, f"group sizes of {cat}", dict(zip(box["g"], box["count"].astype(int))), dict(order))
    return p


def check_cat_cat(ref: Reference, x: str, y: str, result) -> list[str]:
    p: list[str] = []
    _eq(p, f"contingency total of {x}, {y}", result.intermediates["contingency_total"], ref.both_present(x, y))
    return p


# -- workloads -----------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str  # Table-2 shape in ``repro.datasets.SPEC_BY_NAME``
    plan: Callable[[Any, Any, Any, Reference, np.random.Generator], list[Call]]
    warmup: Callable[[list[Call]], list[Call]]
    #: Rows of the frame the warm-up calls run on (the head of the seeded
    #: frame); None runs them on the measured frame itself.
    warmup_rows: int | None
    #: Typical warm wall time of one cycle on 4 cores; ``--seconds`` divided
    #: by it, rounded, is the number of cycles a run times (at least one),
    #: so every run of a workload times the same calls.
    nominal_cycle_s: float


def report_plan(core, baseline, df, ref: Reference, rng) -> list[Call]:
    """Eager report, then three fused reports: the Table-2 comparison.

    The eager report's ~250 jobs come first, so the fused reports after it
    run on a warm JVM.
    """
    fused: dict = {}

    def fused_report():
        return core.create_report(df)

    def check_fused(result) -> list[str]:
        inter = result.intermediates
        fused["nrows"] = inter["dataset_stats"]["nrows"]
        fused["missing"] = {c: int(v) for c, v in inter["missing"]["bar"].items()}
        return check_report(ref, result)

    report = Call("create_report(df)", True, fused_report, check_fused)
    eager = Call(
        "eager_profile_report(df)", False,
        lambda: baseline.eager_profile_report(df),
        lambda r: check_baseline(ref, fused, r),
    )
    return [eager, report, report, report]


def task_plan(core, baseline, df, ref: Reference, rng) -> list[Call]:
    """One call of each fine-grained task kind, on seeded columns and pairs."""
    num, cat = ref.num_cols, ref.cat_cols

    def pick(cols: list[str], k: int = 1) -> list[str]:
        return [str(c) for c in rng.choice(cols, size=k, replace=False)]

    (u_num,), (u_cat,) = pick(num), pick(cat)
    (v_num,) = pick(num)
    (m_col,) = pick(num + cat)
    nn, (nc_num,), (nc_cat,), cc = pick(num, 2), pick(num), pick(cat), pick(cat, 2)
    return [
        Call(f"plot(df, {u_num})", True, lambda: core.plot(df, u_num), lambda r: check_numerical(ref, u_num, r)),
        Call(f"plot(df, {u_cat})", True, lambda: core.plot(df, u_cat), lambda r: check_categorical(ref, u_cat, r)),
        Call("plot_correlation(df)", True, lambda: core.plot_correlation(df), lambda r: check_correlation(ref, r)),
        Call(f"plot_correlation(df, {v_num})", True, lambda: core.plot_correlation(df, v_num),
             lambda r: check_correlation_vector(ref, v_num, r)),
        Call("plot_missing(df)", True, lambda: core.plot_missing(df), lambda r: check_missing(ref, r)),
        Call(f"plot_missing(df, {m_col})", True, lambda: core.plot_missing(df, m_col),
             lambda r: check_missing_col(ref, m_col, r)),
        Call(f"plot(df, {nn[0]}, {nn[1]})", True, lambda: core.plot(df, *nn), lambda r: check_num_num(ref, *nn, r)),
        Call(f"plot(df, {nc_num}, {nc_cat})", True, lambda: core.plot(df, nc_num, nc_cat),
             lambda r: check_num_cat(ref, nc_num, nc_cat, r)),
        Call(f"plot(df, {cc[0]}, {cc[1]})", True, lambda: core.plot(df, *cc), lambda r: check_cat_cat(ref, *cc, r)),
        Call("plot(df)", True, lambda: core.plot(df), lambda r: check_overview(ref, r)),
    ]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # Warm-up is one fused report only: a cold eager report adds ~20 s
        # to every run's set-up.
        Workload(
            "report-small", "titanic", report_plan,
            lambda calls: [c for c in calls if c.api][:1], None, 32.0,
        ),
        # plot(df) is left out of the warm-up (a cold one takes ~11 s) and
        # comes last in the sweep, after the other calls have warmed the
        # passes it shares with them.
        Workload("tasks-interactive", "adult", task_plan, lambda calls: calls[:-1], 5000, 22.0),
    )
}


def generate(datasets, name: str, seed: int):
    """(pandas frame, spec) of one Table-2 shape under ``seed``."""
    spec = dataclasses.replace(datasets.SPEC_BY_NAME[name], seed=seed)
    return datasets.generate_pandas(spec), spec


def cache(spark, pdf: pd.DataFrame, partitions: int):
    """The frame in Spark, cached and counted, with its pandas reference."""
    df = spark.createDataFrame(pdf).repartition(partitions).cache()
    df.count()
    return df, Reference.of(pdf)
