"""Fused Compute-module kernels (paper §4.2.2 / §5.2).

The paper's key optimization is expressing *all* computations of a task in
one lazy Dask graph so shared work is computed once. The Spark analogue
implemented here:

* ``basic_stats_pass``   — every per-column aggregate for every column,
  quantile sketches included, in **one** aggregation (one scan, one job
  per ``_AGG_EXPR_CAP`` aggregates).
* ``histogram_pass``     — histograms of all numeric columns via one
  ``stack → groupBy(column, bin)`` (one shuffle for all columns). Bin
  edges need min/max *before* the job can be built — the Spark analogue of
  the paper's "precompute chunk sizes before constructing the graph".
* ``value_counts_pass``  — value counts, distinct counts and totals of all
  categorical columns via one ``stack → groupBy(column, value)`` plus
  per-column windows, in one action.
* ``sample_pass``        — one seeded row sample for driver-side kernels.

Plans are built from the SQL-text vocabulary of
``repro.substrate.sparkutils`` (``numeric_sql``, ``missing_count_sql``,
``bin_sql``, ``quote``): one ``selectExpr`` per pass instead of thousands
of Py4J-backed ``Column`` calls.

Each pass reduces the distributed frame to a tiny pandas object; everything
downstream (KDE, Q-Q, box stats, insights) is driver-side pandas/numpy —
the paper's Dask-Computation / Pandas-Computation split.
"""
from __future__ import annotations

import math
from typing import Mapping

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.core.dtypes import EDAType
from repro.substrate.sparkutils import (
    bin_sql,
    double_sql,
    finite_sql,
    infinite_sql,
    missing_count_sql,
    numeric_sql,
    quote,
)

#: quantile probabilities shared by the stats table, box plot, and Q-Q plot
#: (paper §4.2: "the quantiles are computed once and distributed to each
#: visualization").
STATS_QUANTILES = (0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99)


def _stat_exprs(
    col: str,
    dtype: str,
    eda_type: EDAType,
    quantile_probs: tuple[float, ...] | None = None,
) -> list[tuple[str, str]]:
    """``(stat, SQL aggregate)`` pairs for one column."""
    q = quote(col)
    # Numeric statistics see NaN/±inf as NULL (pandas semantics: NaN is
    # missing; infinity is counted separately below). HLL hashes the value
    # in its own type, so ``distinct`` counts the cleaned value uncast.
    numeric = eda_type is EDAType.NUMERICAL
    v = numeric_sql(col, dtype) if numeric else q
    exprs = [
        ("count", f"count({v})"),
        ("nmissing", missing_count_sql(col, dtype)),
        # rsd=0.05 (engine default): tighter precisions blow up the HLL++
        # register buffers (~2^18 longs per column) and turn this one-scan
        # agg into minutes on small data. Exact distinct counts for
        # categoricals come from value_counts_pass anyway.
        ("distinct", f"approx_count_distinct({finite_sql(col, dtype) if numeric else q})"),
    ]
    if numeric:
        # Moments come from raw power sums (s1..s4) finished on the driver,
        # not from stddev/skewness/kurtosis: those declarative aggregates
        # expand to huge Welford expression trees, and a few hundred of
        # them in one fused agg exhausts the JVM code cache. Four plain
        # sums per column keep the codegen unit tiny — and the driver-side
        # finishing is exactly the paper's pandas-phase.
        exprs += [
            ("min", f"min({v})"),
            ("max", f"max({v})"),
            ("sum", f"sum({v})"),
            ("sum2", f"sum({v} * {v})"),
            ("sum3", f"sum({v} * {v} * {v})"),
            ("sum4", f"sum({v} * {v} * {v} * {v})"),
            ("nzero", f"sum(CAST({v} = 0 AS BIGINT))"),
            ("nnegative", f"sum(CAST({v} < 0 AS BIGINT))"),
            ("ninfinite", f"sum(CAST({infinite_sql(col)} AS BIGINT))"),
        ]
        if quantile_probs:
            # percentile_approx is an imperative (buffer-based) aggregate:
            # folding the quantile sketch into the same scan is free of the
            # codegen-size issues the declarative moments had, and removes
            # a whole approxQuantile pass (quantiles shared by the stats
            # table, box plot and Q-Q plot — the paper's sharing example).
            probs = ", ".join(double_sql(p) for p in quantile_probs)
            exprs.append(("qsketch", f"percentile_approx({v}, array({probs}), 10000)"))
    elif eda_type is EDAType.CATEGORICAL:
        ln = f"length(CAST({q} AS STRING))"
        exprs += [
            ("len_min", f"CAST(min({ln}) AS DOUBLE)"),
            ("len_max", f"CAST(max({ln}) AS DOUBLE)"),
            ("len_mean", f"CAST(avg({ln}) AS DOUBLE)"),
        ]
    elif eda_type is EDAType.DATETIME:
        exprs += [
            ("min_ts", f"date_format(min({q}), 'yyyy-MM-dd HH:mm:ss')"),
            ("max_ts", f"date_format(max({q}), 'yyyy-MM-dd HH:mm:ss')"),
        ]
    return exprs


def _finish_moments(stats: dict[str, object]) -> None:
    """Derive mean/std/skew/kurt from the power sums, in place.

    Matches Spark semantics: ``std`` is the sample stddev (ddof=1), ``skew``
    is g1 = m3/m2^1.5 (population), ``kurt`` is excess kurtosis m4/m2²−3.
    """
    n = int(stats.get("count") or 0)
    s1, s2, s3, s4 = (stats.pop(k, None) for k in ("sum", "sum2", "sum3", "sum4"))
    stats["sum"] = s1
    if n == 0 or s1 is None:
        stats.update({"mean": None, "std": None, "skew": None, "kurt": None})
        return
    mean = s1 / n
    m2 = max((s2 - n * mean**2) / n, 0.0)
    m3 = (s3 - 3 * mean * s2 + 2 * n * mean**3) / n
    m4 = (s4 - 4 * mean * s3 + 6 * mean**2 * s2 - 3 * n * mean**4) / n
    stats["mean"] = mean
    stats["std"] = math.sqrt(m2 * n / (n - 1)) if n > 1 else None
    stats["skew"] = (m3 / m2**1.5) if m2 > 0 else float("nan")
    stats["kurt"] = (m4 / m2**2 - 3.0) if m2 > 0 else float("nan")


#: Upper bound on aggregate expressions per fused agg job. Above this the
#: generated class gets large enough to stress janino/JIT; chunking keeps
#: the job count at ceil(exprs/cap) — still O(1)-ish scans, never per-column.
_AGG_EXPR_CAP = 256


def basic_stats_pass(
    df: DataFrame,
    types: Mapping[str, EDAType],
    cols: list[str] | None = None,
    quantile_probs: tuple[float, ...] | None = None,
) -> dict[str, dict[str, object]]:
    """One fused aggregation computing every basic statistic of every column.

    Returns ``{column: {stat: value}}`` plus the dataset row count under the
    pseudo-column ``__table__``. One ``selectExpr`` and one Spark job per
    ``_AGG_EXPR_CAP`` aggregates, regardless of the number of columns —
    this is where the 4–20× of Table 2 comes from.
    """
    cols = list(cols) if cols is not None else list(types)
    dtypes = dict(df.dtypes)
    keys: list[tuple[str, str]] = [("__table__", "nrows")]
    exprs = ["count(1)"]
    for col in cols:
        for stat, expr in _stat_exprs(col, dtypes[col], types[col], quantile_probs):
            keys.append((col, stat))
            exprs.append(expr)
    out: dict[str, dict[str, object]] = {}
    for i in range(0, len(exprs), _AGG_EXPR_CAP):
        chunk = exprs[i : i + _AGG_EXPR_CAP]
        row = df.selectExpr(*[f"{e} AS _{j}" for j, e in enumerate(chunk)]).collect()[0]
        for (col, stat), value in zip(keys[i : i + _AGG_EXPR_CAP], row):
            out.setdefault(col, {})[stat] = value
    for col in cols:
        if types[col] is EDAType.NUMERICAL:
            _finish_moments(out[col])
            if quantile_probs:
                sketch = out[col].pop("qsketch", None)
                out[col]["quantiles"] = (
                    {p: q for p, q in zip(quantile_probs, sketch)}
                    if sketch is not None
                    else {p: None for p in quantile_probs}
                )
    return out


def stacked_bins_sql(
    df: DataFrame,
    cols: list[str],
    minmax: Mapping[str, tuple[float, float]],
    bins: int,
) -> str:
    """Generator expression emitting one ``(ci, bin)`` row per cell of ``cols``.

    ``ci`` is the column's position in ``cols`` (integers, so no column name
    is ever written as a string literal) and ``bin`` its ``bin_sql`` index
    over that column's ``minmax`` range — NULL for missing and non-finite
    cells. The bin edges are inlined as literals, so no metadata frame or
    join is needed.
    """
    dtypes = dict(df.dtypes)
    pairs = ", ".join(
        f"{i}, {bin_sql(numeric_sql(c, dtypes[c]), minmax[c][0], minmax[c][1], bins)}"
        for i, c in enumerate(cols)
    )
    return f"stack({len(cols)}, {pairs}) AS (ci, bin)"


def histogram_pass(
    df: DataFrame,
    num_cols: list[str],
    types: Mapping[str, EDAType],
    minmax: Mapping[str, tuple[float | None, float | None]],
    bins: int,
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Equi-width histograms of all numeric columns via one stacked groupBy.

    ``minmax`` must come from a previous pass (``basic_stats_pass``) — the
    bin edges are needed to *construct* this job, mirroring the paper's
    precompute-chunk-size stage. Returns ``{col: (counts, edges)}`` with
    ``len(edges) == bins + 1``; columns with no finite values map to empty
    counts.
    """
    usable = [
        c for c in num_cols
        if minmax.get(c, (None, None))[0] is not None
        and minmax[c][1] is not None
    ]
    out: dict[str, tuple[np.ndarray, np.ndarray]] = {
        c: (np.zeros(0, dtype="int64"), np.zeros(0, dtype="float64"))
        for c in num_cols if c not in usable
    }
    if not usable:
        return out

    counts_pdf = (
        df.selectExpr(stacked_bins_sql(df, usable, minmax, bins))
        .where("bin IS NOT NULL")
        .groupBy("ci", "bin")
        .count()
        .toPandas()
    )
    for i, c in enumerate(usable):
        mn, mx = float(minmax[c][0]), float(minmax[c][1])
        edges = np.linspace(mn, mx, bins + 1) if mx > mn else np.array([mn, mn])
        n_bins = bins if mx > mn else 1
        counts = np.zeros(n_bins, dtype="int64")
        sub = counts_pdf[counts_pdf["ci"] == i]
        idx = sub["bin"].to_numpy(dtype="int64")
        counts[idx] = sub["count"].to_numpy(dtype="int64")
        out[c] = (counts, edges)
    return out


def stacked_strings_sql(cols: list[str]) -> str:
    """Generator expression emitting one ``(ci, value)`` row per cell of ``cols``.

    ``value`` is the cell cast to string; ``ci`` the column's position.
    """
    pairs = ", ".join(f"{i}, CAST({quote(c)} AS STRING)" for i, c in enumerate(cols))
    return f"stack({len(cols)}, {pairs}) AS (ci, value)"


def value_counts_pass(
    df: DataFrame, cat_cols: list[str], limit: int = 1000
) -> dict[str, pd.Series]:
    """Exact value counts of all categorical columns in one query.

    Each column's series is capped at ``limit`` values (descending count,
    ascending value tie-break) and carries exact ``n_distinct`` / ``n_total``
    (non-null) in ``series.attrs`` so overview stats stay exact even when
    the head is truncated. The head and the per-column totals are window
    functions over the same grouped counts, so one action returns both.
    """
    if not cat_cols:
        return {}
    top_pdf = (
        df.selectExpr(stacked_strings_sql(cat_cols))
        .where("value IS NOT NULL")
        .groupBy("ci", "value")
        .count()
        .selectExpr(
            "ci",
            "value",
            "`count`",
            "row_number() OVER (PARTITION BY ci ORDER BY `count` DESC, value ASC) AS rn",
            "count(1) OVER (PARTITION BY ci) AS n_distinct",
            "sum(`count`) OVER (PARTITION BY ci) AS n_total",
        )
        .where(f"rn <= {int(limit)}")
        .toPandas()
    )
    out: dict[str, pd.Series] = {}
    for i, c in enumerate(cat_cols):
        sub = top_pdf[top_pdf["ci"] == i].sort_values(
            ["count", "value"], ascending=[False, True]
        )
        s = pd.Series(
            sub["count"].to_numpy(dtype="int64"),
            index=sub["value"].to_numpy(dtype=object),
            name=c,
        )
        if len(sub):
            s.attrs["n_distinct"] = int(sub["n_distinct"].iloc[0])
            s.attrs["n_total"] = int(sub["n_total"].iloc[0])
        else:  # all-null column
            s.attrs["n_distinct"] = 0
            s.attrs["n_total"] = 0
        out[c] = s
    return out


def sample_pass(
    df: DataFrame, cols: list[str], n: int, seed: int, total_rows: int | None = None
) -> pd.DataFrame:
    """Seeded row sample of ``cols``, capped at ``n`` rows, as pandas.

    Used for the driver-side kernels that need raw values (KDE, scatter,
    Kendall). ``total_rows`` (if already known from a stats pass) avoids a
    count job. Oversamples by 10% then truncates, so the cap is respected
    without a second pass.
    """
    if total_rows is None:
        total_rows = df.count()
    proj = df.select([quote(c) for c in cols])
    if total_rows <= n:
        return proj.toPandas()
    frac = min(1.0, (n / total_rows) * 1.1)
    return proj.sample(fraction=frac, seed=seed).limit(n).toPandas()
