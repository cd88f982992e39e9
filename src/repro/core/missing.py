"""Missing-value analysis — ``plot_missing`` (paper Figure 2, rows 7–9),
after the Missingno library the paper derives its mapping rules from.

* ``plot_missing(df)`` — missing bar chart, missing **spectrum** (per
  row-segment missing rate: one partition-size query, then one
  ``groupBy(segment)``), **nullity correlation** heatmap (one co-moment
  scan), and a **dendrogram** of columns clustered by nullity similarity.
* ``plot_missing(df, c1)`` — for every other column, its distribution
  before vs after dropping the rows where ``c1`` is missing (the paper
  notes this is the most expensive task: two frequency distributions per
  column — here both distributions come out of **one** stacked
  aggregation per type class).
* ``plot_missing(df, c1, c2)`` — histogram, PDF, CDF and box plot of
  ``c2`` before/after dropping ``c1``-missing rows.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core import compute
from repro.core.config import Config
from repro.core.correlation import pearson_matrix
from repro.core.dtypes import EDAType, detect_types
from repro.core.insights import missing_insights
from repro.core.intermediates import EDAResult, Intermediates
from repro.core.render import render
from repro.substrate import numutils
from repro.substrate.cluster import cluster_order, linkage_average
from repro.substrate.sparkutils import (
    missing_count_sql,
    missing_sql,
    null_indicators,
    numeric_sql,
)


def missing_counts_pass(df: DataFrame) -> tuple[int, pd.Series]:
    """(row count, missing count per column) in one fused aggregation."""
    dtypes = dict(df.dtypes)
    row = df.selectExpr(
        "count(1)",
        *[missing_count_sql(c, dtypes[c]) for c in df.columns],
    ).collect()[0]
    return int(row[0]), pd.Series({c: int(v or 0) for c, v in zip(df.columns, row[1:])})


#: ``monotonically_increasing_id`` keeps a row's position inside its
#: partition in the lower 33 bits and the partition id above them.
_POSITION_BITS = 33


def spectrum_pass(df: DataFrame, bins: int) -> pd.DataFrame:
    """Missing rate per (row segment, column): the missing spectrum plot.

    Row ``i``, counted in partition order (the order ``toPandas`` returns),
    falls in segment ``floor(i * bins / nrows)``. Two small queries, with no
    window, join or unpivot: the partition sizes first (the chunk-size
    precompute of paper §5), whose running sum gives ``nrows`` and each
    partition's offset; then one ``groupBy(segment)`` that averages every
    column's 0/1 missing indicator. A row's index is its partition's offset
    (an inline array literal) plus its position in the partition, both read
    off ``monotonically_increasing_id``. The wide result is reshaped to long
    format (``segment``, ``column``, ``missing_rate``, ``n``) on the driver,
    sorted by segment, then column. Segments that hold no row are absent.
    """
    sizes = dict(df.selectExpr("spark_partition_id() AS pid").groupBy("pid").count().collect())
    nrows = sum(sizes.values())
    if nrows == 0:
        return pd.DataFrame(
            {
                "segment": pd.Series(dtype="int32"),
                "column": pd.Series(dtype="object"),
                "missing_rate": pd.Series(dtype="float64"),
                "n": pd.Series(dtype="int64"),
            }
        )
    counts = np.zeros(max(sizes) + 1, dtype="int64")
    counts[list(sizes)] = list(sizes.values())
    offsets = np.cumsum(counts) - counts
    offsets_sql = "array(" + ", ".join(f"{o}L" for o in offsets) + ")"
    row = (
        f"element_at({offsets_sql}, CAST(shiftright(__mid, {_POSITION_BITS}) AS INT) + 1)"
        f" + (__mid & {(1 << _POSITION_BITS) - 1}L)"
    )
    dtypes = dict(df.dtypes)
    cols = df.columns
    # The id is projected once and then read twice: each evaluation of
    # monotonically_increasing_id() advances its in-partition counter.
    wide = (
        df.selectExpr(
            "monotonically_increasing_id() AS __mid",
            *[f"CAST({missing_sql(c, dtypes[c])} AS INT) AS _{i}" for i, c in enumerate(cols)],
        )
        .selectExpr(f"LEAST(CAST(FLOOR(({row}) * {bins} / {nrows}) AS INT), {bins - 1}) AS segment", "*")
        .groupBy("segment")
        .agg(*[F.expr(f"avg(_{i})") for i in range(len(cols))], F.expr("count(1) AS n"))
        .toPandas()
    )
    k, nseg = len(cols), len(wide)
    out = pd.DataFrame(
        {
            "segment": np.repeat(wide["segment"].to_numpy(dtype="int32"), k),
            "column": np.tile(np.array(cols, dtype=object), nseg),
            "missing_rate": wide.iloc[:, 1:1 + k].to_numpy(dtype="float64").ravel(),
            "n": np.repeat(wide["n"].to_numpy(dtype="int64"), k),
        }
    )
    return out.sort_values(["segment", "column"], kind="stable", ignore_index=True)


def partially_missing(miss: pd.Series, nrows: int) -> list[str]:
    """Columns with some but not all cells missing: the nullity heatmap's.

    Constant indicators (never / always missing) have zero variance, so
    Missingno leaves them out, and so does this.
    """
    return [c for c in miss.index if 0 < miss[c] < nrows]


def empty_nullity(cols: list[str]) -> pd.DataFrame:
    """The nullity heatmap when fewer than two columns are partially missing."""
    return pd.DataFrame(index=cols, columns=cols, dtype="float64")


def nullity_correlation(df: DataFrame, miss: pd.Series, nrows: int) -> pd.DataFrame:
    """Pearson correlation of missingness indicators (Missingno heatmap)
    over the ``partially_missing`` columns."""
    cols = partially_missing(miss, nrows)
    if len(cols) < 2:
        return empty_nullity(cols)
    return pearson_matrix(null_indicators(df, cols), cols)


def nullity_dendrogram(corr: pd.DataFrame) -> dict[str, object]:
    """Average-linkage dendrogram over nullity distance 1 − |corr|."""
    cols = list(corr.index)
    m = len(cols)
    if m < 2:
        return {"columns": cols, "linkage": np.zeros((0, 4)), "leaf_order": list(range(m))}
    dist = 1.0 - corr.abs().fillna(0.0).to_numpy()
    np.fill_diagonal(dist, 0.0)
    Z = linkage_average(dist)
    return {"columns": cols, "linkage": Z, "leaf_order": cluster_order(Z, m)}


def compute_missing(df: DataFrame, cfg: Config) -> Intermediates:
    """Intermediates for ``plot_missing(df)``."""
    nrows, miss = missing_counts_pass(df)
    inter = Intermediates(task="missing")
    inter["nrows"] = nrows
    inter["bar"] = miss
    inter["missing_rate"] = (miss / nrows) if nrows else miss.astype("float64")
    inter["spectrum"] = spectrum_pass(df, cfg["spectrum.bins"])
    corr = nullity_correlation(df, miss, nrows)
    inter["nullity_corr"] = corr
    inter["dendrogram"] = nullity_dendrogram(corr)
    return inter


def _before_after_numeric(
    df: DataFrame,
    num_cols: list[str],
    minmax,
    dropped: str,
    bins: int,
) -> dict[str, pd.DataFrame]:
    """Histograms of each numeric column before/after dropping, fused.

    One stacked shuffle produces, per (column, bin), the count over all rows
    (*before*) and over surviving rows (*after*) — the paper's "two
    frequency distributions per column" at the cost of one. ``dropped`` is
    a boolean SQL predicate; NaN and ±inf cells fall in no bin.
    """
    usable = [
        c for c in num_cols
        if minmax.get(c, (None, None))[0] is not None and minmax[c][1] is not None
    ]
    out: dict[str, pd.DataFrame] = {}
    if not usable:
        return out
    agg = (
        df.selectExpr(
            f"CAST({dropped} AS INT) AS dropped",
            compute.stacked_bins_sql(df, usable, minmax, bins),
        )
        .where("bin IS NOT NULL")
        .groupBy("ci", "bin")
        .agg(F.expr("count(1) AS before"), F.expr("sum(1 - dropped) AS after"))
        .toPandas()
    )
    for i, c in enumerate(usable):
        mn, mx = float(minmax[c][0]), float(minmax[c][1])
        n_bins = bins if mx > mn else 1
        frame = pd.DataFrame(
            {
                "bin": np.arange(n_bins),
                "before": np.zeros(n_bins, dtype="int64"),
                "after": np.zeros(n_bins, dtype="int64"),
            }
        )
        sub = agg[agg["ci"] == i]
        idx = sub["bin"].to_numpy(dtype="int64")
        frame.loc[idx, "before"] = sub["before"].to_numpy(dtype="int64")
        frame.loc[idx, "after"] = sub["after"].to_numpy(dtype="int64")
        frame.attrs["edges"] = (
            np.linspace(mn, mx, bins + 1) if mx > mn else np.array([mn, mn])
        )
        out[c] = frame
    return out


def _before_after_categorical(
    df: DataFrame, cat_cols: list[str], dropped: str, limit: int
) -> dict[str, pd.DataFrame]:
    """Value counts of each categorical column before/after dropping, fused."""
    out: dict[str, pd.DataFrame] = {}
    if not cat_cols:
        return out
    pdf = (
        df.selectExpr(
            f"CAST({dropped} AS INT) AS dropped", compute.stacked_strings_sql(cat_cols)
        )
        .where("value IS NOT NULL")
        .groupBy("ci", "value")
        .agg(F.expr("count(1) AS before"), F.expr("sum(1 - dropped) AS after"))
        .selectExpr(
            "*", "row_number() OVER (PARTITION BY ci ORDER BY before DESC, value ASC) AS rn"
        )
        .where(f"rn <= {int(limit)}")
        .toPandas()
    )
    for i, c in enumerate(cat_cols):
        sub = (
            pdf[pdf["ci"] == i]
            .sort_values(["before", "value"], ascending=[False, True])
            .reset_index(drop=True)[["value", "before", "after"]]
        )
        out[c] = sub
    return out


def compute_missing_col(df: DataFrame, col1: str, cfg: Config) -> Intermediates:
    """``plot_missing(df, c1)`` — impact of dropping ``c1``-missing rows."""
    types = detect_types(df)
    if col1 not in df.columns:
        raise KeyError(col1)
    others = [c for c in df.columns if c != col1]
    num_cols = [c for c in others if types[c] is EDAType.NUMERICAL]
    cat_cols = [c for c in others if types[c] is EDAType.CATEGORICAL]

    stats = compute.basic_stats_pass(df, types)
    nrows = int(stats["__table__"]["nrows"])
    n_missing = int(stats[col1]["nmissing"])
    minmax = {c: (stats[c].get("min"), stats[c].get("max")) for c in num_cols}
    dropped = missing_sql(col1, dict(df.dtypes)[col1])

    inter = Intermediates(task=f"missing:{col1}")
    inter["col"] = col1
    inter["nrows"] = nrows
    inter["n_dropped"] = n_missing
    inter["numeric"] = _before_after_numeric(df, num_cols, minmax, dropped, cfg["hist.bins"])
    inter["categorical"] = _before_after_categorical(
        df, cat_cols, dropped, cfg["bar.top_n"] * 10
    )
    # Distribution-shift score per column (KS over binned histograms for
    # numeric, total-variation over value counts for categorical) feeds the
    # 'similar distribution' insight.
    shift: dict[str, float] = {}
    for c, frame in inter["numeric"].items():
        before, after = frame["before"].to_numpy("float64"), frame["after"].to_numpy("float64")
        if before.sum() and after.sum():
            shift[c] = float(
                np.abs(np.cumsum(before) / before.sum() - np.cumsum(after) / after.sum()).max()
            )
    for c, frame in inter["categorical"].items():
        b, a = frame["before"].to_numpy("float64"), frame["after"].to_numpy("float64")
        if b.sum() and a.sum():
            shift[c] = float(0.5 * np.abs(b / b.sum() - a / a.sum()).sum())
    inter["shift"] = shift
    return inter


def compute_missing_pair(df: DataFrame, col1: str, col2: str, cfg: Config) -> Intermediates:
    """``plot_missing(df, c1, c2)`` — impact of dropping on one column."""
    types = detect_types(df)
    dtypes = dict(df.dtypes)
    dropped = missing_sql(col1, dtypes[col1])
    inter = Intermediates(task=f"missing:{col1}:{col2}")
    inter["cols"] = (col1, col2)
    t2 = types[col2]
    if t2 is EDAType.NUMERICAL:
        y = numeric_sql(col2, dtypes[col2])
        mm_row = df.selectExpr(f"min({y}) AS mn", f"max({y}) AS mx").collect()[0]
        minmax = {col2: (mm_row["mn"], mm_row["mx"])}
        hists = _before_after_numeric(df, [col2], minmax, dropped, cfg["hist.bins"])
        frame = hists.get(col2, pd.DataFrame(columns=["bin", "before", "after"]))
        inter["hist"] = frame
        b = frame["before"].to_numpy("float64") if len(frame) else np.zeros(0)
        a = frame["after"].to_numpy("float64") if len(frame) else np.zeros(0)
        inter["pdf"] = {
            "before": b / b.sum() if b.sum() else b,
            "after": a / a.sum() if a.sum() else a,
        }
        inter["cdf"] = {
            "before": np.cumsum(inter["pdf"]["before"]),
            "after": np.cumsum(inter["pdf"]["after"]),
        }
        quartiles = "array(0.25D, 0.5D, 0.75D), 10000"
        box_row = df.selectExpr(f"{y} AS y", f"{dropped} AS d").selectExpr(
            f"percentile_approx(y, {quartiles}) AS q_before",
            f"percentile_approx(CASE WHEN NOT d THEN y END, {quartiles}) AS q_after",
        ).collect()[0]
        inter["box"] = {
            "before": dict(zip(("q1", "median", "q3"), box_row["q_before"] or (np.nan,) * 3)),
            "after": dict(zip(("q1", "median", "q3"), box_row["q_after"] or (np.nan,) * 3)),
        }
        if b.sum() and a.sum():
            inter["shift"] = float(np.abs(inter["cdf"]["before"] - inter["cdf"]["after"]).max())
        else:
            inter["shift"] = float("nan")
    elif t2 is EDAType.CATEGORICAL:
        bars = _before_after_categorical(df, [col2], dropped, cfg["bar.top_n"] * 10)
        frame = bars[col2]
        inter["bar"] = frame
        b, a = frame["before"].to_numpy("float64"), frame["after"].to_numpy("float64")
        inter["shift"] = (
            float(0.5 * np.abs(b / b.sum() - a / a.sum()).sum()) if b.sum() and a.sum() else float("nan")
        )
    else:
        raise TypeError("plot_missing on datetime target columns is out of scope")
    return inter


def plot_missing(
    df: DataFrame,
    col1: str | None = None,
    col2: str | None = None,
    config: dict | None = None,
) -> EDAResult:
    """Task-centric missing-value analysis (paper §3.2)."""
    cfg = Config.from_user(config)
    if col1 is None and col2 is not None:
        raise ValueError("col1 must be given when col2 is")
    if col1 is None:
        inter = compute_missing(df, cfg)
    elif col2 is None:
        inter = compute_missing_col(df, col1, cfg)
    else:
        inter = compute_missing_pair(df, col1, col2, cfg)
    insights = missing_insights(inter, cfg)
    return EDAResult(
        task=inter.task, intermediates=inter, insights=insights,
        html=render(inter, insights, cfg),
    )
