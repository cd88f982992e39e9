"""Univariate analysis — ``plot(df, col)`` (paper Figure 2, row 2).

Numerical column → column statistics, histogram, KDE plot, normal Q-Q
plot, box plot. Categorical column → column statistics, bar chart, pie
chart, word cloud (word frequencies) and word-frequency table.

Each column type has two halves (the paper's §5.2 two-phase split):

* a Spark phase, ``compute_numerical`` / ``compute_categorical``, that
  runs the fused kernels of ``core.compute`` restricted to one column:
  the stats pass with the Q-Q quantile sketch, the histogram and the
  sample for numericals; the stats pass, value counts and words for
  categoricals;
* a driver-side phase, ``shape_numerical`` / ``shape_categorical``, that
  turns those reduced pieces into the column's intermediates. It is the
  one home of the KDE, Q-Q, box/outlier, bar and pie rules;
  ``report.compute_report`` calls it with the pieces of its own fused
  passes, so a report's column section is what ``plot(df, col)`` returns.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core import compute
from repro.core.config import Config
from repro.core.dtypes import EDAType, detect_type
from repro.core.intermediates import Intermediates
from repro.substrate import numutils
from repro.substrate.sparkutils import missing_sql, quote


def qq_probs(cfg: Config) -> tuple[float, ...]:
    """Probabilities of the ``qq.points`` points of the normal Q-Q plot."""
    n = cfg["qq.points"]
    return tuple((i + 0.5) / n for i in range(n))


def sketch_probs(cfg: Config) -> tuple[float, ...]:
    """Every probability the stats pass sketches for a numerical column.

    One quantile sketch serves the stats table, the box plot and the Q-Q
    plot (paper §4.2: quantiles computed once, distributed to each viz).
    """
    return tuple(sorted(set(compute.STATS_QUANTILES) | set(qq_probs(cfg))))


def box_plot_stats(q: dict[float, float], whisker: float) -> dict[str, float]:
    """Box-plot geometry from the shared quantile dict (no extra pass)."""
    q1, q2, q3 = q[0.25], q[0.5], q[0.75]
    iqr = q3 - q1
    return {
        "q1": q1,
        "median": q2,
        "q3": q3,
        "iqr": iqr,
        "lower_whisker": q1 - whisker * iqr,
        "upper_whisker": q3 + whisker * iqr,
    }


def shape_numerical(
    col: str,
    stats: dict[str, object],
    hist: tuple[np.ndarray, np.ndarray],
    sample: pd.Series,
    nrows: int,
    cfg: Config,
) -> Intermediates:
    """Intermediates of a numerical column from its reduced pieces.

    ``stats`` is the column's entry of ``basic_stats_pass`` run with
    ``quantile_probs=sketch_probs(cfg)``, ``hist`` its ``histogram_pass``
    entry, ``sample`` its non-missing sampled values and ``nrows`` the
    table's row count.
    """
    probs = qq_probs(cfg)
    quantiles = stats["quantiles"]
    counts, edges = hist

    mn, mx = stats["min"], stats["max"]
    if mn is not None and mx is not None and np.isfinite([mn, mx]).all():
        grid = np.linspace(float(mn), float(mx), cfg["kde.grid_points"])
        kde = numutils.gaussian_kde(sample.to_numpy(), grid)
    else:
        grid = np.zeros(0)
        kde = np.zeros(0)

    mean = stats.get("mean")
    std = stats.get("std")
    theo = numutils.norm_ppf(np.array(probs))
    if mean is not None and std not in (None, 0) and std == std:
        theoretical = float(mean) + float(std) * theo
    else:
        theoretical = np.full(len(probs), np.nan)
    sample_q = np.array([quantiles[p] for p in probs], dtype="float64")

    if all(quantiles.get(p) is not None for p in (0.25, 0.5, 0.75)):
        box = box_plot_stats(quantiles, cfg["box.whisker"])
    else:  # all-null column: no quartiles to build the box from
        box = {k: float("nan") for k in ("q1", "median", "q3", "iqr", "lower_whisker", "upper_whisker")}
    sv = sample.to_numpy()
    n_out = int(((sv < box["lower_whisker"]) | (sv > box["upper_whisker"])).sum())
    # outlier count estimated from the sample, scaled to the column size —
    # keeps univariate analysis at one scan + one sample like the paper's
    # interactive target; the histogram shows exact tail mass anyway.
    scale = max(int(stats["count"]), 1) / max(len(sv), 1)
    box["n_outliers_est"] = int(round(n_out * scale))

    inter = Intermediates(task=f"univariate:{col}")
    inter["col"] = col
    inter["type"] = EDAType.NUMERICAL.value
    inter["nrows"] = nrows
    inter["stats"] = {**stats, "quantiles": {p: quantiles[p] for p in compute.STATS_QUANTILES}}
    inter["hist"] = {"counts": counts, "edges": edges}
    inter["kde"] = {"grid": grid, "density": kde}
    inter["qq"] = {"theoretical": theoretical, "sample": sample_q}
    inter["box"] = box
    return inter


def compute_numerical(df: DataFrame, col: str, cfg: Config) -> Intermediates:
    """Intermediates for univariate analysis of a numerical column.

    Three Spark passes restricted to ``col`` (stats with the quantile
    sketch, histogram, sample), then ``shape_numerical``.
    """
    types = {col: EDAType.NUMERICAL}
    table = compute.basic_stats_pass(df, types, quantile_probs=sketch_probs(cfg))
    stats = table[col]
    hist = compute.histogram_pass(
        df, [col], types, {col: (stats["min"], stats["max"])}, cfg["hist.bins"]
    )[col]
    sample = compute.sample_pass(
        df.where(f"NOT {missing_sql(col, dict(df.dtypes)[col])}"),
        [col],
        cfg["kde.sample_size"],
        cfg["compute.seed"],
        total_rows=int(stats["count"]),
    )[col].astype("float64")
    return shape_numerical(col, stats, hist, sample, int(table["__table__"]["nrows"]), cfg)


def word_frequency_pass(df: DataFrame, col: str, top_n: int) -> Intermediates:
    """Word tokenization + counts for the word cloud / frequency table.

    Lower-cases, splits on non-alphanumerics, explodes, and aggregates in
    one shuffle; totals are computed from the persisted aggregate so the
    raw column is scanned once.
    """
    words = df.selectExpr(
        f"explode(split(lower(CAST({quote(col)} AS STRING)), '[^0-9a-zA-Z]+')) AS word"
    ).where("word != ''")
    counts = words.groupBy("word").count()
    counts.persist()
    try:
        top = (
            counts.orderBy(F.desc("count"), F.asc("word")).limit(top_n).toPandas()
        )
        totals = counts.agg(
            F.count(F.lit(1)).alias("n_distinct_words"),
            F.sum("count").alias("n_words"),
            (F.sum(F.length("word") * F.col("count")) / F.sum("count")).alias(
                "mean_word_length"
            ),
        ).collect()[0]
    finally:
        counts.unpersist()
    inter = Intermediates(task=f"words:{col}")
    inter["word_counts"] = pd.Series(
        top["count"].to_numpy(dtype="int64"), index=top["word"].to_numpy(object)
    )
    inter["n_words"] = int(totals["n_words"] or 0)
    inter["n_distinct_words"] = int(totals["n_distinct_words"] or 0)
    inter["mean_word_length"] = float(totals["mean_word_length"] or 0.0)
    return inter


def shape_categorical(
    col: str,
    stats: dict[str, object],
    value_counts: pd.Series,
    nrows: int,
    cfg: Config,
) -> Intermediates:
    """Intermediates of a categorical column from its reduced pieces.

    ``stats`` is the column's ``basic_stats_pass`` entry, ``value_counts``
    its ``value_counts_pass`` series (exact ``n_distinct`` and ``n_total``
    in its ``attrs``) and ``nrows`` the table's row count.
    """
    n_total = value_counts.attrs["n_total"]
    inter = Intermediates(task=f"univariate:{col}")
    inter["col"] = col
    inter["type"] = EDAType.CATEGORICAL.value
    inter["nrows"] = nrows
    inter["stats"] = {
        **stats,
        "n_distinct_exact": value_counts.attrs["n_distinct"],
        "n_total": n_total,
    }
    inter["bar"] = value_counts.head(cfg["bar.top_n"])
    pie = value_counts.head(cfg["pie.top_n"]).astype("float64")
    other = float(n_total - pie.sum())
    if other > 0:
        pie = pd.concat([pie, pd.Series({"(other)": other})])
    inter["pie"] = pie
    return inter


def compute_categorical(df: DataFrame, col: str, cfg: Config) -> Intermediates:
    """Intermediates for univariate analysis of a categorical column.

    The stats and value-count passes restricted to ``col``, then
    ``shape_categorical``, plus the word frequencies.
    """
    table = compute.basic_stats_pass(df, {col: EDAType.CATEGORICAL})
    value_counts = compute.value_counts_pass(df, [col])[col]
    inter = shape_categorical(col, table[col], value_counts, int(table["__table__"]["nrows"]), cfg)
    inter["words"] = dict(word_frequency_pass(df, col, cfg["wordfreq.top_n"]).data)
    return inter


def compute_univariate(df: DataFrame, col: str, cfg: Config) -> Intermediates:
    """Dispatch on the detected EDA type (paper Figure 2 mapping rules)."""
    t = detect_type(df, col)
    if t is EDAType.NUMERICAL:
        return compute_numerical(df, col, cfg)
    if t is EDAType.CATEGORICAL:
        return compute_categorical(df, col, cfg)
    raise TypeError(
        f"univariate analysis of {t.value} column {col!r} is out of scope "
        "(the paper lists time-series analysis as future work)"
    )
