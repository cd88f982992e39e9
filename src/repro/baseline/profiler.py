"""Pandas-profiling-style **eager** profiler — the Table-2 comparator.

Pandas-profiling (paper §1, §5.1, §6.1) computes its report section by
section and column by column, each statistic family materialized eagerly
with no cross-operation optimization — the paper's explanation for why it
is 4–20× slower than the fused pipeline. This baseline reproduces that
*computation structure* over the same Spark substrate:

* one action per column per statistic family (count, missing, distinct,
  describe-moments, quantiles, histogram **with its own min/max pass**,
  value counts);
* one action per numeric **pair** for the Interactions section (as PP draws
  a scatter/hexbin per pair from the full frame);
* one full pass per correlation method (Pearson; Spearman with one extra
  eager rank job per column; Kendall per pair on its own sample);
* separate passes for each missing-value visualization.

PhiK / Recoded / Cramér's V are excluded, matching the paper's benchmark
configuration ("with PhiK, Recoded and Cramer's V correlations disabled").

The produced numbers are the *same intermediates* the fused system emits
(tests assert agreement); only the execution strategy differs. That makes
the Table-2 comparison an apples-to-apples measurement of fusion.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.config import Config
from repro.core.correlation import kendall_matrix
from repro.core.dtypes import EDAType, detect_types
from repro.core.intermediates import Intermediates
from repro.substrate import numutils
from repro.substrate.sparkutils import bin_sql, missing_count_sql, numeric_sql, quote


def _numeric_clean(df: DataFrame, col: str) -> DataFrame:
    """``col`` cleaned (``numeric_sql``) as the single column ``v``."""
    return df.selectExpr(f"{numeric_sql(col, dict(df.dtypes)[col])} AS v")


def _nmissing(df: DataFrame, col: str) -> int:
    """Missing cells of ``col``: its own action, as PP computes it."""
    return df.selectExpr(missing_count_sql(col, dict(df.dtypes)[col])).collect()[0][0]


def _profile_numeric_column(df: DataFrame, col: str, cfg: Config) -> dict[str, object]:
    """Eager per-column profile: each family is its own Spark action."""
    proj = _numeric_clean(df, col)
    v = F.col("v")
    stats: dict[str, object] = {}
    stats["count"] = proj.where(v.isNotNull()).count()                             # action 1
    stats["nmissing"] = _nmissing(df, col)                                         # action 2
    stats["distinct"] = proj.distinct().count()                                    # action 3
    row = proj.agg(F.min(v), F.max(v)).collect()[0]                                # action 4
    stats["min"], stats["max"] = row[0], row[1]
    row = proj.agg(F.mean(v), F.stddev(v), F.sum(v)).collect()[0]                  # action 5
    stats["mean"], stats["std"], stats["sum"] = row[0], row[1], row[2]
    row = proj.agg(F.skewness(v), F.kurtosis(v)).collect()[0]                      # action 6
    stats["skew"], stats["kurt"] = row[0], row[1]
    row = proj.agg(
        F.sum((v == 0).cast("long")), F.sum((v < 0).cast("long"))
    ).collect()[0]                                                                 # action 7
    stats["nzero"], stats["nnegative"] = row[0], row[1]
    qs = proj.approxQuantile("v", [0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99], 0.001)  # action 8
    stats["quantiles"] = dict(zip((0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99), qs))
    # PP's variables section also builds a "common values" table (value
    # counts of the *numeric* column) and "minimum/maximum 10 values"
    # tables — each its own eager computation in PP, hence own actions.
    nn = proj.where(v.isNotNull())
    common = (
        nn.groupBy("v").count()
        .orderBy(F.desc("count"), F.asc("v")).limit(10).toPandas()             # action 9
    )
    stats["common_values"] = pd.Series(
        common["count"].to_numpy("int64"), index=common["v"].to_numpy(object)
    )
    stats["min_values"] = [r[0] for r in nn.orderBy(F.asc("v")).limit(10).collect()]   # action 10
    stats["max_values"] = [r[0] for r in nn.orderBy(F.desc("v")).limit(10).collect()]  # action 11
    # histogram: its own min/max pass then its own binning pass (PP's
    # numpy.histogram scans once for the range and once for the bins).
    mn, mx = stats["min"], stats["max"]
    bins = cfg["hist.bins"]
    if mn is not None and mx is not None and mx > mn:
        counts_pdf = (
            proj.selectExpr(f"{bin_sql('v', mn, mx, bins)} AS bin")
            .where("bin IS NOT NULL")
            .groupBy("bin")
            .count()
            .toPandas()                                                            # action 12
        )
        counts = np.zeros(bins, dtype="int64")
        counts[counts_pdf["bin"].to_numpy("int64")] = counts_pdf["count"].to_numpy("int64")
        stats["hist"] = (counts, np.linspace(mn, mx, bins + 1))
    else:
        stats["hist"] = (np.zeros(0, dtype="int64"), np.zeros(0))
    return stats


def _profile_categorical_column(df: DataFrame, col: str, cfg: Config) -> dict[str, object]:
    proj = df.selectExpr(f"CAST({quote(col)} AS STRING) AS v")
    nn = proj.where(F.col("v").isNotNull())
    stats: dict[str, object] = {}
    stats["count"] = nn.count()                                                    # action 1
    stats["nmissing"] = _nmissing(df, col)                                         # action 2
    stats["distinct"] = nn.distinct().count()                                      # action 3
    ln = F.length("v")
    row = proj.agg(F.min(ln), F.max(ln), F.mean(ln)).collect()[0]                  # action 4
    stats["len_min"], stats["len_max"], stats["len_mean"] = row[0], row[1], row[2]
    vc = (
        nn.groupBy("v")
        .count()
        .orderBy(F.desc("count"), F.asc("v"))
        .limit(1000)
        .toPandas()                                                                # action 5
    )
    stats["value_counts"] = pd.Series(
        vc["count"].to_numpy("int64"), index=vc["v"].to_numpy(object), name=col
    )
    return stats


def eager_profile_report(df: DataFrame, config: dict | None = None) -> Intermediates:
    """Full eager profile report (Pandas-profiling computation structure).

    Returns the same intermediates shape as ``core.report.compute_report``
    (modulo layout) so correctness can be cross-checked against the fused
    pipeline; wall-clock difference is the Table-2 measurement.
    """
    cfg = Config.from_user(config)
    types = detect_types(df)
    num_cols = [c for c, t in types.items() if t is EDAType.NUMERICAL]
    cat_cols = [c for c, t in types.items() if t is EDAType.CATEGORICAL]

    inter = Intermediates(task="baseline_report")
    nrows = df.count()                                                             # overview action
    n_dup = nrows - df.distinct().count()                                          # overview action
    inter["dataset_stats"] = {
        "nrows": nrows,
        "ncols": len(df.columns),
        "n_numerical": len(num_cols),
        "n_categorical": len(cat_cols),
        "n_duplicate_rows": n_dup,
    }

    variables: dict[str, dict[str, object]] = {}
    for c in num_cols:
        variables[c] = _profile_numeric_column(df, c, cfg)
    for c in cat_cols:
        variables[c] = _profile_categorical_column(df, c, cfg)
    for c in df.columns:
        if c not in variables:  # datetime columns: min/max only
            row = df.selectExpr(f"min({quote(c)})", f"max({quote(c)})").collect()[0]
            variables[c] = {"min": row[0], "max": row[1]}
    inter["variables"] = variables
    miss_bar = pd.Series({c: int(variables[c].get("nmissing") or 0) for c in df.columns})

    # Interactions: one sampled collect per numeric pair (PP draws a plot
    # per pair; each is its own eager computation).
    interactions: dict[tuple[str, str], pd.DataFrame] = {}
    for i, a in enumerate(num_cols):
        for b in num_cols[i + 1:]:
            pair_pdf = (
                df.selectExpr(f"CAST({quote(a)} AS DOUBLE) AS x", f"CAST({quote(b)} AS DOUBLE) AS y")
                .dropna()
                .sample(fraction=min(1.0, 10_000 / max(nrows, 1)), seed=cfg["compute.seed"])
                .toPandas()                                                        # one action per pair
            )
            interactions[(a, b)] = numutils.hexbin_counts(
                pair_pdf["x"].to_numpy(), pair_pdf["y"].to_numpy(), cfg["hexbin.gridsize"]
            )
    inter["interactions"] = interactions

    # Correlations: one full, *separate* pass per method (PP calls
    # pandas.corr once per method — three independent scans, none shared
    # with the per-column work above). Kendall runs the same exact tau-b
    # kernel as the fused system, on its own sampled collect.
    from repro.core.correlation import pearson_matrix, spearman_matrix

    corr: dict[str, pd.DataFrame] = {}
    methods = cfg["correlation.methods"]
    if num_cols and "pearson" in methods:
        corr["pearson"] = pearson_matrix(df, num_cols)
    if num_cols and "spearman" in methods:
        corr["spearman"] = spearman_matrix(df, num_cols)
    if num_cols and "kendall" in methods:
        ksample = (
            df.selectExpr(*[f"CAST({quote(c)} AS DOUBLE) AS {quote(c)}" for c in num_cols])
            .sample(fraction=min(1.0, cfg["kendall.sample_size"] / max(nrows, 1) * 1.1), seed=cfg["compute.seed"])
            .limit(cfg["kendall.sample_size"])
            .toPandas()
        )
        corr["kendall"] = kendall_matrix(ksample, num_cols)
    inter["correlations"] = corr

    # Missing section: a separate pass per visualization (bar already
    # computed per column above; spectrum, heatmap, dendrogram each rescan).
    from repro.core.missing import (
        nullity_correlation,
        nullity_dendrogram,
        spectrum_pass,
    )

    inter["missing"] = {
        "bar": miss_bar,
        "spectrum": spectrum_pass(df, cfg["spectrum.bins"]),
        "nullity_corr": nullity_correlation(df, miss_bar, nrows),
    }
    inter["missing"]["dendrogram"] = nullity_dendrogram(inter["missing"]["nullity_corr"])
    return inter
