"""Overview analysis — ``plot(df)`` (paper Figure 2, row 1).

Dataset statistics plus a histogram per numerical column and a bar chart
per categorical column, computed by four fused passes regardless of
column count:

1. ``basic_stats_pass``  — every per-column aggregate, one scan;
2. ``histogram_pass``    — all numeric histograms, one stacked shuffle
   (bin edges taken from pass 1, the "precompute metadata" stage);
3. ``value_counts_pass`` — all categorical bar charts with their exact
   distinct counts and totals, one action;
4. ``duplicate_rows_pass`` — one distinct count (dataset statistic).

Each pass may run more than one Spark job (shuffle stages and adaptive
query execution add jobs), but the count does not grow with the columns.
"""
from __future__ import annotations

from pyspark.sql import DataFrame

from repro.core import compute
from repro.core.config import Config
from repro.core.dtypes import EDAType, detect_types
from repro.core.intermediates import Intermediates


def duplicate_rows_pass(df: DataFrame, nrows: int | None = None) -> int:
    """Number of rows minus number of distinct rows.

    Uses ``distinct().count()`` rather than ``count_distinct(*cols)``: the
    aggregate form drops any tuple containing a NULL (SQL semantics) and
    would wildly overcount duplicates on holey data, while ``distinct``
    treats NULLs as equal — the pandas ``duplicated`` semantics profiling
    tools report. ``nrows`` (when known from a stats pass) avoids a second
    count job.
    """
    if nrows is None:
        nrows = df.count()
    return int(nrows) - df.distinct().count()


def compute_overview(
    df: DataFrame, cfg: Config, quantile_probs: tuple[float, ...] | None = None
) -> Intermediates:
    """Intermediates for the dataset overview.

    ``quantile_probs`` are sketched for every numerical column inside the
    stats pass and returned in its ``col_stats`` entry under
    ``"quantiles"``: ``plot(df)`` passes none, ``create_report`` the set
    its box and Q-Q plots need.
    """
    types = detect_types(df)
    num_cols = [c for c, t in types.items() if t is EDAType.NUMERICAL]
    cat_cols = [c for c, t in types.items() if t is EDAType.CATEGORICAL]

    stats = compute.basic_stats_pass(df, types, quantile_probs=quantile_probs)
    nrows = int(stats["__table__"]["nrows"])
    col_stats = {c: s for c, s in stats.items() if c != "__table__"}

    minmax = {c: (col_stats[c].get("min"), col_stats[c].get("max")) for c in num_cols}
    hists = compute.histogram_pass(df, num_cols, types, minmax, cfg["hist.bins"]) if num_cols else {}
    bars = compute.value_counts_pass(df, cat_cols) if cat_cols else {}

    n_cells = nrows * len(df.columns)
    n_missing = sum(int(s["nmissing"]) for s in col_stats.values())

    inter = Intermediates(task="overview")
    inter["types"] = {c: t.value for c, t in types.items()}
    inter["dataset_stats"] = {
        "nrows": nrows,
        "ncols": len(df.columns),
        "n_numerical": len(num_cols),
        "n_categorical": len(cat_cols),
        "n_datetime": sum(1 for t in types.values() if t is EDAType.DATETIME),
        "n_missing_cells": n_missing,
        "missing_pct": (n_missing / n_cells) if n_cells else 0.0,
        "n_duplicate_rows": duplicate_rows_pass(df, nrows),
    }
    inter["col_stats"] = col_stats
    inter["hists"] = hists
    inter["bars"] = {c: s.head(cfg["bar.top_n"]) for c, s in bars.items()}
    inter["value_counts"] = bars
    return inter
