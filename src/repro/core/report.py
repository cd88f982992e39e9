"""``create_report(df)`` — the profile-report functionality benchmarked in
the paper's §6 (Table 2, Figure 6).

The report covers the same five sections as Pandas-profiling (Overview,
Variables, Interactions, Correlations, Missing Values) but computes them
through the fused pipeline: a fixed, small number of Spark passes
**independent of the column count**, with every shared intermediate
computed exactly once. The report is composed from the task functions
rather than re-implementing them:

* ``overview.compute_overview`` runs the overview's four passes and gives
  the Overview section:

  1. ``basic_stats_pass``     all stats of all columns, plus the quantile
                              sketch shared by the stats table, box and
                              Q-Q plots (1 scan)
  2. ``histogram_pass``       all numeric histograms (1 stacked shuffle;
                              bin edges from pass 1, the paper's
                              precompute-metadata stage)
  3. ``value_counts_pass``    all categorical bars and exact distinct
                              counts (1 stacked shuffle, 1 action)
  4. ``duplicate_rows_pass``  one distinct count

* then the report's own passes:

  5. ``sample_pass``          one seeded numeric sample shared by KDE,
                              Kendall and the hexbin interactions
  6. ``pearson_matrix``       one co-moment scan over the cleaned numeric
                              columns and the missing indicators of the
                              partially-missing columns: the numeric block
                              is the Pearson matrix, the indicator block
                              the nullity heatmap
  7. ``spearman_matrix``      ranks on the driver below a cell budget,
                              else a rank projection plus the same
                              co-moment scan
  8. ``spectrum_pass``        missing spectrum: a partition-size query,
                              then one ``groupBy(segment)`` with the
                              partition offsets inlined (no window, no
                              join)

Everything else is driver-side pandas/numpy over the reduced
intermediates — the paper's Dask-Computation / Pandas-Computation split
(§5.2). Each column section is built by ``univariate.shape_numerical`` /
``shape_categorical``, the same code ``plot(df, col)`` runs, so a
section equals that call's intermediates (less the word frequencies); the
interactions are ``numutils.hexbin_counts`` over the shared sample. A
report runs 17 Spark jobs on the titanic and adult shapes, and on titanic
with every column duplicated.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.core import compute
from repro.core.config import Config
from repro.core.correlation import kendall_matrix, pearson_matrix, spearman_matrix
from repro.core.dtypes import EDAType
from repro.core.insights import (
    correlation_insights,
    dataset_insights,
    column_insights,
    missing_insights,
)
from repro.core.intermediates import EDAResult, Insight, Intermediates
from repro.core.missing import (
    empty_nullity,
    nullity_dendrogram,
    partially_missing,
    spectrum_pass,
)
from repro.core.overview import compute_overview
from repro.core.render import render_report, stats_table, svg_bars, svg_line
from repro.core.univariate import shape_categorical, shape_numerical, sketch_probs
from repro.substrate import numutils
from repro.substrate.sparkutils import missing_sql, numeric_sql


def _shared_comoments(df: DataFrame, num_cols: list[str], null_cols: list[str]) -> np.ndarray:
    """Pearson matrix over ``num_cols`` followed by the 0/1 missing
    indicators of ``null_cols``, from one co-moment scan.

    The numeric block is the report's Pearson matrix and the indicator
    block its nullity heatmap. The projection uses positional names, so a
    column and its indicator stay apart.
    """
    dtypes = dict(df.dtypes)
    exprs = [numeric_sql(c, dtypes[c]) for c in num_cols] + [
        f"CAST({missing_sql(c, dtypes[c])} AS DOUBLE)" for c in null_cols
    ]
    if not exprs:
        return np.zeros((0, 0))
    names = [f"_{i}" for i in range(len(exprs))]
    proj = df.selectExpr(*[f"{e} AS {n}" for e, n in zip(exprs, names)])
    return pearson_matrix(proj, names).to_numpy()


def compute_report(df: DataFrame, cfg: Config) -> Intermediates:
    """All report intermediates through the fused pipeline (see module doc)."""
    # -- Spark Computation phase (fused passes) --------------------------
    overview = compute_overview(df, cfg, quantile_probs=sketch_probs(cfg))
    types = overview["types"]  # EDAType.value strings; EDAType is a str enum, so == matches
    num_cols = [c for c, t in types.items() if t == EDAType.NUMERICAL]
    col_stats = overview["col_stats"]
    nrows = int(overview["dataset_stats"]["nrows"])

    sample = (
        compute.sample_pass(
            df, num_cols,
            max(cfg["kde.sample_size"], cfg["kendall.sample_size"]),
            cfg["compute.seed"], total_rows=nrows,
        ).astype("float64")
        if num_cols else pd.DataFrame()
    )

    miss_counts = pd.Series({c: int(s["nmissing"]) for c, s in col_stats.items()})
    null_cols = partially_missing(miss_counts, nrows)
    methods = cfg["correlation.methods"]
    pearson_cols = num_cols if "pearson" in methods else []
    heatmap_cols = null_cols if len(null_cols) >= 2 else []
    comoments = _shared_comoments(df, pearson_cols, heatmap_cols)
    p = len(pearson_cols)

    corr: dict[str, pd.DataFrame] = {}
    if "pearson" in methods:
        corr["pearson"] = (
            pd.DataFrame(comoments[:p, :p], index=num_cols, columns=num_cols)
            if num_cols else pd.DataFrame()
        )
    if "spearman" in methods:
        corr["spearman"] = spearman_matrix(df, num_cols, nrows=nrows)
    if "kendall" in methods:
        ksample = sample.head(cfg["kendall.sample_size"]) if len(sample) else sample
        corr["kendall"] = kendall_matrix(ksample, num_cols)

    spectrum = spectrum_pass(df, cfg["spectrum.bins"])
    nullity = (
        pd.DataFrame(comoments[p:, p:], index=heatmap_cols, columns=heatmap_cols)
        if heatmap_cols else empty_nullity(null_cols)
    )
    dendrogram = nullity_dendrogram(nullity)

    # -- pandas Computation phase (driver-side shaping) ------------------
    variables: dict[str, Intermediates] = {}
    for c in df.columns:
        if types[c] == EDAType.NUMERICAL:
            col_sample = sample[c].dropna().head(cfg["kde.sample_size"])
            variables[c] = shape_numerical(
                c, col_stats[c], overview["hists"][c], col_sample, nrows, cfg
            )
        elif types[c] == EDAType.CATEGORICAL:
            variables[c] = shape_categorical(
                c, col_stats[c], overview["value_counts"][c], nrows, cfg
            )
        else:  # datetime: statistics only
            sub = Intermediates(task=f"univariate:{c}")
            sub["col"] = c
            sub["type"] = types[c]
            sub["nrows"] = nrows
            sub["stats"] = dict(col_stats[c])
            variables[c] = sub

    # Interactions: hexbin per numeric pair, derived from the one shared
    # sample on the driver (documented substitution — PP recomputes each
    # pair from the full frame, our baseline does too).
    interactions = {
        (a, b): numutils.hexbin_counts(
            sample[a].to_numpy(), sample[b].to_numpy(), cfg["hexbin.gridsize"]
        )
        for i, a in enumerate(num_cols)
        for b in num_cols[i + 1:]
    }

    inter = Intermediates(task="report")
    inter["types"] = types
    inter["dataset_stats"] = overview["dataset_stats"]
    inter["variables"] = variables
    inter["interactions"] = interactions
    inter["correlations"] = corr
    inter["missing"] = {
        "bar": miss_counts,
        "missing_rate": (miss_counts / nrows) if nrows else miss_counts.astype("float64"),
        "spectrum": spectrum,
        "nullity_corr": nullity,
        "dendrogram": dendrogram,
    }
    inter["value_counts"] = overview["value_counts"]
    return inter


def report_insights(inter: Intermediates, cfg: Config) -> list[Insight]:
    out = dataset_insights(inter["dataset_stats"], cfg)
    nrows = int(inter["dataset_stats"]["nrows"])
    for c, sub in inter["variables"].items():
        hist = sub.get("hist")
        out += column_insights(
            c, sub["stats"], cfg, nrows,
            hist_counts=hist["counts"] if hist else None,
            value_counts=inter["value_counts"].get(c),
        )
    corr_inter = Intermediates(task="correlation")
    for m, mat in inter["correlations"].items():
        corr_inter[m] = mat
    out += correlation_insights(corr_inter, cfg)
    miss_inter = Intermediates(task="missing")
    miss_inter["missing_rate"] = inter["missing"]["missing_rate"]
    out += missing_insights(miss_inter, cfg)
    return out


def _render_sections(inter: Intermediates, cfg: Config) -> dict[str, str]:
    w, h = cfg["render.width"], cfg["render.height"]
    sections: dict[str, str] = {"Overview": stats_table(inter["dataset_stats"])}
    var_html = []
    for c, sub in inter["variables"].items():
        parts = [f"<h3>{c}</h3>", stats_table(sub["stats"])]
        if "hist" in sub:
            parts.append(svg_bars(sub["hist"]["counts"], w, h))
        if "kde" in sub:
            parts.append(svg_line(sub["kde"]["grid"], sub["kde"]["density"], w, h))
        if "bar" in sub:
            bar = sub["bar"]
            parts.append(svg_bars(bar, w, h, [str(i) for i in bar.index]))
        var_html.append("".join(parts))
    sections["Variables"] = "".join(var_html)
    sections["Interactions"] = "".join(
        f"<h3>{a} × {b}</h3>" + grid.head(20).to_html(border=0)
        for (a, b), grid in inter["interactions"].items()
    )
    sections["Correlations"] = "".join(
        f"<h3>{m}</h3>" + mat.to_html(border=0, float_format=lambda v: f"{v:.3f}")
        for m, mat in inter["correlations"].items()
    )
    miss = inter["missing"]
    sections["Missing Values"] = (
        svg_bars(miss["bar"], w, h, [str(i) for i in miss["bar"].index])
        + miss["spectrum"].head(40).to_html(border=0)
        + miss["nullity_corr"].to_html(border=0)
    )
    return sections


def create_report(df: DataFrame, config: dict | None = None) -> EDAResult:
    """Generate the full profile report (the Table-2 benchmark subject)."""
    cfg = Config.from_user(config)
    inter = compute_report(df, cfg)
    insights = report_insights(inter, cfg)
    html = render_report(_render_sections(inter, cfg), insights, cfg)
    return EDAResult(task="report", intermediates=inter, insights=insights, html=html)
