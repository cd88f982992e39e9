"""Bivariate analysis — ``plot(df, col1, col2)`` (paper Figure 2, row 3).

Type-pair mapping rules:

* NN → scatter plot (seeded sample), hexbin plot (2-D binned groupBy),
  binned box plot (y-quantiles per x-bin).
* NC / CN → categorical box plot (y-quantiles per category), multi-line
  chart (histogram of the numeric per top category).
* CC → nested bar chart, stacked bar chart, heat map — all views of one
  contingency-table groupBy.

Every variant is one or two fused Spark jobs plus driver-side shaping.
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
from repro.substrate.sparkutils import bin_sql, missing_sql, quote


def _double(col: str) -> str:
    return f"CAST({quote(col)} AS DOUBLE)"


def _minmax(df: DataFrame, cols: list[str]) -> dict[str, tuple[float, float]]:
    """Single-job min/max of the given numeric columns (bin-edge metadata)."""
    exprs = []
    for c in cols:
        exprs += [f"min({_double(c)})", f"max({_double(c)})"]
    row = df.selectExpr(*[f"{e} AS _{i}" for i, e in enumerate(exprs)]).collect()[0]
    return {c: (row[2 * i], row[2 * i + 1]) for i, c in enumerate(cols)}


def _bin_sql(col: str, mn: float, mx: float, bins: int) -> str:
    return bin_sql(_double(col), mn, mx, bins)


def compute_num_num(df: DataFrame, x: str, y: str, cfg: Config) -> Intermediates:
    """NN pair: scatter sample + hexbin grid + binned box plot.

    Rows with a NULL or NaN in either column are dropped; ±inf stay and
    bound the bin edges.
    """
    dtypes = dict(df.dtypes)
    proj = df.where(f"NOT {missing_sql(x, dtypes[x])} AND NOT {missing_sql(y, dtypes[y])}")
    mm = _minmax(proj, [x, y])
    (x_mn, x_mx), (y_mn, y_mx) = mm[x], mm[y]

    inter = Intermediates(task=f"bivariate:{x}:{y}")
    inter["cols"] = (x, y)
    inter["kind"] = "NN"
    if x_mn is None or y_mn is None:
        inter["scatter"] = pd.DataFrame({x: [], y: []})
        inter["hexbin"] = pd.DataFrame(columns=["xbin", "ybin", "count"])
        inter["binned_box"] = pd.DataFrame()
        return inter

    sample = compute.sample_pass(
        proj, [x, y], cfg["scatter.sample_size"], cfg["compute.seed"]
    )
    inter["scatter"] = sample

    gs = cfg["hexbin.gridsize"]
    hexbin = (
        proj.selectExpr(
            f"{_bin_sql(x, x_mn, x_mx, gs)} AS xbin",
            f"{_bin_sql(y, y_mn, y_mx, gs)} AS ybin",
        )
        .groupBy("xbin", "ybin")
        .count()
        .toPandas()
    )
    hexbin.attrs["x_edges"] = np.linspace(x_mn, x_mx, gs + 1)
    hexbin.attrs["y_edges"] = np.linspace(y_mn, y_mx, gs + 1)
    inter["hexbin"] = hexbin

    nb = cfg["boxnum.bins"]
    box = (
        proj.selectExpr(f"{_bin_sql(x, x_mn, x_mx, nb)} AS xbin", f"{_double(y)} AS y")
        .groupBy("xbin")
        .agg(
            F.percentile_approx("y", [0.25, 0.5, 0.75]).alias("q"),
            F.min("y").alias("min"),
            F.max("y").alias("max"),
            F.count("y").alias("count"),
        )
        .orderBy("xbin")
        .toPandas()
    )
    if not box.empty:
        q = np.vstack(box["q"].to_numpy())
        box["q1"], box["median"], box["q3"] = q[:, 0], q[:, 1], q[:, 2]
        box = box.drop(columns=["q"])
    box.attrs["x_edges"] = np.linspace(x_mn, x_mx, nb + 1)
    inter["binned_box"] = box
    return inter


def compute_num_cat(df: DataFrame, num: str, cat: str, cfg: Config) -> Intermediates:
    """NC pair: per-category box plot + per-category histogram lines.

    The top ``line.ngroups`` categories (by frequency) are analyzed; the
    category ranking, box stats, and line histograms take three fused jobs.
    """
    dtypes = dict(df.dtypes)
    proj = df.where(
        f"NOT {missing_sql(num, dtypes[num])} AND {quote(cat)} IS NOT NULL"
    ).selectExpr(f"CAST({quote(cat)} AS STRING) AS g", f"{_double(num)} AS y")

    ngroups = cfg["line.ngroups"]
    top_pdf = (
        proj.groupBy("g").count().orderBy(F.desc("count"), F.asc("g")).limit(ngroups).toPandas()
    )
    top = top_pdf["g"].tolist()
    inter = Intermediates(task=f"bivariate:{num}:{cat}")
    inter["cols"] = (num, cat)
    inter["kind"] = "NC"
    inter["groups"] = top
    if not top:
        inter["cat_box"] = pd.DataFrame()
        inter["lines"] = {}
        return inter

    sub = proj.where(F.col("g").isin(top))
    box = (
        sub.groupBy("g")
        .agg(
            F.percentile_approx("y", [0.25, 0.5, 0.75]).alias("q"),
            F.min("y").alias("min"),
            F.max("y").alias("max"),
            F.count("y").alias("count"),
        )
        .toPandas()
    )
    q = np.vstack(box["q"].to_numpy())
    box["q1"], box["median"], box["q3"] = q[:, 0], q[:, 1], q[:, 2]
    box = box.drop(columns=["q"]).set_index("g").loc[top].reset_index()
    inter["cat_box"] = box

    y_mn = float(box["min"].min())
    y_mx = float(box["max"].max())
    bins = cfg["hist.bins"]
    if y_mx > y_mn:
        counts = (
            sub.selectExpr("g", f"{_bin_sql('y', y_mn, y_mx, bins)} AS bin")
            .groupBy("g", "bin")
            .count()
            .toPandas()
        )
    else:
        counts = pd.DataFrame({"g": [g for g in top], "bin": 0, "count": 0})
    edges = np.linspace(y_mn, y_mx, bins + 1) if y_mx > y_mn else np.array([y_mn, y_mn])
    lines: dict[str, np.ndarray] = {}
    for g in top:
        arr = np.zeros(max(bins, 1), dtype="int64")
        sel = counts[counts["g"] == g]
        arr[sel["bin"].to_numpy(dtype="int64")] = sel["count"].to_numpy(dtype="int64")
        lines[g] = arr
    inter["lines"] = lines
    inter["line_edges"] = edges
    return inter


def compute_cat_cat(df: DataFrame, x: str, y: str, cfg: Config) -> Intermediates:
    """CC pair: one contingency groupBy feeding nested/stacked/heatmap."""
    ct = (
        df.where(f"{quote(x)} IS NOT NULL AND {quote(y)} IS NOT NULL")
        .selectExpr(f"CAST({quote(x)} AS STRING) AS x", f"CAST({quote(y)} AS STRING) AS y")
        .groupBy("x", "y")
        .count()
        .toPandas()
    )
    inter = Intermediates(task=f"bivariate:{x}:{y}")
    inter["cols"] = (x, y)
    inter["kind"] = "CC"

    def _top(series_col: str, n: int) -> list[str]:
        return (
            ct.groupby(series_col)["count"].sum().sort_values(ascending=False).head(n).index.tolist()
        )

    n_nest, n_heat = cfg["nested.top_n"], cfg["heatmap.top_n"]
    tx, ty = _top("x", n_nest), _top("y", n_nest)
    nested = ct[ct["x"].isin(tx) & ct["y"].isin(ty)].copy()
    inter["nested_bar"] = nested.sort_values(["x", "y"]).reset_index(drop=True)
    inter["stacked_bar"] = (
        nested.pivot_table(index="x", columns="y", values="count", aggfunc="sum", fill_value=0)
        .loc[[v for v in tx if v in nested["x"].values]]
    )
    hx, hy = _top("x", n_heat), _top("y", n_heat)
    heat = ct[ct["x"].isin(hx) & ct["y"].isin(hy)]
    inter["heatmap"] = heat.pivot_table(
        index="x", columns="y", values="count", aggfunc="sum", fill_value=0
    )
    inter["contingency_total"] = int(ct["count"].sum())
    return inter


def compute_bivariate(df: DataFrame, col1: str, col2: str, cfg: Config) -> Intermediates:
    """Dispatch on the (type, type) pair per Figure 2; CN is swapped to NC."""
    t1, t2 = detect_type(df, col1), detect_type(df, col2)
    if EDAType.DATETIME in (t1, t2):
        raise TypeError("bivariate analysis with datetime columns is out of scope")
    if t1 is EDAType.NUMERICAL and t2 is EDAType.NUMERICAL:
        return compute_num_num(df, col1, col2, cfg)
    if t1 is EDAType.NUMERICAL and t2 is EDAType.CATEGORICAL:
        return compute_num_cat(df, col1, col2, cfg)
    if t1 is EDAType.CATEGORICAL and t2 is EDAType.NUMERICAL:
        return compute_num_cat(df, col2, col1, cfg)
    return compute_cat_cat(df, col1, col2, cfg)
