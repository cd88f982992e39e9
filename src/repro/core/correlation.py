"""Correlation analysis — ``plot_correlation`` (paper Figure 2, rows 4–6).

Methods reproduced: **Pearson**, **Spearman**, **KendallTau** (the three
the paper computes; PhiK/Cramér's V were disabled in the paper's
benchmark and are likewise absent here).

Fusion strategy:

* Pearson — one ``mapInPandas`` scan: each partition emits its masked
  co-moment matrices (numpy), the driver sums them and finishes all
  m(m−1)/2 pairs (pairwise-complete like ``pandas.DataFrame.corr``).
* Spearman — below ``_SPEARMAN_DRIVER_CELLS`` the cleaned columns are
  collected and ranked in pandas; above it, one rank-transform projection
  (average ranks with tie correction, per column) feeds the same Pearson
  scan. Columns are ranked once over their own non-nulls; under missing
  data this approximates pandas' per-pair re-ranking (documented in
  DESIGN.md).
* Kendall — exact tau-b on a seeded, size-capped sample via the
  ``substrate.numutils`` kernel (scipy-free). Precomputed condensed sign
  arrays make the m×m matrix O(m·k² + m²·pairs) instead of O(m²·k²).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.core import compute
from repro.core.config import Config
from repro.core.dtypes import EDAType, detect_type, detect_types
from repro.core.insights import correlation_insights
from repro.core.intermediates import EDAResult, Intermediates
from repro.core.render import render
from repro.substrate import numutils
from repro.substrate.sparkutils import numeric_sql, quote


def _clean_numeric(df: DataFrame, cols: list[str]) -> DataFrame:
    """Project to double columns with NaN/±inf nulled (pairwise semantics)."""
    dtypes = dict(df.dtypes)
    return df.selectExpr(*[f"{numeric_sql(c, dtypes[c])} AS {quote(c)}" for c in cols])


def ranked(df: DataFrame, cols: list[str]) -> DataFrame:
    """Average-rank transform of each column (ties share the mean rank).

    ``rank()`` gives the min rank; adding ``(ties−1)/2`` (ties counted per
    value) yields the average rank, matching ``pandas.rank(method='average')``
    on the non-null values. Nulls stay null so downstream correlations
    remain pairwise-complete.
    """
    exprs = []
    for c in cols:
        q = quote(c)
        avg_rank = (
            f"CAST(rank() OVER (ORDER BY {q} ASC NULLS LAST) AS DOUBLE)"
            f" + (CAST(count({q}) OVER (PARTITION BY {q}) AS DOUBLE) - 1) / 2"
        )
        exprs.append(f"CASE WHEN {q} IS NULL THEN NULL ELSE {avg_rank} END AS {q}")
    return _clean_numeric(df, cols).selectExpr(*exprs)


def _comoment_partial(m: int):
    """mapInPandas kernel: per-partition masked co-moment matrices.

    For columns i, j (over rows where *both* are present — pandas'
    pairwise-complete semantics): N = pair counts, S[i,j] = Σ x_j,
    Q[i,j] = Σ x_j², P[i,j] = Σ x_i·x_j. Each partition emits one pickled
    4-tuple; the driver sums partials and finishes the correlation.
    Numpy matmuls replace m(m−1)/2 ``F.corr`` aggregates whose generated
    code would exhaust the JVM code cache on wide tables.
    """
    import pickle

    def kernel(batches):
        N = np.zeros((m, m))
        S = np.zeros((m, m))
        Q = np.zeros((m, m))
        P = np.zeros((m, m))
        for pdf in batches:
            X = pdf.to_numpy(dtype="float64", na_value=np.nan)
            mask = np.isfinite(X)
            Xz = np.where(mask, X, 0.0)
            Mf = mask.astype("float64")
            N += Mf.T @ Mf
            S += Mf.T @ Xz
            Q += Mf.T @ (Xz * Xz)
            P += Xz.T @ Xz
        yield pd.DataFrame({"payload": [pickle.dumps((N, S, Q, P))]})

    return kernel


def pearson_matrix(df: DataFrame, cols: list[str]) -> pd.DataFrame:
    """m×m pairwise-complete Pearson matrix in one distributed scan.

    The Spark phase reduces the frame to per-partition co-moment matrices
    (numpy, no Catalyst codegen); the driver phase (pandas/numpy) turns
    summed co-moments into correlations — the paper's two-phase split.
    """
    if len(cols) == 0:
        return pd.DataFrame()
    mat = pd.DataFrame(np.eye(len(cols)), index=cols, columns=cols)
    if len(cols) == 1:
        return mat
    import pickle

    # mapInPandas resolves its input columns by unquoted name, so the
    # kernel sees positional names; it reads the columns in order.
    clean = _clean_numeric(df, cols).toDF(*[f"_{i}" for i in range(len(cols))])
    rows = clean.mapInPandas(_comoment_partial(len(cols)), "payload BINARY").collect()
    if not rows:
        mat.iloc[:, :] = np.nan
        np.fill_diagonal(mat.values, 1.0)
        return mat
    N = S = Q = P = None
    for r in rows:
        n, s, q, p = pickle.loads(bytes(r["payload"]))
        N = n if N is None else N + n
        S = s if S is None else S + s
        Q = q if Q is None else Q + q
        P = p if P is None else P + p
    # pair (a,b): n=N[a,b], Σx_b=S[a,b], Σx_a=S[b,a], Σx_b²=Q[a,b], …
    with np.errstate(invalid="ignore", divide="ignore"):
        cov = N * P - S.T * S            # n·Σab − Σa·Σb
        var_a = N * Q.T - S.T * S.T      # n·Σa² − (Σa)²
        var_b = N * Q - S * S
        denom = np.sqrt(np.maximum(var_a, 0.0) * np.maximum(var_b, 0.0))
        corr = np.where((N >= 2) & (denom > 0), cov / denom, np.nan)
    np.fill_diagonal(corr, 1.0)
    mat.iloc[:, :] = np.clip(corr, -1.0, 1.0)
    return mat


#: Cell budget below which the Spearman rank transform runs on the driver.
#: Ranking is the one correlation step that does not *reduce* data (every
#: rank column is as big as its input), and each distributed global-order
#: window re-sorts the full row — O(m²·n) movement. The paper handles
#: exactly this with a heuristic Dask/pandas phase boundary (§5.2); ours is
#: a cell budget: ≤ ~40 MB collects and ranks in pandas, larger inputs use
#: the distributed window path.
_SPEARMAN_DRIVER_CELLS = 5_000_000


def spearman_matrix(df: DataFrame, cols: list[str], nrows: int | None = None) -> pd.DataFrame:
    """Spearman = Pearson over the average-rank transform.

    Semantics are identical on both paths: each column ranked once over its
    non-nulls (ties get the mean rank), then pairwise-complete Pearson of
    the ranks.
    """
    if len(cols) == 0:
        return pd.DataFrame()
    if nrows is None:
        nrows = df.count()
    if nrows * len(cols) <= _SPEARMAN_DRIVER_CELLS:
        pdf = _clean_numeric(df, cols).toPandas()
        ranks = pdf.rank(method="average")
        mat = ranks.corr(method="pearson")
        return mat.reindex(index=cols, columns=cols)
    rank_frame = ranked(df, cols)
    rank_frame.persist()
    try:
        rank_frame.count()  # materialize once; the kernel scans the cache
        return pearson_matrix(rank_frame, cols)
    finally:
        rank_frame.unpersist()


def _condensed_signs(x: np.ndarray) -> np.ndarray:
    """Upper-triangle pairwise sign(x_i − x_j) as int8 (tau-b building block)."""
    n = x.size
    iu = np.triu_indices(n, k=1)
    return np.sign(x[:, None] - x[None, :])[iu].astype("int8")


def kendall_matrix(pdf: pd.DataFrame, cols: list[str]) -> pd.DataFrame:
    """Exact tau-b matrix over a (sampled) pandas frame.

    Rows with any NaN are dropped once (complete-case) so per-column sign
    arrays can be shared across all pairs; when fewer than 50 complete rows
    survive, falls back to pairwise-complete ``kendall_tau`` per pair.
    """
    mat = pd.DataFrame(np.eye(len(cols)), index=cols, columns=cols)
    if len(cols) < 2:
        return mat
    data = pdf[cols].astype("float64")
    complete = data.dropna()
    if len(complete) >= 50 or complete.shape[0] == data.shape[0]:
        n = len(complete)
        if n < 2:
            mat.iloc[:, :] = np.nan
            np.fill_diagonal(mat.values, 1.0)
            return mat
        signs = {c: _condensed_signs(complete[c].to_numpy()) for c in cols}
        n_pairs = n * (n - 1) / 2
        for i, a in enumerate(cols):
            for b in cols[i + 1:]:
                sx, sy = signs[a], signs[b]
                cmd = float((sx.astype("int32") * sy).sum())
                ties_x = n_pairs - float(np.count_nonzero(sx))
                ties_y = n_pairs - float(np.count_nonzero(sy))
                denom = np.sqrt((n_pairs - ties_x) * (n_pairs - ties_y))
                tau = cmd / denom if denom else float("nan")
                mat.loc[a, b] = mat.loc[b, a] = tau
    else:
        for i, a in enumerate(cols):
            for b in cols[i + 1:]:
                tau = numutils.kendall_tau(data[a].to_numpy(), data[b].to_numpy())
                mat.loc[a, b] = mat.loc[b, a] = tau
    return mat


def _kendall_sample(df: DataFrame, cols: list[str], cfg: Config) -> pd.DataFrame:
    return compute.sample_pass(
        _clean_numeric(df, cols), cols, cfg["kendall.sample_size"], cfg["compute.seed"]
    )


def compute_correlation(df: DataFrame, cfg: Config) -> Intermediates:
    """``plot_correlation(df)`` — matrices for every configured method."""
    types = detect_types(df)
    cols = [c for c, t in types.items() if t is EDAType.NUMERICAL]
    inter = Intermediates(task="correlation")
    inter["columns"] = cols
    methods = cfg["correlation.methods"]
    if "pearson" in methods:
        inter["pearson"] = pearson_matrix(df, cols)
    if "spearman" in methods:
        inter["spearman"] = spearman_matrix(df, cols)
    if "kendall" in methods:
        sample = _kendall_sample(df, cols, cfg) if cols else pd.DataFrame(columns=cols)
        inter["kendall"] = kendall_matrix(sample, cols)
    return inter


def compute_correlation_vector(df: DataFrame, col: str, cfg: Config) -> Intermediates:
    """``plot_correlation(df, col)`` — ``col`` against every other numeric."""
    if detect_type(df, col) is not EDAType.NUMERICAL:
        raise TypeError(f"plot_correlation requires a numerical column, got {col!r}")
    types = detect_types(df)
    others = [c for c, t in types.items() if t is EDAType.NUMERICAL and c != col]
    inter = Intermediates(task=f"correlation:{col}")
    inter["col"] = col
    inter["columns"] = others
    methods = cfg["correlation.methods"]

    def _vector(frame: DataFrame) -> pd.Series:
        if not others:
            return pd.Series(dtype="float64")
        row = frame.selectExpr(
            *[f"corr({quote(col)}, {quote(o)})" for o in others]
        ).collect()[0]
        return pd.Series({o: (np.nan if v is None else float(v)) for o, v in zip(others, row)})

    if "pearson" in methods:
        inter["pearson"] = _vector(_clean_numeric(df, [col] + others))
    if "spearman" in methods:
        inter["spearman"] = _vector(ranked(df, [col] + others))
    if "kendall" in methods:
        sample = _kendall_sample(df, [col] + others, cfg)
        kmat = kendall_matrix(sample, [col] + others)
        inter["kendall"] = kmat.loc[col, others] if others else pd.Series(dtype="float64")
    return inter


def compute_correlation_pair(df: DataFrame, c1: str, c2: str, cfg: Config) -> Intermediates:
    """``plot_correlation(df, c1, c2)`` — scatter + least-squares line.

    Slope/intercept come from one fused aggregation (covariance, variance,
    means — a single scan); the scatter is a seeded sample.
    """
    for c in (c1, c2):
        if detect_type(df, c) is not EDAType.NUMERICAL:
            raise TypeError(f"plot_correlation requires numerical columns, got {c!r}")
    x, y = quote(c1), quote(c2)
    clean = _clean_numeric(df, [c1, c2]).where(f"{x} IS NOT NULL AND {y} IS NOT NULL")
    row = clean.selectExpr(
        f"covar_samp({x}, {y}) AS cov",
        f"var_samp({x}) AS var_x",
        f"avg({x}) AS mean_x",
        f"avg({y}) AS mean_y",
        f"corr({x}, {y}) AS pearson",
        "count(1) AS n",
    ).collect()[0]
    slope = (row["cov"] / row["var_x"]) if row["var_x"] else float("nan")
    intercept = (
        row["mean_y"] - slope * row["mean_x"]
        if row["mean_y"] is not None and slope == slope
        else float("nan")
    )
    sample = compute.sample_pass(
        clean, [c1, c2], cfg["scatter.sample_size"], cfg["compute.seed"], total_rows=int(row["n"])
    )
    inter = Intermediates(task=f"correlation:{c1}:{c2}")
    inter["cols"] = (c1, c2)
    inter["scatter"] = sample
    inter["regression"] = {"slope": slope, "intercept": intercept}
    inter["pearson"] = np.nan if row["pearson"] is None else float(row["pearson"])
    if "spearman" in cfg["correlation.methods"]:
        inter["spearman"] = float(
            spearman_matrix(df, [c1, c2]).loc[c1, c2]
        )
    if "kendall" in cfg["correlation.methods"]:
        inter["kendall"] = float(
            kendall_matrix(_kendall_sample(df, [c1, c2], cfg), [c1, c2]).loc[c1, c2]
        )
    return inter


def plot_correlation(
    df: DataFrame,
    col1: str | None = None,
    col2: str | None = None,
    config: dict | None = None,
) -> EDAResult:
    """Task-centric correlation analysis (paper §3.2).

    * ``plot_correlation(df)`` — correlation matrices of the dataset.
    * ``plot_correlation(df, c1)`` — correlation of ``c1`` vs the others.
    * ``plot_correlation(df, c1, c2)`` — scatter with a regression line.
    """
    cfg = Config.from_user(config)
    if col1 is None and col2 is not None:
        raise ValueError("col1 must be given when col2 is")
    if col1 is None:
        inter = compute_correlation(df, cfg)
    elif col2 is None:
        inter = compute_correlation_vector(df, col1, cfg)
    else:
        inter = compute_correlation_pair(df, col1, col2, cfg)
    insights = correlation_insights(inter, cfg)
    return EDAResult(
        task=inter.task, intermediates=inter, insights=insights,
        html=render(inter, insights, cfg),
    )
