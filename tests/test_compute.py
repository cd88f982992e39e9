"""Oracle-backed tests for the fused compute kernels.

Each pass's output is reshaped into a Spark DataFrame and checked against
DuckDB SQL over the same input rows via ``repro.oracle.assert_equivalent``
— catching wrong aggregates, wrong bin math, and wrong melt plumbing, not
just "it ran".
"""
import numpy as np
import pandas as pd
import pytest

from repro.core import compute
from repro.core.dtypes import EDAType, detect_types
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def types(titanic):
    return detect_types(titanic)


@pytest.fixture(scope="module")
def stats(titanic, types):
    return compute.basic_stats_pass(titanic, types)


NUMERIC_STATS_SQL = """
    SELECT count({c}) AS cnt,
           min({c}) AS mn,
           max({c}) AS mx,
           avg({c}) AS mean,
           sum({c}) AS s,
           sum(CASE WHEN {c} IS NULL THEN 1 ELSE 0 END) AS nmissing
    FROM t
"""


@pytest.mark.parametrize("col", [f"num_{i}" for i in range(7)])
def test_basic_stats_numeric_vs_oracle(spark, titanic_pdf, stats, col):
    s = stats[col]
    got = spark.createDataFrame(
        pd.DataFrame(
            {
                "cnt": [int(s["count"])],
                "mn": [s["min"]],
                "mx": [s["max"]],
                "mean": [s["mean"]],
                "s": [s["sum"]],
                "nmissing": [int(s["nmissing"])],
            }
        )
    )
    assert_equivalent(got, NUMERIC_STATS_SQL.format(c=col), t=titanic_pdf)


@pytest.mark.parametrize("col", [f"cat_{i}" for i in range(5)])
def test_basic_stats_categorical_vs_oracle(spark, titanic_pdf, stats, col):
    s = stats[col]
    got = spark.createDataFrame(
        pd.DataFrame(
            {
                "cnt": [int(s["count"])],
                "nmissing": [int(s["nmissing"])],
                "len_mean": [float(s["len_mean"])],
            }
        )
    )
    sql = f"""
        SELECT count({col}) AS cnt,
               sum(CASE WHEN {col} IS NULL THEN 1 ELSE 0 END) AS nmissing,
               avg(length({col})) AS len_mean
        FROM t
    """
    assert_equivalent(got, sql, t=titanic_pdf)


def test_basic_stats_row_count(stats, titanic_pdf):
    assert int(stats["__table__"]["nrows"]) == len(titanic_pdf)


def test_basic_stats_moments_match_pandas(stats, titanic_pdf):
    for col in ("num_0", "num_1", "num_4"):
        s = titanic_pdf[col].dropna()
        assert stats[col]["std"] == pytest.approx(s.std(ddof=1), rel=1e-9)
        assert stats[col]["skew"] == pytest.approx(s.skew() * ((len(s) - 2) / np.sqrt(len(s) * (len(s) - 1))), rel=1e-6)


def test_basic_stats_distinct_approximation(stats, titanic_pdf):
    for col in ("num_0", "cat_0"):
        exact = titanic_pdf[col].dropna().nunique()
        assert stats[col]["distinct"] == pytest.approx(exact, rel=0.1)



def test_basic_stats_float32_column(spark):
    """A FLOAT column: NaN/±inf are cleaned in its own type. HLL++ hashes
    floats and doubles differently, so ``distinct`` must match the estimate
    over the uncast float values."""
    from pyspark.sql import functions as F

    g = np.random.default_rng(3)
    v = g.normal(size=1000).astype("float32")
    v[[1, 2]] = np.nan
    v[[3, 4, 5]] = [np.inf, -np.inf, np.inf]
    df = spark.createDataFrame(pd.DataFrame({"f": v}), "f float")
    s = compute.basic_stats_pass(df, {"f": EDAType.NUMERICAL})["f"]
    finite = v[np.isfinite(v)]
    assert s["count"] == len(finite)
    assert s["nmissing"] == 2
    assert s["ninfinite"] == 3
    assert s["min"] == float(finite.min()) and s["max"] == float(finite.max())
    c = F.col("f")
    want = (
        df.where(~F.isnan(c) & ~c.isin(float("inf"), float("-inf")))
        .agg(F.approx_count_distinct(c))
        .collect()[0][0]
    )
    assert s["distinct"] == want

def test_basic_stats_zero_negative_counts(stats, titanic_pdf):
    for i in range(7):
        col = f"num_{i}"
        s = titanic_pdf[col].dropna()
        assert int(stats[col]["nzero"] or 0) == int((s == 0).sum())
        assert int(stats[col]["nnegative"] or 0) == int((s < 0).sum())


@pytest.mark.parametrize("col", ["num_0", "num_2", "num_5"])
def test_histogram_vs_oracle(spark, titanic, titanic_pdf, types, stats, col):
    bins = 20
    mn, mx = stats[col]["min"], stats[col]["max"]
    counts, edges = compute.histogram_pass(
        titanic, [col], types, {col: (mn, mx)}, bins
    )[col]
    assert len(counts) == bins and len(edges) == bins + 1
    got = spark.createDataFrame(
        pd.DataFrame({"bin": np.arange(bins)[counts > 0], "cnt": counts[counts > 0]})
    )
    width = (mx - mn) / bins
    sql = f"""
        SELECT LEAST(FLOOR(({col} - {mn}) / {width}), {bins - 1})::BIGINT AS bin,
               count(*) AS cnt
        FROM t WHERE {col} IS NOT NULL
        GROUP BY 1
    """
    assert_equivalent(got, sql, t=titanic_pdf)


def test_histogram_total_mass(titanic, titanic_pdf, types, stats):
    num_cols = [f"num_{i}" for i in range(7)]
    minmax = {c: (stats[c]["min"], stats[c]["max"]) for c in num_cols}
    hists = compute.histogram_pass(titanic, num_cols, types, minmax, 50)
    for c in num_cols:
        counts, _ = hists[c]
        assert counts.sum() == titanic_pdf[c].notna().sum()


def test_histogram_constant_column(spark, types):
    pdf = pd.DataFrame({"k": [5.0] * 20})
    df = spark.createDataFrame(pdf)
    h = compute.histogram_pass(
        df, ["k"], {"k": EDAType.NUMERICAL}, {"k": (5.0, 5.0)}, 10
    )["k"]
    counts, edges = h
    assert counts.tolist() == [20]
    assert edges.tolist() == [5.0, 5.0]


def test_histogram_allnull_column(spark):
    pdf = pd.DataFrame({"k": [np.nan] * 5})
    df = spark.createDataFrame(pdf)
    counts, edges = compute.histogram_pass(
        df, ["k"], {"k": EDAType.NUMERICAL}, {"k": (None, None)}, 10
    )["k"]
    assert counts.size == 0 and edges.size == 0


@pytest.mark.parametrize("col", [f"cat_{i}" for i in range(5)])
def test_value_counts_vs_oracle(spark, titanic, titanic_pdf, col):
    vc = compute.value_counts_pass(titanic, [col])[col]
    got = spark.createDataFrame(
        pd.DataFrame({"value": vc.index.astype(str), "cnt": vc.to_numpy("int64")})
    )
    sql = f"SELECT {col} AS value, count(*) AS cnt FROM t WHERE {col} IS NOT NULL GROUP BY 1"
    assert_equivalent(got, sql, t=titanic_pdf)


def test_value_counts_attrs_exact(titanic, titanic_pdf):
    out = compute.value_counts_pass(titanic, ["cat_0", "cat_1"])
    for col in ("cat_0", "cat_1"):
        s = titanic_pdf[col].dropna()
        assert out[col].attrs["n_distinct"] == s.nunique()
        assert out[col].attrs["n_total"] == len(s)


def test_value_counts_limit():
    pass  # limit behaviour covered via the chess-shaped dataset below


def test_value_counts_cap_on_high_cardinality(spark):
    from repro import datasets

    df = datasets.load(spark, "chess", partitions=4)
    out = compute.value_counts_pass(df, ["cat_0"], limit=10)["cat_0"]
    assert len(out) == 10
    assert out.attrs["n_distinct"] > 10  # exact distinct survives the cap
    assert out.is_monotonic_decreasing


def test_quantiles_pass_accuracy(titanic, titanic_pdf, types):
    """The stats pass's quantile sketch is within ±1 % rank of pandas."""
    stats = compute.basic_stats_pass(
        titanic, types, ["num_0"], quantile_probs=compute.STATS_QUANTILES
    )
    q = stats["num_0"]["quantiles"]
    s = titanic_pdf["num_0"].dropna()
    for p in compute.STATS_QUANTILES:
        lo, hi = s.quantile(max(p - 0.01, 0)), s.quantile(min(p + 0.01, 1))
        assert lo - 1e-9 <= q[p] <= hi + 1e-9


def test_sample_pass_cap_and_determinism(titanic):
    s1 = compute.sample_pass(titanic, ["num_0"], 100, seed=1)
    s2 = compute.sample_pass(titanic, ["num_0"], 100, seed=1)
    assert len(s1) <= 100
    pd.testing.assert_frame_equal(s1, s2)


def test_sample_pass_small_input_returns_all(spark):
    df = spark.range(0, 17).withColumnRenamed("id", "x")
    out = compute.sample_pass(df, ["x"], 100, seed=0)
    assert len(out) == 17


def test_missing_expr_counts_nan(spark):
    from repro.substrate.sparkutils import missing_sql

    pdf = pd.DataFrame({"a": [1.0, np.nan, None, 4.0]})
    df = spark.createDataFrame(pdf)
    n = df.selectExpr(f"sum(CAST({missing_sql('a', 'double')} AS BIGINT))").collect()[0][0]
    assert n == 2
