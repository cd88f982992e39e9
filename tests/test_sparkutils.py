"""Unit tests for the Spark substrate helpers."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.substrate.sparkutils import (
    bin_sql,
    double_sql,
    finite_sql,
    infinite_sql,
    missing_count_sql,
    null_indicators,
    numeric_sql,
    quote,
    with_row_index,
)


@pytest.fixture(scope="module")
def small(spark):
    pdf = pd.DataFrame(
        {
            "a": [1.0, 2.0, np.nan, 4.0],
            "b": [10.0, None, 30.0, 40.0],
            "c": ["x", "y", None, "x"],
        }
    )
    return spark.createDataFrame(pdf)


def test_with_row_index_contiguous(spark):
    df = spark.range(0, 1000).repartition(7)
    idx = with_row_index(df, "ri").toPandas()["ri"].sort_values().to_numpy()
    assert (idx == np.arange(1000)).all()


def test_with_row_index_preserves_rows(spark):
    df = spark.range(0, 100).withColumn("v", F.col("id") * 2).repartition(5)
    out = with_row_index(df).toPandas()
    assert sorted(out["id"]) == list(range(100))
    assert "row_index" in out.columns
    assert sorted(out["row_index"]) == list(range(100))


def test_with_row_index_single_row(spark):
    out = with_row_index(spark.range(1)).toPandas()
    assert out["row_index"].tolist() == [0]


def test_null_indicators_counts_nan_and_null(small):
    out = null_indicators(small).toPandas()
    assert out["a"].sum() == 1  # the NaN
    assert out["b"].sum() == 1  # the None
    assert out["c"].sum() == 1  # the None string
    assert set(out.columns) == {"a", "b", "c"}


def test_null_indicators_nan_flag_on_true_nan(spark):
    # pandas ingestion converts NaN->NULL, so build a *computed* NaN: a
    # genuine float NaN must count as missing next to the NULL.
    df = spark.sql(
        "SELECT * FROM VALUES (CAST('NaN' AS DOUBLE)), (1.0), (NULL) AS t(a)"
    )
    with_nan = null_indicators(df, ["a"]).toPandas()
    assert with_nan["a"].sum() == 2  # NaN and NULL


def test_null_indicators_subset(small):
    out = null_indicators(small, ["c"]).toPandas()
    assert list(out.columns) == ["c"]
    assert out["c"].tolist() == [0, 0, 1, 0]


def test_quote_plain_and_backtick_names():
    assert quote("a") == "`a`"
    assert quote("a.b") == "`a.b`"
    assert quote("e`f") == "`e``f`"
    assert quote("``") == "``````"


def test_quote_selects_odd_names(spark):
    df = spark.sql("SELECT 1 AS `a.b`, 2 AS `c d`, 3 AS `e``f`, 4 AS `g``` ")
    row = df.selectExpr(*[quote(c) for c in df.columns]).collect()[0]
    assert list(row) == [1, 2, 3, 4]


def test_double_sql_round_trips_bit_exactly(spark):
    xs = [0.1, -1.5, 1e-300, 1.7976931348623157e308, 2.0 / 3.0, -0.0, 1e16]
    row = spark.range(1).selectExpr(*[double_sql(x) for x in xs]).collect()[0]
    assert [v.hex() for v in row] == [x.hex() for x in xs]


def test_double_sql_non_finite(spark):
    row = spark.range(1).selectExpr(
        *[double_sql(x) for x in (float("inf"), float("-inf"), float("nan"))]
    ).collect()[0]
    assert row[0] == float("inf") and row[1] == float("-inf") and np.isnan(row[2])


def test_bin_sql_infinite_edges_parse(spark):
    df = spark.sql("SELECT * FROM VALUES (1.0D), (NULL) AS t(v)")
    assert df.selectExpr(bin_sql("v", float("-inf"), float("inf"), 5)).count() == 2


@pytest.fixture(scope="module")
def binned(spark):
    """bin_sql over [0, 10] in 5 bins, plus a constant-range column."""
    df = spark.sql(
        "SELECT * FROM VALUES (0.0D), (1.99D), (2.0D), (9.99D), (10.0D), (NULL) AS t(v)"
    )
    return df.selectExpr(
        "v",
        f"{bin_sql('v', 0.0, 10.0, 5)} AS b",
        f"{bin_sql('v', 3.0, 3.0, 5)} AS k",
    ).toPandas()


def test_bin_sql_null_stays_null(binned):
    row = binned[binned["v"].isna()].iloc[0]
    assert pd.isna(row["b"]) and pd.isna(row["k"])


def test_bin_sql_max_lands_in_last_bin(binned):
    got = dict(zip(binned["v"].dropna(), binned["b"].dropna().astype(int)))
    assert got == {0.0: 0, 1.99: 0, 2.0: 1, 9.99: 4, 10.0: 4}


def test_bin_sql_constant_column_in_bin_zero(binned):
    assert binned["k"].dropna().astype(int).tolist() == [0] * 5


def test_numeric_sql_nulls_nan_and_inf(spark):
    df = spark.sql(
        "SELECT * FROM VALUES (1.0D), (CAST('NaN' AS DOUBLE)), (CAST('Infinity' AS DOUBLE)),"
        " (CAST('-Infinity' AS DOUBLE)), (NULL) AS t(v)"
    )
    got = df.selectExpr(f"{numeric_sql('v', 'double')} AS v").toPandas()["v"]
    assert got.notna().tolist() == [True, False, False, False, False]


def test_float_helpers_keep_type_and_count(spark):
    df = spark.sql(
        "SELECT CAST(v AS FLOAT) AS f FROM VALUES (1.5D), (CAST('NaN' AS DOUBLE)),"
        " (CAST('Infinity' AS DOUBLE)), (CAST('-Infinity' AS DOUBLE)), (NULL) AS t(v)"
    )
    out = df.selectExpr(
        f"{finite_sql('f', 'float')} AS fin", f"{infinite_sql('f')} AS inf"
    )
    assert dict(out.dtypes)["fin"] == "float"
    rows = out.collect()
    assert [r["fin"] for r in rows] == [1.5, None, None, None, None]
    assert [r["inf"] for r in rows] == [False, False, True, True, None]
    assert df.selectExpr(missing_count_sql("f", "float")).collect()[0][0] == 2
