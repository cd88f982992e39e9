"""Tests for missing-value analysis — plot_missing."""
import numpy as np
import pandas as pd
import pytest

from repro.core import plot_missing
from repro.core.config import Config
from repro.core.missing import (
    missing_counts_pass,
    nullity_correlation,
    nullity_dendrogram,
    spectrum_pass,
)
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def md_pdf():
    """Frame with engineered missing structure: a,b co-missing; c random."""
    g = np.random.default_rng(4)
    n = 600
    pdf = pd.DataFrame(
        {
            "a": g.random(n),
            "b": g.random(n),
            "c": g.random(n),
            "k": g.choice(["u", "v", "w"], n).astype(object),
        }
    )
    comiss = g.random(n) < 0.2
    pdf.loc[comiss, "a"] = np.nan
    pdf.loc[comiss, "b"] = np.nan
    pdf.loc[g.random(n) < 0.1, "c"] = np.nan
    pdf.loc[g.random(n) < 0.1, "k"] = None
    return pdf


@pytest.fixture(scope="module")
def md(spark, md_pdf):
    df = spark.createDataFrame(md_pdf).repartition(4)
    df.cache().count()
    yield df
    df.unpersist()


class TestOverviewVariant:
    def test_panels(self, missing_result):
        # Figure 2 row 7: bar, spectrum, nullity heatmap, dendrogram
        inter = missing_result.intermediates
        for key in ("bar", "spectrum", "nullity_corr", "dendrogram"):
            assert key in inter

    def test_bar_vs_oracle(self, spark, md, md_pdf):
        nrows, miss = missing_counts_pass(md)
        assert nrows == len(md_pdf)
        got = spark.createDataFrame(
            pd.DataFrame({"col": miss.index, "cnt": miss.to_numpy("int64")})
        )
        sql = """
            SELECT 'a' AS col, sum(CASE WHEN a IS NULL THEN 1 ELSE 0 END) AS cnt FROM t
            UNION ALL SELECT 'b', sum(CASE WHEN b IS NULL THEN 1 ELSE 0 END) FROM t
            UNION ALL SELECT 'c', sum(CASE WHEN c IS NULL THEN 1 ELSE 0 END) FROM t
            UNION ALL SELECT 'k', sum(CASE WHEN k IS NULL THEN 1 ELSE 0 END) FROM t
        """
        assert_equivalent(got, sql, t=md_pdf)

    def test_spectrum_shape_and_mass(self, md, md_pdf):
        spec = spectrum_pass(md, bins=10)
        assert set(spec["column"]) == {"a", "b", "c", "k"}
        assert spec["segment"].nunique() == 10
        # total missing mass across segments equals the column's missing count
        for col in ("a", "c"):
            total = (spec[spec["column"] == col]["missing_rate"] * spec[spec["column"] == col]["n"]).sum()
            assert total == pytest.approx(md_pdf[col].isna().sum())

    def test_spectrum_segments_cover_all_rows(self, md, md_pdf):
        spec = spectrum_pass(md, bins=7)
        # every column sees every row exactly once across its segments
        assert spec.groupby("column")["n"].sum().eq(len(md_pdf)).all()

    def test_nullity_corr_detects_comissing(self, md, md_pdf):
        nrows, miss = missing_counts_pass(md)
        corr = nullity_correlation(md, miss, nrows)
        # a and b are missing together by construction → corr ≈ 1
        assert corr.loc["a", "b"] == pytest.approx(1.0, abs=1e-6)
        # c is independent → low correlation
        assert abs(corr.loc["a", "c"]) < 0.2

    def test_nullity_corr_matches_pandas(self, md, md_pdf):
        nrows, miss = missing_counts_pass(md)
        corr = nullity_correlation(md, miss, nrows)
        ref = md_pdf.isna().astype(int).corr()
        for x in corr.index:
            for y in corr.columns:
                assert corr.loc[x, y] == pytest.approx(ref.loc[x, y], abs=1e-9)

    def test_dendrogram_merges_comissing_first(self, md, md_pdf):
        nrows, miss = missing_counts_pass(md)
        corr = nullity_correlation(md, miss, nrows)
        dend = nullity_dendrogram(corr)
        cols = dend["columns"]
        Z = dend["linkage"]
        first = {cols[int(Z[0, 0])], cols[int(Z[0, 1])]}
        assert first == {"a", "b"}

    def test_insights_flag_missing_columns(self, md):
        r = plot_missing(md)
        flagged = {i.subject for i in r.insights if i.kind == "missing"}
        assert {"a", "b", "c"} <= flagged


def _spectrum_oracle(pdf: pd.DataFrame, bins: int) -> pd.DataFrame:
    """Row ``i`` of ``pdf`` in segment ``floor(i * bins / n)`` (float64);
    mean and count of each column's missing indicator per segment."""
    n = len(pdf)
    ind = pdf.isna().astype("int64")
    ind["segment"] = np.floor(np.arange(n) * bins / n).astype("int32")
    long = ind.melt(id_vars="segment", var_name="column", value_name="is_missing")
    return (
        long.groupby(["segment", "column"])["is_missing"]
        .agg(missing_rate="mean", n="count")
        .reset_index()
        .astype({"segment": "int32", "column": "object", "missing_rate": "float64", "n": "int64"})
    )


@pytest.fixture(scope="module")
def tiny_sparse(spark):
    """5 rows over 8 partitions: empty partitions and fewer rows than bins."""
    pdf = pd.DataFrame(
        {"a": [1.0, None, np.nan, 4.0, 5.0], "k": ["x", None, "y", None, "z"]}
    )
    return spark.createDataFrame(pdf).repartition(8)


@pytest.fixture(scope="module")
def md_uncached(spark, md_pdf):
    return spark.createDataFrame(md_pdf).repartition(7)


@pytest.mark.parametrize("frame", ["md", "tiny_sparse", "md_uncached"])
@pytest.mark.parametrize("bins", [10, 7])
def test_spectrum_exact_vs_pandas(request, frame, bins):
    df = request.getfixturevalue(frame)
    got = spectrum_pass(df, bins)
    pd.testing.assert_frame_equal(got, _spectrum_oracle(df.toPandas(), bins), check_exact=True)


def test_spectrum_empty_and_single_row(spark, md_pdf):
    cols = ["segment", "column", "missing_rate", "n"]
    empty = spark.createDataFrame(md_pdf.head(0), "a double, b double, c double, k string")
    none = spectrum_pass(empty, 10)
    assert list(none.columns) == cols and len(none) == 0
    one = spectrum_pass(spark.createDataFrame(md_pdf.head(1)), 10)
    assert list(one.columns) == cols
    assert one["n"].tolist() == [1, 1, 1, 1]


class TestOneColumnVariant:
    @pytest.fixture(scope="class")
    def result(self, md):
        return plot_missing(md, "a")

    def test_before_after_mass_numeric(self, result, md_pdf):
        frame = result.intermediates["numeric"]["c"]
        kept = md_pdf[md_pdf["a"].notna()]
        assert frame["before"].sum() == md_pdf["c"].notna().sum()
        assert frame["after"].sum() == kept["c"].notna().sum()

    def test_before_after_vs_oracle(self, spark, result, md_pdf):
        frame = result.intermediates["categorical"]["k"]
        got = spark.createDataFrame(frame.astype({"before": "int64", "after": "int64"}))
        sql = """
            SELECT k AS value,
                   count(*) AS before,
                   sum(CASE WHEN a IS NOT NULL THEN 1 ELSE 0 END) AS after
            FROM t WHERE k IS NOT NULL GROUP BY 1
        """
        assert_equivalent(got, sql, t=md_pdf)

    def test_n_dropped(self, result, md_pdf):
        assert result.intermediates["n_dropped"] == md_pdf["a"].isna().sum()

    def test_comissing_column_shifts(self, result):
        # b is co-missing with a: dropping a-missing rows removes exactly
        # the b-missing rows, so b's before/after non-null mass is equal.
        frame = result.intermediates["numeric"]["b"]
        assert frame["before"].sum() == frame["after"].sum()

    def test_similar_distribution_insight(self, result):
        # c is missing independently of a → distribution barely changes
        shift = result.intermediates["shift"]
        assert shift["c"] < 0.1


class TestTwoColumnVariant:
    @pytest.fixture(scope="class")
    def result(self, md):
        return plot_missing(md, "a", "c")

    def test_panels(self, result):
        # Figure 2 row 9: histogram, PDF, CDF, box plot
        inter = result.intermediates
        for key in ("hist", "pdf", "cdf", "box"):
            assert key in inter

    def test_pdf_sums_to_one(self, result):
        pdf_ = result.intermediates["pdf"]
        assert pdf_["before"].sum() == pytest.approx(1.0)
        assert pdf_["after"].sum() == pytest.approx(1.0)

    def test_cdf_monotone_ends_at_one(self, result):
        cdf = result.intermediates["cdf"]
        for side in ("before", "after"):
            arr = cdf[side]
            assert (np.diff(arr) >= -1e-12).all()
            assert arr[-1] == pytest.approx(1.0)

    def test_box_quartiles_ordered(self, result):
        box = result.intermediates["box"]
        for side in ("before", "after"):
            b = box[side]
            assert b["q1"] <= b["median"] <= b["q3"]

    def test_categorical_target(self, md, md_pdf):
        r = plot_missing(md, "a", "k")
        bar = r.intermediates["bar"]
        assert bar["before"].sum() == md_pdf["k"].notna().sum()

    def test_datetime_target_rejected(self, spark):
        pdf = pd.DataFrame(
            {"a": [1.0, np.nan], "d": pd.to_datetime(["2020-01-01", "2020-01-02"])}
        )
        with pytest.raises(TypeError):
            plot_missing(spark.createDataFrame(pdf), "a", "d")


def test_col_errors(md):
    with pytest.raises(KeyError):
        plot_missing(md, "zzz")
    with pytest.raises(ValueError):
        plot_missing(md, None, "a")


def test_spectrum_bins_config(md):
    r = plot_missing(md, config={"spectrum.bins": 5})
    assert r.intermediates["spectrum"]["segment"].nunique() == 5
