"""Tests for univariate analysis — plot(df, col)."""
import numpy as np
import pandas as pd
import pytest

from repro.core import plot
from repro.core.config import Config
from repro.core.univariate import box_plot_stats, word_frequency_pass


@pytest.fixture(scope="module")
def num_result(titanic):
    return plot(titanic, "num_0")


@pytest.fixture(scope="module")
def cat_result(titanic):
    return plot(titanic, "cat_0")


class TestNumerical:
    def test_mapping_rule_panels(self, num_result):
        # Figure 2 row 2(1): stats, histogram, KDE, normal Q-Q, box plot
        inter = num_result.intermediates
        for key in ("stats", "hist", "kde", "qq", "box"):
            assert key in inter, key

    def test_stats_match_pandas(self, num_result, titanic_pdf):
        s = num_result.intermediates["stats"]
        col = titanic_pdf["num_0"].dropna()
        assert int(s["count"]) == len(col)
        assert s["mean"] == pytest.approx(col.mean(), rel=1e-9)
        assert s["min"] == pytest.approx(col.min())
        assert s["max"] == pytest.approx(col.max())

    def test_histogram_bins_config(self, titanic):
        r = plot(titanic, "num_0", config={"hist.bins": 17})
        counts, edges = (
            r.intermediates["hist"]["counts"],
            r.intermediates["hist"]["edges"],
        )
        assert len(counts) == 17 and len(edges) == 18

    def test_hist_mass_equals_count(self, num_result):
        inter = num_result.intermediates
        assert inter["hist"]["counts"].sum() == int(inter["stats"]["count"])

    def test_kde_positive_density(self, num_result):
        dens = num_result.intermediates["kde"]["density"]
        assert len(dens) == Config.from_user()["kde.grid_points"]
        assert (dens >= 0).all() and dens.max() > 0

    def test_qq_monotone(self, num_result):
        qq = num_result.intermediates["qq"]
        s = qq["sample"]
        t = qq["theoretical"]
        assert len(s) == len(t) == Config.from_user()["qq.points"]
        assert (np.diff(s[np.isfinite(s)]) >= -1e-9).all()
        assert (np.diff(t[np.isfinite(t)]) >= -1e-9).all()

    def test_qq_near_line_for_normal_data(self, spark):
        g = np.random.default_rng(0)
        df = spark.createDataFrame(pd.DataFrame({"x": g.normal(10, 2, 5000)}))
        r = plot(df, "x")
        qq = r.intermediates["qq"]
        # for truly normal data sample quantiles track mean+std*z closely
        err = np.nanmax(np.abs(qq["sample"] - qq["theoretical"]))
        assert err < 0.6

    def test_box_geometry(self, num_result, titanic_pdf):
        box = num_result.intermediates["box"]
        col = titanic_pdf["num_0"].dropna()
        assert box["q1"] <= box["median"] <= box["q3"]
        assert box["iqr"] == pytest.approx(box["q3"] - box["q1"])
        assert box["q1"] == pytest.approx(col.quantile(0.25), rel=0.05, abs=1.0)

    def test_box_whisker_config(self, titanic):
        r = plot(titanic, "num_0", config={"box.whisker": 3.0})
        box = r.intermediates["box"]
        assert box["upper_whisker"] == pytest.approx(box["q3"] + 3.0 * box["iqr"])

    def test_html_has_tabs(self, num_result):
        for tab in ("Stats", "Histogram", "KDE Plot", "Normal Q-Q Plot", "Box Plot"):
            assert tab in num_result.html


class TestCategorical:
    def test_mapping_rule_panels(self, cat_result):
        # Figure 2 row 2(2): stats, bar chart, pie chart, word frequencies
        inter = cat_result.intermediates
        for key in ("stats", "bar", "pie", "words"):
            assert key in inter, key

    def test_bar_top_n(self, titanic):
        r = plot(titanic, "cat_0", config={"bar.top_n": 3})
        assert len(r.intermediates["bar"]) <= 3

    def test_bar_counts_match_pandas(self, cat_result, titanic_pdf):
        bar = cat_result.intermediates["bar"]
        vc = titanic_pdf["cat_0"].value_counts()
        for value, count in bar.items():
            assert vc[value] == count

    def test_pie_has_other_bucket(self, cat_result, titanic_pdf):
        pie = cat_result.intermediates["pie"]
        assert pie.sum() == pytest.approx(titanic_pdf["cat_0"].notna().sum())

    def test_exact_distinct(self, cat_result, titanic_pdf):
        s = cat_result.intermediates["stats"]
        assert s["n_distinct_exact"] == titanic_pdf["cat_0"].nunique()

    def test_word_frequencies(self, spark):
        pdf = pd.DataFrame({"t": ["red apple", "red car", "blue apple pie", None]})
        df = spark.createDataFrame(pdf)
        words = word_frequency_pass(df, "t", top_n=10)
        wc = words["word_counts"]
        assert wc["red"] == 2 and wc["apple"] == 2
        assert words["n_words"] == 7
        assert words["n_distinct_words"] == 5

    def test_word_mean_length(self, spark):
        pdf = pd.DataFrame({"t": ["ab cd", "ab"]})
        df = spark.createDataFrame(pdf)
        words = word_frequency_pass(df, "t", top_n=5)
        assert words["mean_word_length"] == pytest.approx(2.0)


class TestDispatch:
    def test_unknown_column(self, titanic):
        with pytest.raises(KeyError):
            plot(titanic, "nope")

    def test_col2_without_col1(self, titanic):
        with pytest.raises(ValueError):
            plot(titanic, None, "num_0")

    def test_datetime_out_of_scope(self, spark):
        pdf = pd.DataFrame({"d": pd.to_datetime(["2020-01-01", "2021-02-03"])})
        df = spark.createDataFrame(pdf)
        with pytest.raises(TypeError):
            plot(df, "d")


def test_box_plot_stats_shared_quantiles():
    q = {0.25: 1.0, 0.5: 2.0, 0.75: 4.0}
    box = box_plot_stats(q, 1.5)
    assert box["iqr"] == 3.0
    assert box["lower_whisker"] == 1.0 - 4.5
    assert box["upper_whisker"] == 4.0 + 4.5


class TestRowCount:
    """``nrows`` is the table's row count, whatever the cells hold."""

    def test_numeric_nrows_counts_inf_rows(self, spark):
        df = spark.createDataFrame(
            pd.DataFrame({"x": [1.0, np.inf, -np.inf, np.nan, None, 2.0]})
        )
        r = plot(df, "x")
        inter = r.intermediates
        assert inter["nrows"] == 6
        nmissing = int(inter["stats"]["nmissing"])
        assert nmissing == 2
        (miss,) = [i for i in r.insights if i.kind == "missing"]
        assert miss.value == nmissing / 6

    def test_categorical_carries_nrows(self, cat_result, titanic_pdf):
        assert cat_result.intermediates["nrows"] == len(titanic_pdf)
