"""Public entry points on frames that used to break them: column names
that need quoting in SQL, and ±inf cells next to the analysed column."""
import numpy as np
import pandas as pd
import pytest

from repro.baseline import eager_profile_report
from repro.core import create_report, plot, plot_correlation, plot_missing

ODD = ["a.b", "c d", "e`f", "g"]


@pytest.fixture(scope="module")
def odd_pdf() -> pd.DataFrame:
    g = np.random.default_rng(7)
    n = 300
    pdf = pd.DataFrame(
        {
            "a.b": g.normal(10, 2, n),
            "c d": g.choice(["x", "y", "z"], n).astype(object),
            "e`f": g.uniform(0, 5, n),
            "g": g.normal(0, 1, n),
        }
    )
    pdf.loc[g.random(n) < 0.2, "a.b"] = np.nan
    pdf.loc[g.random(n) < 0.1, "c d"] = None
    pdf.loc[g.random(n) < 0.15, "e`f"] = np.nan
    return pdf


@pytest.fixture(scope="module")
def odd(spark, odd_pdf):
    df = spark.createDataFrame(odd_pdf).repartition(3)
    df.cache().count()
    yield df
    df.unpersist()


def test_odd_names_report_counts(odd, odd_pdf):
    inter = create_report(odd).intermediates
    assert inter["dataset_stats"]["nrows"] == len(odd_pdf)
    assert list(inter["variables"]) == ODD
    assert inter["missing"]["bar"].to_dict() == odd_pdf.isna().sum().to_dict()
    for c in ("a.b", "e`f", "g"):
        assert inter["variables"][c]["hist"]["counts"].sum() == odd_pdf[c].notna().sum()
    assert inter["value_counts"]["c d"].to_dict() == odd_pdf["c d"].value_counts().to_dict()
    assert set(inter["missing"]["spectrum"]["column"]) == set(ODD)


def test_odd_names_overview_counts(odd, odd_pdf):
    inter = plot(odd).intermediates
    assert inter["dataset_stats"]["nrows"] == len(odd_pdf)
    assert inter["dataset_stats"]["n_missing_cells"] == int(odd_pdf.isna().sum().sum())
    for c in ODD:
        assert inter["col_stats"][c]["nmissing"] == odd_pdf[c].isna().sum()
        assert inter["col_stats"][c]["count"] == odd_pdf[c].notna().sum()


def test_odd_names_missing_counts(odd, odd_pdf):
    inter = plot_missing(odd).intermediates
    assert inter["nrows"] == len(odd_pdf)
    assert inter["bar"].to_dict() == odd_pdf.isna().sum().to_dict()
    assert list(inter["nullity_corr"].index) == ["a.b", "c d", "e`f"]


def test_odd_names_correlation(odd, odd_pdf):
    inter = plot_correlation(odd).intermediates
    num = ["a.b", "e`f", "g"]
    want = odd_pdf[num].corr()
    np.testing.assert_allclose(
        inter["pearson"].loc[num, num].to_numpy(), want.to_numpy(), atol=1e-9
    )


@pytest.mark.parametrize("x,y", [("a.b", "e`f"), ("e`f", "g")])
def test_odd_names_num_num(odd, odd_pdf, x, y):
    inter = plot(odd, x, y).intermediates
    want = int((odd_pdf[x].notna() & odd_pdf[y].notna()).sum())
    assert inter["kind"] == "NN"
    assert inter["hexbin"]["count"].sum() == want
    assert inter["binned_box"]["count"].sum() == want
    assert list(inter["scatter"].columns) == [x, y]


@pytest.mark.parametrize("x,y", [("a.b", "c d"), ("c d", "e`f")])
def test_odd_names_num_cat(odd, odd_pdf, x, y):
    num, cat = (x, y) if x != "c d" else (y, x)
    inter = plot(odd, x, y).intermediates
    want = odd_pdf[odd_pdf[num].notna()][cat].value_counts().to_dict()
    assert inter["kind"] == "NC"
    assert dict(zip(inter["cat_box"]["g"], inter["cat_box"]["count"])) == want
    assert {g: int(v.sum()) for g, v in inter["lines"].items()} == want


def test_odd_names_eager_baseline(odd, odd_pdf):
    inter = eager_profile_report(odd)
    assert inter["dataset_stats"]["nrows"] == len(odd_pdf)
    assert inter["missing"]["bar"].to_dict() == odd_pdf.isna().sum().to_dict()
    for c in ODD:
        assert inter["variables"][c]["count"] == odd_pdf[c].notna().sum()
        assert inter["variables"][c]["nmissing"] == odd_pdf[c].isna().sum()
    grid = inter["interactions"][("a.b", "e`f")]
    assert grid["count"].sum() == (odd_pdf["a.b"].notna() & odd_pdf["e`f"].notna()).sum()


@pytest.fixture(scope="module")
def inf_pdf() -> pd.DataFrame:
    g = np.random.default_rng(11)
    n = 200
    pdf = pd.DataFrame({"c1": g.normal(0, 1, n), "c2": g.normal(5, 1, n), "c3": g.normal(0, 1, n)})
    pdf.loc[g.random(n) < 0.25, "c1"] = np.nan
    pdf.loc[[3, 50, 120], "c2"] = np.inf
    pdf.loc[[7, 51], "c2"] = -np.inf
    pdf.loc[[9, 60], "c2"] = np.nan
    return pdf


def test_plot_missing_col_with_inf_in_other_column(spark, inf_pdf):
    df = spark.createDataFrame(inf_pdf)
    inter = plot_missing(df, "c1").intermediates
    frame = inter["numeric"]["c2"]
    c2 = inf_pdf["c2"].to_numpy()
    kept = inf_pdf["c1"].notna().to_numpy()
    assert frame["before"].sum() == np.isfinite(c2).sum()
    assert frame["after"].sum() == np.isfinite(c2[kept]).sum()
    assert np.isfinite(frame.attrs["edges"]).all()
    assert inter["n_dropped"] == inf_pdf["c1"].isna().sum()


def test_plot_missing_pair_with_inf_target(spark, inf_pdf):
    df = spark.createDataFrame(inf_pdf)
    inter = plot_missing(df, "c1", "c2").intermediates
    c2 = inf_pdf["c2"].to_numpy()
    kept = inf_pdf["c1"].notna().to_numpy()
    assert inter["hist"]["before"].sum() == np.isfinite(c2).sum()
    assert inter["hist"]["after"].sum() == np.isfinite(c2[kept]).sum()
    assert np.isfinite(list(inter["box"]["before"].values())).all()


@pytest.mark.parametrize("x", ["c2", "c3"])
def test_plot_num_num_with_inf(spark, inf_pdf, x):
    """±inf in either column: the pair still returns, and every row with
    both values non-NaN is binned (±inf rows land in an edge bin)."""
    df = spark.createDataFrame(inf_pdf)
    a, b = (x, "c2") if x == "c3" else ("c2", "c3")
    inter = plot(df, a, b).intermediates
    want = int((inf_pdf[a].notna() & inf_pdf[b].notna()).sum())
    assert inter["kind"] == "NN"
    assert inter["hexbin"]["count"].sum() == want
    assert inter["binned_box"]["count"].sum() == want


def test_plot_num_cat_with_inf(spark, inf_pdf):
    pdf = inf_pdf.assign(g=np.where(np.arange(len(inf_pdf)) % 3 == 0, "p", "q"))
    df = spark.createDataFrame(pdf)
    inter = plot(df, "c2", "g").intermediates
    kept = pdf[pdf["c2"].notna()]
    want = kept["g"].value_counts().to_dict()
    assert inter["kind"] == "NC"
    assert dict(zip(inter["cat_box"]["g"], inter["cat_box"]["count"])) == want
    assert {g: int(v.sum()) for g, v in inter["lines"].items()} == want


def test_eager_interactions_mask_inf(spark, inf_pdf):
    """One ±inf cell must not stretch the baseline's hexbin span: the grid
    bins the pairs where both values are finite, like the report's."""
    df = spark.createDataFrame(inf_pdf)
    grid = eager_profile_report(df, config={"correlation.methods": ()})["interactions"][("c2", "c3")]
    c2, c3 = inf_pdf["c2"].to_numpy(), inf_pdf["c3"].to_numpy()
    assert grid["count"].sum() == (np.isfinite(c2) & np.isfinite(c3)).sum()
    assert grid["xbin"].nunique() > 1
