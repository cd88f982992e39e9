"""Tests for create_report and the eager baseline — including the
apples-to-apples agreement check: both systems must produce the same
numbers (only the execution strategy differs), otherwise Table 2 would be
comparing different computations.
"""
import numpy as np
import pandas as pd
import pytest

from repro.core import create_report
from repro.core.config import Config
from repro.core.correlation import pearson_matrix
from repro.core.missing import missing_counts_pass, nullity_correlation


class TestReport:
    def test_sections_present(self, report_result):
        for section in ("Overview", "Variables", "Interactions", "Correlations", "Missing Values"):
            assert section in report_result.html

    def test_all_columns_profiled(self, report_result, titanic_pdf):
        variables = report_result.intermediates["variables"]
        assert set(variables) == set(titanic_pdf.columns)

    def test_numeric_variable_contents(self, report_result):
        v = report_result.intermediates["variables"]["num_0"]
        for key in ("stats", "hist", "kde", "qq", "box"):
            assert key in v, key

    def test_categorical_variable_contents(self, report_result):
        v = report_result.intermediates["variables"]["cat_0"]
        assert "stats" in v and "bar" in v

    def test_interactions_all_numeric_pairs(self, report_result):
        inter = report_result.intermediates["interactions"]
        assert len(inter) == 7 * 6 // 2

    def test_correlation_matrices_complete(self, report_result):
        corr = report_result.intermediates["correlations"]
        for m in ("pearson", "spearman", "kendall"):
            assert corr[m].shape == (7, 7)

    def test_missing_section(self, report_result, titanic_pdf):
        miss = report_result.intermediates["missing"]
        assert miss["bar"].sum() == titanic_pdf.isna().sum().sum()
        assert "dendrogram" in miss and "spectrum" in miss

    def test_quantiles_shared_with_box(self, report_result):
        # box geometry must be derived from the same quantile pass
        v = report_result.intermediates["variables"]["num_0"]
        q = v["stats"]["quantiles"]
        assert v["box"]["q1"] == q[0.25]
        assert v["box"]["q3"] == q[0.75]


class TestBaselineAgreement:
    """The eager profiler must agree with the fused pipeline."""

    def test_dataset_stats_agree(self, report_result, baseline_report):
        a = report_result.intermediates["dataset_stats"]
        b = baseline_report["dataset_stats"]
        for key in ("nrows", "ncols", "n_numerical", "n_categorical", "n_duplicate_rows"):
            assert a[key] == b[key], key

    @pytest.mark.parametrize("col", [f"num_{i}" for i in range(7)])
    def test_numeric_stats_agree(self, report_result, baseline_report, col):
        a = report_result.intermediates["variables"][col]["stats"]
        b = baseline_report["variables"][col]
        assert int(a["count"]) == int(b["count"])
        assert int(a["nmissing"]) == int(b["nmissing"])
        assert a["mean"] == pytest.approx(b["mean"], rel=1e-9)
        assert a["std"] == pytest.approx(b["std"], rel=1e-9)
        assert a["min"] == pytest.approx(b["min"])
        assert a["max"] == pytest.approx(b["max"])
        assert a["skew"] == pytest.approx(b["skew"], rel=1e-6)

    @pytest.mark.parametrize("col", [f"num_{i}" for i in range(7)])
    def test_histograms_agree(self, report_result, baseline_report, col):
        a_counts = report_result.intermediates["variables"][col]["hist"]["counts"]
        b_counts, _ = baseline_report["variables"][col]["hist"]
        assert (np.asarray(a_counts) == np.asarray(b_counts)).all()

    @pytest.mark.parametrize("col", [f"cat_{i}" for i in range(5)])
    def test_value_counts_agree(self, report_result, baseline_report, col):
        a = report_result.intermediates["value_counts"][col]
        b = baseline_report["variables"][col]["value_counts"]
        common = min(len(a), len(b), 20)
        assert a.head(common).to_dict() == b.head(common).to_dict()

    def test_pearson_agrees(self, report_result, baseline_report):
        a = report_result.intermediates["correlations"]["pearson"]
        b = baseline_report["correlations"]["pearson"]
        assert np.allclose(a.values, b.values, atol=1e-9, equal_nan=True)

    def test_spearman_agrees(self, report_result, baseline_report):
        a = report_result.intermediates["correlations"]["spearman"]
        b = baseline_report["correlations"]["spearman"]
        assert np.allclose(a.values, b.values, atol=1e-9, equal_nan=True)

    def test_kendall_close(self, report_result, baseline_report):
        # different seeded samples → close, not identical
        a = report_result.intermediates["correlations"]["kendall"]
        b = baseline_report["correlations"]["kendall"]
        assert np.allclose(a.values, b.values, atol=0.15, equal_nan=True)

    def test_missing_bars_agree(self, report_result, baseline_report):
        a = report_result.intermediates["missing"]["bar"]
        b = baseline_report["missing"]["bar"]
        assert a.sort_index().to_dict() == b.sort_index().to_dict()

    def test_interactions_agree(self, report_result, baseline_report):
        a = report_result.intermediates["interactions"]
        b = baseline_report["interactions"]
        assert set(a) == set(b)

        def cells(grid):
            return set(zip(*(grid[k].astype(int).tolist() for k in ("xbin", "ybin", "count"))))

        for pair in a:
            assert cells(a[pair]) == cells(b[pair]), pair

    def test_nullity_corr_agrees(self, report_result, baseline_report):
        a = report_result.intermediates["missing"]["nullity_corr"]
        b = baseline_report["missing"]["nullity_corr"]
        assert list(a.index) == list(b.index)
        if len(a):
            assert np.allclose(
                a.values.astype(float), b.values.astype(float), atol=1e-9, equal_nan=True
            )


class TestSharedComomentScan:
    """The report takes its Pearson matrix and nullity heatmap from one
    co-moment scan; each must equal its standalone computation."""

    @pytest.fixture(scope="class")
    def one_missing(self, spark):
        """Exactly one partially-missing column, so the heatmap is empty."""
        g = np.random.default_rng(11)
        pdf = pd.DataFrame(
            {"x": g.random(200), "y": g.random(200), "k": g.choice(["u", "v"], 200).astype(object)}
        )
        pdf.loc[g.random(200) < 0.3, "x"] = np.nan
        return spark.createDataFrame(pdf).repartition(3)

    @staticmethod
    def check(df, inter, pearson=True):
        nrows, miss = missing_counts_pass(df)
        pd.testing.assert_frame_equal(
            inter["missing"]["nullity_corr"], nullity_correlation(df, miss, nrows), check_exact=True
        )
        corr = inter["correlations"]
        if not pearson:
            assert "pearson" not in corr
            return
        num_cols = [c for c, t in inter["types"].items() if t == "numerical"]
        pd.testing.assert_frame_equal(
            corr["pearson"], pearson_matrix(df, num_cols), check_exact=False, rtol=0, atol=1e-12
        )

    def test_titanic(self, titanic, report_result):
        assert report_result.intermediates["missing"]["nullity_corr"].shape[0] >= 2
        self.check(titanic, report_result.intermediates)

    def test_one_partially_missing_column(self, one_missing):
        inter = create_report(one_missing).intermediates
        assert inter["missing"]["nullity_corr"].shape == (1, 1)
        self.check(one_missing, inter)

    def test_without_pearson(self, titanic):
        inter = create_report(titanic, config={"correlation.methods": ("spearman",)}).intermediates
        self.check(titanic, inter, pearson=False)


class TestReportConfig:
    def test_report_title_config(self, titanic):
        from repro.core import create_report

        r = create_report(titanic, config={"render.report_title": "My Report", "correlation.methods": ("pearson",)})
        assert "My Report" in r.html

    def test_report_insights_nonempty(self, report_result):
        assert len(report_result.insights) > 0

    def test_fewer_methods_fewer_work(self, titanic):
        from repro.core import create_report

        r = create_report(titanic, config={"correlation.methods": ()})
        assert r.intermediates["correlations"] == {}
