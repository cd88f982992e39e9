"""A report's column section is what ``plot(df, col)`` returns: both are
built by the same driver-side shaping (``univariate.shape_numerical`` /
``shape_categorical``) from the same reduced pieces."""
import numpy as np
import pandas as pd

from repro import datasets
from repro.core import create_report, plot
from repro.core.intermediates import Intermediates


def assert_same(a, b, path="", skip=()):
    """Recursive equality: arrays bytewise, floats exactly (NaN == NaN)."""
    if isinstance(a, Intermediates):
        assert isinstance(b, Intermediates) and a.task == b.task, path
        a, b = a.data, b.data
    if isinstance(a, dict):
        assert isinstance(b, dict), path
        assert set(a) - set(skip) == set(b) - set(skip), path
        for k in a:
            if k not in skip:
                assert_same(a[k], b[k], f"{path}.{k}", skip)
    elif isinstance(a, np.ndarray):
        assert isinstance(b, np.ndarray) and a.dtype == b.dtype and a.shape == b.shape, path
        assert a.tobytes() == b.tobytes(), path
    elif isinstance(a, pd.Series):
        pd.testing.assert_series_equal(a, b, check_exact=True, obj=path)
    elif isinstance(a, float) and a != a:
        assert isinstance(b, float) and b != b, path
    else:
        assert type(a) is type(b) and a == b, path


def check_parity(df, report, skip=()):
    for c, t in report.intermediates["types"].items():
        if t == "datetime":
            continue
        assert_same(report.intermediates["variables"][c], plot(df, c).intermediates,
                    c, ("words", *skip))


def test_titanic(titanic, report_result):
    # 891 rows ≤ kde.sample_size: both samples hold every non-missing row
    check_parity(titanic, report_result)


def test_adult(spark):
    # 49 000 rows: the report and plot(df, col) draw different samples
    df = datasets.load(spark, "adult", partitions=4)
    df.cache().count()
    try:
        check_parity(df, create_report(df), skip=("kde", "n_outliers_est"))
    finally:
        df.unpersist()


def test_degenerate_numeric_columns(spark):
    g = np.random.default_rng(5)
    n = 120
    inf = g.normal(0, 1, n)
    inf[[3, 40]] = np.inf
    inf[[8]] = -np.inf
    inf[[11, 12]] = np.nan
    pdf = pd.DataFrame(
        {
            "const": np.full(n, 3.0),
            "allnull": np.full(n, np.nan),
            "inf": inf,
            "x": g.normal(5, 2, n),
            "k": g.choice(["p", "q", "r"], n).astype(object),
        }
    )
    df = spark.createDataFrame(pdf).repartition(3)
    df.cache().count()
    try:
        report = create_report(df)
        variables = report.intermediates["variables"]
        assert variables["inf"]["nrows"] == n
        # a zero-variance column's Q-Q sample is its quantiles, not NaN
        assert (variables["const"]["qq"]["sample"] == 3.0).all()
        check_parity(df, report)
    finally:
        df.unpersist()
