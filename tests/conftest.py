"""Shared fixtures: cached synthetic datasets and precomputed EDA results.

Session scope keeps Spark work bounded: expensive results (overview,
report, correlation) are computed once and asserted on by many tests.
"""
import pandas as pd
import pytest

from repro import datasets, synth_data


@pytest.fixture(scope="session")
def titanic(spark):
    """Titanic-shaped Table-2 dataset (891 rows, 7 N / 5 C), cached."""
    df = datasets.load(spark, "titanic", partitions=4)
    df.cache().count()
    yield df
    df.unpersist()


@pytest.fixture(scope="session")
def titanic_wide(titanic):
    """titanic with every column duplicated: 24 columns, cached."""
    from repro.substrate.sparkutils import quote

    cols = [quote(c) for c in titanic.columns]
    dups = [f"{quote(c)} AS {quote(c + '_dup')}" for c in titanic.columns]
    df = titanic.selectExpr(*cols, *dups)
    df.cache().count()
    yield df
    df.unpersist()


@pytest.fixture(scope="session")
def titanic_pdf(titanic) -> pd.DataFrame:
    """The same rows as pandas, for oracle/pandas cross-checks."""
    return titanic.toPandas()


@pytest.fixture(scope="session")
def heart(spark):
    """All-numeric small dataset (303 rows, 14 N / 0 C), cached."""
    df = datasets.load(spark, "heart", partitions=2)
    df.cache().count()
    yield df
    df.unpersist()


@pytest.fixture(scope="session")
def heart_pdf(heart) -> pd.DataFrame:
    return heart.toPandas()


@pytest.fixture(scope="session")
def lineitem(spark):
    """TPC-H-lite lineitem at SF=0.01 (provided generator), cached."""
    df = synth_data.lineitem(spark, sf=0.01).repartition(8)
    df.cache().count()
    yield df
    df.unpersist()


@pytest.fixture(scope="session")
def lineitem_pdf(lineitem) -> pd.DataFrame:
    return lineitem.toPandas()


@pytest.fixture(scope="session")
def overview_result(titanic):
    from repro.core import plot

    return plot(titanic)


@pytest.fixture(scope="session")
def report_result(titanic):
    from repro.core import create_report

    return create_report(titanic)


@pytest.fixture(scope="session")
def baseline_report(titanic):
    from repro.baseline import eager_profile_report

    return eager_profile_report(titanic)


@pytest.fixture(scope="session")
def correlation_result(heart):
    from repro.core import plot_correlation

    return plot_correlation(heart)


@pytest.fixture(scope="session")
def missing_result(titanic):
    from repro.core import plot_missing

    return plot_missing(titanic)
