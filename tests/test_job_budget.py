"""Spark job budget of the fused entry points.

The paper builds one graph per task (§5); here that is a fixed, small
number of Spark jobs per call that does not grow with the column count.
Jobs are counted with a job group set around one call and read back from
the status tracker. The budgets are the counts measured on the titanic
shape; a fusion regression shows up as a higher count.
"""
import uuid

import pytest

from repro.core import create_report, plot_missing

REPORT_JOBS = 17
PLOT_MISSING_JOBS = 7


def _count_jobs(spark, fn) -> int:
    sc = spark.sparkContext
    group = f"job-budget-{uuid.uuid4().hex}"
    sc.setJobGroup(group, "job budget")
    try:
        fn()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setLocalProperty("spark.job.description", None)
    return len(sc.statusTracker().getJobIdsForGroup(group))


def test_report_jobs_independent_of_width(spark, titanic, titanic_wide):
    narrow = _count_jobs(spark, lambda: create_report(titanic))
    wide = _count_jobs(spark, lambda: create_report(titanic_wide))
    assert narrow == wide, f"create_report ran {narrow} jobs on 12 columns, {wide} on 24"
    assert 0 < narrow <= REPORT_JOBS, f"create_report ran {narrow} Spark jobs"


@pytest.mark.parametrize("frame", ["titanic", "titanic_wide"])
def test_plot_missing_jobs(request, spark, frame):
    df = request.getfixturevalue(frame)
    n = _count_jobs(spark, lambda: plot_missing(df))
    assert 0 < n <= PLOT_MISSING_JOBS, f"plot_missing(df) ran {n} Spark jobs"
