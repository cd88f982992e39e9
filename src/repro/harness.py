"""Shared measurement harness for the Table-2 / Figure-5 / Figure-6 style
experiments: run both systems on a dataset, time them, emit table rows.

Used by ``benchmarks/`` (pytest-benchmark wrappers) and ``jobs/``
(spark-submit entry points) so the published numbers always come from the
same code path.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

from pyspark.sql import DataFrame, SparkSession

from repro import datasets
from repro.baseline import eager_profile_report
from repro.core import create_report

#: Paper Table 2 timings (seconds), diffed against measured rows by ``format_table2``.
PAPER_TABLE2 = {
    "heart": (17.7, 2.0, 8.6),
    "diabetes": (28.3, 1.6, 17.7),
    "automobile": (38.2, 3.9, 9.8),
    "titanic": (17.8, 2.1, 8.5),
    "women": (19.8, 2.3, 8.6),
    "credit": (127.0, 6.1, 20.8),
    "solar": (25.1, 2.7, 9.3),
    "suicide": (20.6, 2.8, 7.4),
    "diamonds": (28.2, 3.1, 9.0),
    "chess": (23.6, 4.3, 5.5),
    "adult": (23.2, 4.0, 5.8),
    "basketball": (126.2, 9.9, 12.7),
    "conflicts": (34.9, 8.6, 4.0),
    "rain": (100.1, 11.6, 8.6),
    "hotel": (83.2, 13.0, 6.4),
}


@dataclass
class Table2Row:
    dataset: str
    nrows: int
    ncols: int
    n_num: int
    n_cat: int
    baseline_s: float
    dataprep_s: float

    @property
    def speedup(self) -> float:
        return self.baseline_s / self.dataprep_s if self.dataprep_s else float("nan")


def load_dataset(spark: SparkSession, name: str, *, cache: bool = True) -> DataFrame:
    """Materialized dataset, mirroring the paper's setup where each tool
    loads the CSV with its own reader before profiling (loading is part of
    the measured end-to-end time in Table 2; here generation is excluded
    for both systems equally, so the ratio is unaffected)."""
    df = datasets.load(spark, name)
    if cache:
        df.cache().count()
    return df


def run_table2_row(spark: SparkSession, name: str) -> Table2Row:
    """Time baseline vs fused report on one dataset (one round each)."""
    spec = datasets.SPEC_BY_NAME[name]
    df = load_dataset(spark, name)
    try:
        t0 = time.perf_counter()
        eager_profile_report(df)
        baseline_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        create_report(df)
        dataprep_s = time.perf_counter() - t0
    finally:
        df.unpersist()
    return Table2Row(
        dataset=name, nrows=spec.nrows, ncols=spec.ncols,
        n_num=spec.n_num, n_cat=spec.n_cat,
        baseline_s=baseline_s, dataprep_s=dataprep_s,
    )


def format_table2(rows: list[Table2Row]) -> str:
    """Markdown table diffing paper numbers against measured ones."""
    out = [
        "| Dataset | #Rows | #Cols (N/C) | PP paper | DataPrep paper | paper× | baseline here | fused here | here× |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    for r in rows:
        pp, dp, ratio = PAPER_TABLE2[r.dataset]
        out.append(
            f"| {r.dataset} | {r.nrows} | {r.ncols} ({r.n_num}/{r.n_cat}) "
            f"| {pp:.1f}s | {dp:.1f}s | {ratio:.1f}× "
            f"| {r.baseline_s:.1f}s | {r.dataprep_s:.1f}s | {r.speedup:.1f}× |"
        )
    return "\n".join(out)


def build_session(app: str) -> SparkSession:
    """Session for ``python jobs/*.py`` runs (tests use the conftest fixture).

    ``spark.driver.memory`` and the JIT code-cache size are JVM-launch
    options, so they must go through ``PYSPARK_SUBMIT_ARGS`` before the
    gateway starts — a bare ``python jobs/...`` would otherwise run the
    whole local cluster in a 1g heap and OOM inside Catalyst codegen.
    Under ``spark-submit`` or pytest (conftest) the env var already exists
    and is left untouched.
    """
    import os

    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {os.environ.get('SPARK_DRIVER_MEM', '32g')} "
        '--conf "spark.driver.extraJavaOptions=-XX:ReservedCodeCacheSize=512m" '
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false "
        "pyspark-shell",
    )
    return (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", "16")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.ui.enabled", "false")
        .getOrCreate()
    )
