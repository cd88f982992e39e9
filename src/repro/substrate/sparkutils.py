"""Spark helpers shared by the fused EDA passes.

The passes build their Catalyst plans from SQL text, not from PySpark
``Column`` calls. Every ``Column`` function is a handful of Py4J round
trips (PySpark wraps each one in call-site capture), so a report built
column-call by column-call spent most of its driver time on plan
construction. A ``selectExpr`` of strings costs one round trip per string
instead. The vocabulary below is the one definition of "missing",
"clean numeric" and "equi-width bin" that every pass and the eager
baseline share.
"""
from __future__ import annotations

import math

from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

__all__ = [
    "quote",
    "double_sql",
    "finite_sql",
    "numeric_sql",
    "infinite_sql",
    "missing_sql",
    "missing_count_sql",
    "bin_sql",
    "with_row_index",
    "null_indicators",
]

#: Spark dtypes (``df.dtypes`` spelling) that can hold NaN and ±inf.
_FLOAT_DTYPES = ("double", "float")


def quote(name: str) -> str:
    """``name`` as a SQL identifier: backticks, with inner backticks doubled."""
    return "`" + name.replace("`", "``") + "`"


def double_sql(x: float) -> str:
    """A double literal that parses back to exactly ``float(x)``.

    Finite values are written as ``repr`` plus the ``D`` suffix; NaN and
    ±inf have no literal spelling in Spark SQL, so they become casts.
    """
    x = float(x)
    if math.isnan(x):
        return "CAST('NaN' AS DOUBLE)"
    if math.isinf(x):
        return "CAST('Infinity' AS DOUBLE)" if x > 0 else "CAST('-Infinity' AS DOUBLE)"
    return repr(x) + "D"


def finite_sql(name: str, dtype: str) -> str:
    """Column ``name`` in its own type, with NaN and ±inf turned into NULL."""
    q = quote(name)
    if dtype not in _FLOAT_DTYPES:
        return q
    return f"CASE WHEN isnan({q}) OR {infinite_sql(name)} THEN NULL ELSE {q} END"


def numeric_sql(name: str, dtype: str) -> str:
    """Column ``name`` cast to double with NaN and ±inf turned into NULL."""
    return f"CAST({finite_sql(name, dtype)} AS DOUBLE)"


def infinite_sql(name: str) -> str:
    """Boolean: the cell, cast to double, is +inf or -inf (NULL for NULL)."""
    return f"CAST({quote(name)} AS DOUBLE) IN ({double_sql(math.inf)}, {double_sql(-math.inf)})"


def missing_sql(name: str, dtype: str) -> str:
    """Boolean: the cell is NULL, or NaN for float columns."""
    q = quote(name)
    if dtype not in _FLOAT_DTYPES:
        return f"({q} IS NULL)"
    return f"({q} IS NULL OR isnan({q}))"


def missing_count_sql(name: str, dtype: str) -> str:
    """Aggregate: number of missing cells of ``name`` (``missing_sql``)."""
    return f"sum(CAST({missing_sql(name, dtype)} AS BIGINT))"


def bin_sql(value_sql: str, mn: float, mx: float, bins: int) -> str:
    """0-based equi-width bin of ``value_sql`` over ``[mn, mx]`` in ``bins`` bins.

    NULL stays NULL, ``mx`` lands in the last bin, and a constant range
    (``mx == mn``) puts every value in bin 0. ``least`` skips NULLs in
    Spark, hence the explicit guard.
    """
    if mx == mn:
        return f"CASE WHEN {value_sql} IS NOT NULL THEN 0 END"
    lo, hi = double_sql(mn), double_sql(mx)
    idx = f"CAST(FLOOR(({value_sql} - {lo}) / (({hi} - {lo}) / {bins})) AS INT)"
    return f"CASE WHEN {value_sql} IS NOT NULL THEN LEAST({idx}, {bins - 1}) END"


def with_row_index(df: DataFrame, name: str = "row_index") -> DataFrame:
    """Contiguous 0-based row index without collapsing to one partition.

    ``monotonically_increasing_id`` is not contiguous; a global
    ``row_number`` window is single-partition. Instead: number rows within
    each partition (parallel window over ``spark_partition_id``), count rows
    per partition, and add the driver-computed cumulative offset back via a
    broadcast join — the DataFrame version of ``zipWithIndex``.
    Ordering follows current partition layout (file/row locality, not a
    semantic order).

    No pass calls this any more: ``missing.spectrum_pass`` reads partition
    offsets and in-partition positions off ``monotonically_increasing_id``
    instead. It stays because the benchmark's layer list
    (``perfbench/layers.json``) traces it by name, and the tracer raises on
    a missing function; it goes with the next change to the benchmark.
    """
    pid = F.spark_partition_id()
    tagged = df.withColumn("__pid", pid).withColumn(
        "__pos",
        F.row_number().over(
            Window.partitionBy("__pid").orderBy(F.monotonically_increasing_id())
        )
        - 1,
    )
    counts = (
        tagged.groupBy("__pid").count().orderBy("__pid").collect()
    )
    offsets, acc = {}, 0
    for row in counts:
        offsets[row["__pid"]] = acc
        acc += row["count"]
    spark = df.sparkSession
    offsets_df = spark.createDataFrame(
        [(int(k), int(v)) for k, v in offsets.items()] or [(0, 0)],
        "___pid INT, __offset BIGINT",
    )
    return (
        tagged.join(
            F.broadcast(offsets_df), tagged["__pid"] == offsets_df["___pid"], "left"
        )
        .withColumn(name, F.coalesce(F.col("__pos") + F.col("__offset"), F.col("__pos")))
        .drop("__pid", "__pos", "___pid", "__offset")
    )


def null_indicators(df: DataFrame, cols: list[str] | None = None) -> DataFrame:
    """0/1 missingness indicator frame (``missing_sql``) with the same
    column names.

    ``NaN`` in float columns counts as missing — the pandas semantics that
    Pandas-profiling and Missingno assume. Non-float types (strings) only
    check ``isNull``.
    """
    cols = cols or df.columns
    dtypes = dict(df.dtypes)
    return df.selectExpr(
        *[f"CAST({missing_sql(c, dtypes[c])} AS INT) AS {quote(c)}" for c in cols]
    )
