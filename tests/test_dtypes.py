"""Unit tests for EDA column-type detection."""
import pandas as pd
import pytest
from pyspark.sql import types as T

from repro.core.dtypes import EDAType, detect_type, detect_types

SCHEMA_CASES = [
    (T.IntegerType(), EDAType.NUMERICAL),
    (T.LongType(), EDAType.NUMERICAL),
    (T.ShortType(), EDAType.NUMERICAL),
    (T.ByteType(), EDAType.NUMERICAL),
    (T.FloatType(), EDAType.NUMERICAL),
    (T.DoubleType(), EDAType.NUMERICAL),
    (T.DecimalType(10, 2), EDAType.NUMERICAL),
    (T.StringType(), EDAType.CATEGORICAL),
    (T.BooleanType(), EDAType.CATEGORICAL),
    (T.DateType(), EDAType.DATETIME),
    (T.TimestampType(), EDAType.DATETIME),
]


@pytest.mark.parametrize("dtype,expected", SCHEMA_CASES, ids=lambda x: str(x))
def test_detect_type_per_spark_type(spark, dtype, expected):
    df = spark.createDataFrame([], T.StructType([T.StructField("c", dtype)]))
    assert detect_type(df, "c") is expected


def test_unsupported_type_raises(spark):
    schema = T.StructType([T.StructField("c", T.ArrayType(T.IntegerType()))])
    df = spark.createDataFrame([], schema)
    with pytest.raises(TypeError):
        detect_type(df, "c")


def test_detect_types_and_selectors(spark):
    pdf = pd.DataFrame(
        {
            "n1": [1, 2],
            "n2": [1.5, 2.5],
            "c1": ["a", "b"],
            "d1": pd.to_datetime(["2020-01-01", "2020-01-02"]),
        }
    )
    df = spark.createDataFrame(pdf)
    types = detect_types(df)
    assert types["n1"] is EDAType.NUMERICAL
    assert types["n2"] is EDAType.NUMERICAL
    assert types["c1"] is EDAType.CATEGORICAL
    assert types["d1"] is EDAType.DATETIME
    assert [c for c, t in types.items() if t is EDAType.NUMERICAL] == ["n1", "n2"]
    assert [c for c, t in types.items() if t is EDAType.CATEGORICAL] == ["c1"]


def test_table2_specs_detected_as_declared(spark):
    from repro import datasets

    df = datasets.load(spark, "automobile", partitions=2)
    spec = datasets.SPEC_BY_NAME["automobile"]
    types = list(detect_types(df).values())
    assert types.count(EDAType.NUMERICAL) == spec.n_num
    assert types.count(EDAType.CATEGORICAL) == spec.n_cat
