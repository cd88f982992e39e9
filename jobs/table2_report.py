"""Table 2 reproduction entry point.

Runs report generation with the eager (Pandas-profiling-style) baseline
and the fused DataPrep.EDA pipeline over the 15 Table-2 dataset shapes,
then prints the paper-vs-measured Markdown table.

Usage::

    spark-submit jobs/table2_report.py [dataset ...]
    python jobs/table2_report.py titanic credit
"""
import sys

from repro import datasets
from repro.harness import build_session, format_table2, run_table2_row


def main(argv: list[str]) -> None:
    names = argv or [s.name for s in datasets.TABLE2_SPECS]
    spark = build_session("table2-report")
    spark.sparkContext.setLogLevel("ERROR")
    rows = []
    try:
        for name in names:
            row = run_table2_row(spark, name)
            rows.append(row)
            print(
                f"[table2] {name}: baseline={row.baseline_s:.1f}s "
                f"fused={row.dataprep_s:.1f}s speedup={row.speedup:.1f}x",
                flush=True,
            )
        print()
        print(format_table2(rows))
    finally:
        spark.stop()


if __name__ == "__main__":
    main(sys.argv[1:])
