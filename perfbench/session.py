"""The benchmark's own Spark session: launch, run record, RSS probes, stop.

JVM-launch settings (master, heap, UI, console progress, temp dirs) go into
``PYSPARK_SUBMIT_ARGS`` before the gateway starts; setting them on a running
session raises ``CANNOT_MODIFY_CONFIG``. Every file Spark, the JVM or the
Python workers write goes under ``workdir``.
"""
from __future__ import annotations

import os
import shlex
import subprocess
from pathlib import Path

#: Cores of the local master; the workloads are sized for four.
MAX_CORES = 4
#: Heap of the driver JVM. The frames are small; a small heap keeps the
#: benchmark from crowding a shared machine.
DRIVER_MEMORY = "2g"
#: Status-store retention, raised so a traced run can still look up every
#: job and stage of its spans when it ends.
RETAINED = 100_000


def cores() -> int:
    return max(1, min(MAX_CORES, os.cpu_count() or 1))


def start(workdir: Path):
    """Launch a ``local[k]`` session whose scratch files stay under ``workdir``."""
    tmp = workdir / "tmp"
    local = workdir / "spark-local"
    for d in (tmp, local):
        d.mkdir(parents=True, exist_ok=True)
    k = cores()
    # A fixed-size heap and the stop-the-world parallel collector: no heap
    # resizing and no concurrent GC threads competing with the four task
    # threads, which made run-to-run times wander by 15-20 % under G1.
    jvm_opts = (
        f"-Xms{DRIVER_MEMORY} -XX:+UseParallelGC -XX:-UsePerfData -Djava.io.tmpdir={tmp}"
    )
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(local)
    os.environ["SPARK_LAUNCHER_OPTS"] = "-XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master local[{k}]",
            f"--driver-memory {DRIVER_MEMORY}",
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            f"--conf {shlex.quote('spark.driver.extraJavaOptions=' + jvm_opts)}",
            "pyspark-shell",
        ]
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", str(k))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.warehouse.dir", str(workdir / "warehouse"))
        .config("spark.ui.retainedJobs", str(RETAINED))
        .config("spark.ui.retainedStages", str(RETAINED))
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop(spark) -> None:
    """Stop the session, shut the gateway JVM down and wait for it to exit."""
    sc = spark.sparkContext
    gateway = sc._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    gateway.shutdown()
    if proc is not None:
        if proc.stdin:
            proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=30)


def jvm_pid(spark) -> int | None:
    proc = getattr(spark.sparkContext._gateway, "proc", None)
    return proc.pid if proc is not None else None


def clear_peak_rss(pid: int | str = "self") -> bool:
    """Reset the peak-RSS mark (``VmHWM``) of a process; False if refused."""
    try:
        Path(f"/proc/{pid}/clear_refs").write_text("5")
        return True
    except OSError:
        return False


def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` of a process in MB (2**20 bytes)."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def git_sha(root: Path) -> str | None:
    """Commit of ``root``; None outside a git clone."""
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None
