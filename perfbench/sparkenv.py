"""A local Spark session confined to the checkout, and its clean shutdown.

Spark's Python workers are forked from the JVM, not from this process, so
they find ``repro`` only through ``PYTHONPATH``; putting ``src`` on this
process's ``sys.path`` alone makes ``mapInPandas`` fail inside the worker
with ``ModuleNotFoundError: No module named 'repro'``.
"""
from __future__ import annotations

import os
import time
from pathlib import Path


def start(src: Path, tmp: Path, cores: int):
    """Start ``local[cores]`` Spark with every scratch file under ``tmp``,
    then warm it: the first ``mapInPandas`` of a fresh session pays for
    starting the Python workers, which would otherwise land in the first
    timed history sweep. Returns the session and its start-up seconds."""
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH", "")) if p
    )
    os.environ["PYSPARK_SUBMIT_ARGS"] = f"--master local[{cores}] --driver-memory 1g pyspark-shell"
    (tmp / "spark").mkdir(parents=True, exist_ok=True)
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp / "spark")
    t0 = time.perf_counter()
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.master(f"local[{cores}]")
        .appName("perfbench")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.sql.warehouse.dir", str(tmp / "warehouse"))
        .config("spark.driver.extraJavaOptions", f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData")
        .config("spark.sql.shuffle.partitions", str(2 * cores))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    started = time.perf_counter() - t0

    def _warm(batches):
        import repro.history  # noqa: F401  (imports the simulator in each worker)

        yield from batches

    import pandas as pd

    spark.createDataFrame(pd.DataFrame({"x": list(range(4 * cores))})).repartition(
        4 * cores
    ).mapInPandas(_warm, schema="x long").count()
    return spark, started


def stop(spark) -> None:
    """Stop the session, then the gateway JVM, and wait for it to exit
    (its Python workers are its children and end with it)."""
    from pyspark import SparkContext

    spark.stop()
    gateway = SparkContext._gateway
    if gateway is None:
        return
    gateway.shutdown()
    proc = getattr(gateway, "proc", None)
    if proc is not None:
        if proc.stdin:
            proc.stdin.close()  # the JVM exits on end of its stdin
        proc.wait(timeout=60)
    SparkContext._gateway = None
    SparkContext._jvm = None
