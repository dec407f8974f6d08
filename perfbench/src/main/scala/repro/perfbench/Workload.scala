package repro.perfbench

import java.nio.file.Path

import org.apache.spark.sql.SparkSession

/** Settings of one run, from the command line. */
final case class RunConfig(workload: String, seed: Long, seconds: Int, trace: Boolean, outDir: Path)

/** What a workload measured: operations attempted and failed, the metric
  * values by catalogue name, and further details for the results file.
  */
final case class Outcome(
    attempted: Long,
    failed: Long,
    metrics: Map[String, Double],
    details: Seq[(String, Double)])

/** Counts operations and keeps the first few failure messages. */
final class Gate {
  var attempted = 0L
  var failed = 0L
  val messages = scala.collection.mutable.ArrayBuffer.empty[String]

  /** Record one operation; `ok` false (or a thrown exception) fails it. */
  def check(what: => String)(ok: => Boolean): Unit = {
    val passed = try ok catch { case e: Exception => messages += s"$what: $e"; false }
    if (passed) pass() else fail(what)
  }

  /** Record a passed operation (allocation-free, for hot loops). */
  def pass(): Unit = attempted += 1

  /** Record a failed operation. */
  def fail(what: String): Unit = {
    attempted += 1
    failed += 1
    if (messages.length < 10) messages += what
  }
}

/** A benchmark workload: set-up, then a measured phase of `seconds`. Spark
  * workloads receive the run's session; the others get None.
  */
trait BenchWorkload {
  def usesSpark: Boolean
  def run(cfg: RunConfig, spark: Option[SparkSession], tracer: Tracer, gate: Gate): Outcome
}
