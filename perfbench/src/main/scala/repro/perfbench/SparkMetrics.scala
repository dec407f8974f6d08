package repro.perfbench

import scala.collection.mutable

import org.apache.spark.ListenerBusAccess
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart, SparkListenerStageCompleted}
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.execution.{GenerateExec, QueryExecution}
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.util.QueryExecutionListener

/** What Spark did for one traced call into the program (a build or a query).
  *
  * Map stages are the stages that write shuffle output; the rest (the final
  * aggregation and result stages) are reduce stages.
  */
final case class SparkWork(
    jobs: Int,
    jobsS: Double,
    mapStages: Int,
    mapRunS: Double,
    mapCpuS: Double,
    reduceStages: Int,
    reduceRunS: Double,
    reduceCpuS: Double,
    shuffleBytes: Long,
    shuffleRecords: Long,
    fetchWaitS: Double,
    gcS: Double,
    explodeRows: Long)

/** A SparkListener plus a QueryExecutionListener that the benchmark registers
  * on its session in traced runs. They accumulate stage metrics, job wall
  * time and the rows produced by Generate (explode) nodes; [[drain]] returns
  * and resets what accumulated since the previous drain.
  */
final class SparkMetrics(spark: SparkSession) extends SparkListener with QueryExecutionListener {
  private final class Acc {
    var jobs = 0
    val jobSpans = mutable.ArrayBuffer.empty[(Long, Long)]
    var mapStages = 0; var mapRunMs = 0L; var mapCpuNs = 0L
    var reduceStages = 0; var reduceRunMs = 0L; var reduceCpuNs = 0L
    var shuffleBytes = 0L; var shuffleRecords = 0L
    var fetchWaitMs = 0L; var gcMs = 0L; var explodeRows = 0L
  }
  private var acc = new Acc
  private val jobStart = mutable.HashMap.empty[Int, Long]

  spark.sparkContext.addSparkListener(this)
  spark.listenerManager.register(this)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    jobStart(e.jobId) = e.time
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobStart.remove(e.jobId).foreach { t0 => acc.jobs += 1; acc.jobSpans += ((t0, e.time)) }
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    val tm = e.stageInfo.taskMetrics
    if (tm != null) {
      val w = tm.shuffleWriteMetrics
      if (w.bytesWritten > 0 || w.recordsWritten > 0) {
        acc.mapStages += 1; acc.mapRunMs += tm.executorRunTime; acc.mapCpuNs += tm.executorCpuTime
        acc.shuffleBytes += w.bytesWritten; acc.shuffleRecords += w.recordsWritten
      } else {
        acc.reduceStages += 1; acc.reduceRunMs += tm.executorRunTime; acc.reduceCpuNs += tm.executorCpuTime
      }
      acc.fetchWaitMs += tm.shuffleReadMetrics.fetchWaitTime
      acc.gcMs += tm.jvmGCTime
    }
  }

  override def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit = synchronized {
    acc.explodeRows += SparkMetrics.generatedRows(qe)
  }

  override def onFailure(funcName: String, qe: QueryExecution, exception: Exception): Unit = ()

  /** Everything accumulated since the last drain, once the listener bus has
    * delivered all pending events.
    */
  def drain(): SparkWork = {
    ListenerBusAccess.waitUntilEmpty(spark.sparkContext)
    synchronized {
      val a = acc
      acc = new Acc
      SparkWork(a.jobs, SparkMetrics.unionMs(a.jobSpans.toSeq) / 1e3,
        a.mapStages, a.mapRunMs / 1e3, a.mapCpuNs / 1e9,
        a.reduceStages, a.reduceRunMs / 1e3, a.reduceCpuNs / 1e9,
        a.shuffleBytes, a.shuffleRecords, a.fetchWaitMs / 1e3, a.gcMs / 1e3, a.explodeRows)
    }
  }

  def close(): Unit = {
    spark.sparkContext.removeSparkListener(this)
    spark.listenerManager.unregister(this)
  }
}

object SparkMetrics extends AdaptiveSparkPlanHelper {

  /** Output rows of every Generate node of an executed plan, looking through
    * adaptive query stages.
    */
  def generatedRows(qe: QueryExecution): Long =
    collect(qe.executedPlan) { case g: GenerateExec => g }
      .map(_.metrics.get("numOutputRows").map(_.value).getOrElse(0L)).sum

  /** Milliseconds covered by the union of [start, end) intervals. */
  def unionMs(spans: Seq[(Long, Long)]): Long = {
    var covered = 0L
    var reach = Long.MinValue
    spans.sortBy(_._1).foreach { case (s, e) =>
      val from = math.max(s, reach)
      if (e > from) covered += e - from
      reach = math.max(reach, e)
    }
    covered
  }
}
