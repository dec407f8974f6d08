package repro.perfbench

import scala.collection.mutable

/** Wall times of named set-up steps, repeated across set-up repetitions;
  * each step also becomes a span of the run's tracer.
  */
final class StepTimes {
  private val times = mutable.LinkedHashMap.empty[String, mutable.ArrayBuffer[Double]]

  def apply[T](name: String, tracer: Tracer)(body: => T): T = {
    val (r, s) = Jvm.timed(tracer.span(name)(body))
    times.getOrElseUpdate(name, mutable.ArrayBuffer.empty) += s
    r
  }

  /** Median seconds of step `name` over its repetitions. */
  def median(name: String): Double = Stats.median(times(name).toSeq)

  def all: Seq[(String, Seq[Double])] = times.toSeq.map { case (k, v) => k -> v.toSeq }
}
