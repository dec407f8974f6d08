package repro.perfbench

import scala.collection.mutable

/** In-memory span recorder for traced runs.
  *
  * A span covers one call the benchmark makes into a program layer. Hot
  * per-query calls are not recorded one by one: the workload sums their
  * nanoseconds itself and files them as one aggregate span with a call count.
  * Spans are kept in memory and written out once, when the run ends.
  * A disabled tracer runs bodies untouched and records nothing.
  */
final class Tracer(val enabled: Boolean) {
  import Tracer.Span

  private val spans = mutable.ArrayBuffer.empty[Span]
  private var stack: List[Int] = Nil

  /** Time `body` as a child of the innermost open span. */
  def span[T](name: String)(body: => T): T =
    if (!enabled) body
    else {
      val id = spans.length
      val parent = stack.headOption.getOrElse(-1)
      val t0 = System.nanoTime()
      spans += Span(id, parent, name, t0, 0L, 1L)
      stack = id :: stack
      try body
      finally {
        stack = stack.tail
        spans(id) = spans(id).copy(durNs = System.nanoTime() - t0)
      }
    }

  /** File `calls` calls totalling `ns` nanoseconds as one child span of the
    * innermost open span.
    */
  def aggregate(name: String, ns: Long, calls: Long): Unit =
    if (enabled) {
      val parent = stack.headOption.getOrElse(-1)
      spans += Span(spans.length, parent, name, -1L, ns, calls)
    }

  def all: Seq[Span] = spans.toSeq

  /** Self time per span name in seconds: each span's duration minus the
    * time its direct children cover, summed over spans of that name.
    */
  def selfTimes: Seq[(String, Double, Long)] = Tracer.selfTimes(spans.toSeq)
}

object Tracer {

  /** One recorded span; `startNs` is -1 for aggregates of many calls. */
  final case class Span(id: Int, parent: Int, name: String, startNs: Long, durNs: Long, calls: Long)

  /** (name, self seconds, calls) per span name, in first-seen order. */
  def selfTimes(spans: Seq[Span]): Seq[(String, Double, Long)] = {
    val childNs = mutable.HashMap.empty[Int, Long].withDefaultValue(0L)
    spans.foreach(s => if (s.parent >= 0) childNs(s.parent) += s.durNs)
    val byName = mutable.LinkedHashMap.empty[String, (Long, Long)]
    spans.foreach { s =>
      val (ns, calls) = byName.getOrElse(s.name, (0L, 0L))
      byName(s.name) = (ns + s.durNs - childNs(s.id), calls + s.calls)
    }
    byName.toSeq.map { case (n, (ns, calls)) => (n, ns / 1e9, calls) }
  }
}
