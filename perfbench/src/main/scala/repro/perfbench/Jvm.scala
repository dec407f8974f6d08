package repro.perfbench

import java.lang.management.ManagementFactory

import scala.jdk.CollectionConverters._

/** Driver-JVM counters and the wall clock read around timed sections. The
  * benchmark keeps these to itself rather than using the program's timers, so
  * a change to the program cannot change how it is measured.
  */
object Jvm {
  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  /** Bytes allocated so far by the calling thread. */
  def threadAllocatedBytes(): Long = threads.getCurrentThreadAllocatedBytes

  /** Total collection time of all garbage collectors, in seconds. */
  def gcSeconds(): Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(b => math.max(b.getCollectionTime, 0L)).sum / 1e3

  /** Wall time of `body` in seconds. */
  def timed[T](body: => T): (T, Double) = {
    val t0 = System.nanoTime()
    val r = body
    (r, (System.nanoTime() - t0) / 1e9)
  }
}
