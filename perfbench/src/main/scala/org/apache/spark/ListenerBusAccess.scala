package org.apache.spark

/** Bridge to Spark's internal listener bus: listener callbacks arrive on a
  * bus thread, so the benchmark drains the bus before it reads what its
  * listeners collected for a call.
  */
object ListenerBusAccess {
  def waitUntilEmpty(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
