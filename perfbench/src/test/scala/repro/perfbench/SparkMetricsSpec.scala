package repro.perfbench

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

class SparkMetricsSpec extends AnyFunSuite with BeforeAndAfterAll {
  private lazy val spark = SparkSession.builder()
    .master("local[2]")
    .config("spark.ui.enabled", "false")
    .config("spark.sql.shuffle.partitions", "3")
    .config("spark.local.dir", "target/test-spark")
    .config("spark.sql.warehouse.dir", "target/test-spark/warehouse")
    .getOrCreate()

  override def afterAll(): Unit = spark.stop()

  test("a shuffled aggregation splits into map and reduce stages") {
    val m = new SparkMetrics(spark)
    try {
      m.drain()
      val rows = spark.range(0, 1000, 1, 4)
        .select((col("id") % 10) as "k", explode(array(col("id"), col("id") + 1)) as "v")
        .groupBy("k").agg(sum("v"))
        .collect()
      assert(rows.length == 10)
      val w = m.drain()
      assert(w.jobs >= 1 && w.jobsS > 0)
      assert(w.mapStages >= 1 && w.reduceStages >= 1)
      assert(w.shuffleRecords > 0 && w.shuffleBytes > 0)
      assert(w.mapRunS >= 0 && w.reduceRunS >= 0 && w.mapCpuS > 0)
      assert(w.explodeRows == 2000L)
      // Drained: nothing carries over to the next call.
      val empty = m.drain()
      assert(empty.jobs == 0 && empty.shuffleRecords == 0 && empty.explodeRows == 0)
    } finally m.close()
  }

  test("a job without a shuffle is all reduce side") {
    val m = new SparkMetrics(spark)
    try {
      m.drain()
      assert(spark.range(0, 100, 1, 2).filter(col("id") > 50).count() == 49)
      val w = m.drain()
      assert(w.shuffleRecords <= 2) // count() may shuffle one partial row per partition
      assert(w.explodeRows == 0)
    } finally m.close()
  }

  test("job wall time is the union of overlapping intervals") {
    assert(SparkMetrics.unionMs(Seq((0L, 10L), (5L, 15L), (20L, 25L))) == 20L)
    assert(SparkMetrics.unionMs(Seq((0L, 10L), (2L, 3L))) == 10L)
    assert(SparkMetrics.unionMs(Nil) == 0L)
  }
}
