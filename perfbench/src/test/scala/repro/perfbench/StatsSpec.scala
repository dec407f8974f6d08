package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite

class StatsSpec extends AnyFunSuite {

  test("nearest-rank percentiles of a known array") {
    val xs = (1L to 100L).toArray
    assert(Stats.percentile(xs, 50) == 50L)
    assert(Stats.percentile(xs, 99) == 99L)
    assert(Stats.percentile(xs, 100) == 100L)
    assert(Stats.percentile(xs, 0.5) == 1L)
    assert(Stats.percentile(Array(7L), 99) == 7L)
  }

  test("percentile rejects empty input and out-of-range p") {
    intercept[IllegalArgumentException](Stats.percentile(Array.empty[Long], 50))
    intercept[IllegalArgumentException](Stats.percentile(Array(1L), 0))
    intercept[IllegalArgumentException](Stats.percentile(Array(1L), 101))
  }

  test("median of odd and even counts, order-independent") {
    assert(Stats.median(Seq(3.0, 1.0, 2.0)) == 2.0)
    assert(Stats.median(Seq(4.0, 1.0, 3.0, 2.0)) == 2.5)
  }

  test("quartiles match Python's statistics.quantiles(n=4)") {
    // Reference values printed by CPython's statistics.quantiles.
    assert(Stats.quantiles((1 to 10).map(_.toDouble)) == Seq(2.75, 5.5, 8.25))
    assert(Stats.quantiles(Seq(3.0, 1.0)) == Seq(0.5, 2.0, 3.5))
    assert(Stats.quantiles(Seq(5.0, 1.0, 4.0, 2.0, 3.0)) == Seq(1.5, 3.0, 4.5))
  }

  test("latency summary in microseconds") {
    val l = Stats.latency(Array.tabulate(1000)(i => (i + 1) * 1000L))
    assert(l.samples == 1000)
    assert(l.p50Us == 500.0 && l.p99Us == 990.0)
    assert(math.abs(l.meanUs - 500.5) < 1e-9)
  }
}
