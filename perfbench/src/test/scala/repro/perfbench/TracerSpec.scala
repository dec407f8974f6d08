package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite

class TracerSpec extends AnyFunSuite {
  import Tracer.Span

  test("self time subtracts direct children, aggregates included") {
    val spans = Seq(
      Span(0, -1, "root", 0L, 1000L, 1),
      Span(1, 0, "child", 10L, 300L, 1),
      Span(2, 1, "grandchild", 20L, 100L, 1),
      Span(3, 0, "agg", -1L, 200L, 50))
    val self = Tracer.selfTimes(spans).map { case (n, s, c) => n -> (s, c) }.toMap
    assert(self("root") == (500e-9, 1L))
    assert(self("child") == (200e-9, 1L))
    assert(self("grandchild") == (100e-9, 1L))
    assert(self("agg") == (200e-9, 50L))
  }

  test("nested spans record their parents; a disabled tracer records nothing") {
    val t = new Tracer(true)
    val v = t.span("outer") { t.span("inner")(21) * 2 }
    assert(v == 42)
    val Seq(outer, inner) = t.all
    assert(outer.parent == -1 && inner.parent == outer.id)
    assert(outer.durNs >= inner.durNs)
    val off = new Tracer(false)
    off.span("x")(off.aggregate("y", 5L, 1L))
    assert(off.all.isEmpty)
  }

  test("gate counts attempts and failures, exceptions included") {
    val g = new Gate
    g.check("ok")(true)
    g.check("bad")(false)
    g.check("throws")(throw new IllegalStateException("boom"))
    assert(g.attempted == 3 && g.failed == 2)
  }

  test("covers: every truth file must be in the answer") {
    assert(KmerQuery.covers(Array(1, 3, 5, 9), Array(3, 9)))
    assert(KmerQuery.covers(Array(1, 2), Array.empty[Int]))
    assert(!KmerQuery.covers(Array(1, 3, 5), Array(4)))
    assert(!KmerQuery.covers(Array.empty[Int], Array(0)))
  }
}
