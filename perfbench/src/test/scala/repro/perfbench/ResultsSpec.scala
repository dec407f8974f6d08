package repro.perfbench

import java.nio.file.{Files, Paths}

import org.scalatest.funsuite.AnyFunSuite

class ResultsSpec extends AnyFunSuite {
  private val sample = RunResult(
    workload = "kmer-query", seed = 7L, trace = false, seconds = 10,
    correct = true, attempted = 120000L, failed = 0L,
    metrics = Seq("setup_s" -> Metric(4.287476943, "s"), "rambo.slice.qps" -> Metric(525146.48042065, "1/s")),
    details = Seq("rambo.slice.p50_us" -> 1.574, "rounds" -> 5.0),
    env = Seq("nproc" -> "4", "commit" -> "abc123"))

  test("results file round trip keeps every field and digit") {
    val dir = Paths.get("target", "test-out")
    Files.createDirectories(dir)
    val f = dir.resolve("roundtrip.json")
    Results.write(f, sample)
    assert(Results.read(f) == sample)
  }

  test("result line holds exactly the four contract keys") {
    val node = Results.mapper.readTree(sample.resultLine)
    val keys = scala.jdk.CollectionConverters.IteratorHasAsScala(node.fieldNames()).asScala.toSet
    assert(keys == Set("correct", "attempted", "failed", "metrics"))
    assert(node.get("metrics").get("setup_s").get("value").asDouble() == 4.287476943)
    assert(node.get("metrics").get("rambo.slice.qps").get("unit").asText() == "1/s")
    assert(!sample.resultLine.contains("\n"))
  }
}
