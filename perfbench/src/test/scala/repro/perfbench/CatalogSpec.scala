package repro.perfbench

import java.nio.file.{Files, Paths}

import scala.jdk.CollectionConverters._

import org.scalatest.funsuite.AnyFunSuite

class CatalogSpec extends AnyFunSuite {
  private val all = Catalog.endToEnd ++ Catalog.perLayer

  test("metric names and units use the allowed characters") {
    all.foreach { m =>
      assert(m.name.matches("[A-Za-z0-9_.-]+") && m.name.length <= 64, m.name)
      assert(m.name.head.isLetterOrDigit, m.name)
      assert(m.unit.matches("[A-Za-z0-9_/%.-]{1,16}"), m.unit)
      assert(Set("lower", "higher")(m.better), m.better)
    }
  }

  test("every metric name is used once") {
    assert(all.map(_.name).distinct.size == all.size)
  }

  test("every run reports setup_s, and every layer is measured on some workload") {
    assert(Catalog.expected(trace = false).exists(_.name == "setup_s"))
    val run = Catalog.Workloads.flatMap(Catalog.layersRun).toSet
    assert(Catalog.perLayer.map(_.name).toSet == run)
    Catalog.Workloads.foreach { w =>
      assert(Catalog.measured(w, trace = false) == Catalog.endToEnd, w)
      assert(Catalog.measured(w, trace = true).nonEmpty, w)
    }
  }

  test("BENCHMARK.json lists the catalogue's workloads and metrics") {
    val f = Paths.get("..", "BENCHMARK.json")
    assume(Files.exists(f), "BENCHMARK.json not found next to the benchmark directory")
    val j = Results.mapper.readTree(Files.readAllBytes(f))
    def specs(key: String) = j.get(key).elements().asScala.toSeq.map { n =>
      Catalog.MetricSpec(n.get("name").asText(), n.get("unit").asText(), n.get("better").asText())
    }
    assert(j.get("workloads").elements().asScala.map(_.get("name").asText()).toSeq == Catalog.Workloads)
    assert(specs("end_to_end") == Catalog.endToEnd)
    assert(specs("per_layer").toSet == Catalog.perLayer.toSet)
  }
}
