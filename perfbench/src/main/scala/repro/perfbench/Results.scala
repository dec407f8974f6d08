package repro.perfbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path}

import scala.jdk.CollectionConverters._

import com.fasterxml.jackson.databind.{JsonNode, ObjectMapper}
import com.fasterxml.jackson.databind.node.ObjectNode

final case class Metric(value: Double, unit: String)

/** Outcome of one benchmark run.
  *
  * @param metrics  the reported metrics, in catalogue order
  * @param details  further numbers for the reader (medians, sample counts,
  *                 per-pass figures); not part of the checked result
  * @param env      the environment the numbers were measured in
  */
final case class RunResult(
    workload: String,
    seed: Long,
    trace: Boolean,
    seconds: Int,
    correct: Boolean,
    attempted: Long,
    failed: Long,
    metrics: Seq[(String, Metric)],
    details: Seq[(String, Double)],
    env: Seq[(String, String)]) {

  /** The one-line result the benchmark prints last. */
  def resultLine: String = Results.mapper.writeValueAsString(Results.resultNode(this))
}

object Results {
  private[perfbench] val mapper = new ObjectMapper()

  private[perfbench] def resultNode(r: RunResult): ObjectNode = {
    val o = mapper.createObjectNode()
    o.put("correct", r.correct)
    o.put("attempted", r.attempted)
    o.put("failed", r.failed)
    val ms = o.putObject("metrics")
    r.metrics.foreach { case (name, m) =>
      ms.putObject(name).put("value", m.value).put("unit", m.unit)
    }
    o
  }

  /** The full record: the result line plus run identity, details and environment. */
  def toJson(r: RunResult): String = {
    val o = mapper.createObjectNode()
    o.put("workload", r.workload)
    o.put("seed", r.seed)
    o.put("trace", r.trace)
    o.put("seconds", r.seconds)
    o.setAll[JsonNode](resultNode(r))
    val d = o.putObject("details")
    r.details.foreach { case (k, v) => d.put(k, v) }
    val e = o.putObject("env")
    r.env.foreach { case (k, v) => e.put(k, v) }
    mapper.writerWithDefaultPrettyPrinter().writeValueAsString(o)
  }

  def fromJson(text: String): RunResult = {
    val o = mapper.readTree(text)
    def fields(n: JsonNode) = n.properties().asScala.toSeq.map(e => e.getKey -> e.getValue)
    RunResult(
      workload = o.get("workload").asText(),
      seed = o.get("seed").asLong(),
      trace = o.get("trace").asBoolean(),
      seconds = o.get("seconds").asInt(),
      correct = o.get("correct").asBoolean(),
      attempted = o.get("attempted").asLong(),
      failed = o.get("failed").asLong(),
      metrics = fields(o.get("metrics")).map { case (k, v) =>
        k -> Metric(v.get("value").asDouble(), v.get("unit").asText())
      },
      details = fields(o.get("details")).map { case (k, v) => k -> v.asDouble() },
      env = fields(o.get("env")).map { case (k, v) => k -> v.asText() })
  }

  def write(path: Path, r: RunResult): Unit = {
    Files.createDirectories(path.getParent)
    Files.write(path, toJson(r).getBytes(StandardCharsets.UTF_8))
  }

  def read(path: Path): RunResult =
    fromJson(new String(Files.readAllBytes(path), StandardCharsets.UTF_8))
}
