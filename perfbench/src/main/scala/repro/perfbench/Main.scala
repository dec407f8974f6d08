package repro.perfbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path, Paths}

import scala.jdk.CollectionConverters._

import org.apache.spark.sql.SparkSession

/** Benchmark entry point:
  *
  * {{{
  *   Main --workload kmer-query|build|fasta-e2e --seed N --seconds S --trace 0|1
  *        [--out-dir DIR] [--commit ID]
  * }}}
  *
  * Runs one workload, writes the full result (and, when traced, the spans) under
  * `--out-dir`, and prints the metrics followed by the one-line JSON result.
  * Exits 1 when a correctness gate failed, 2 on a usage or run error.
  */
object Main {

  val Workloads: Map[String, BenchWorkload] = Map(
    "kmer-query" -> KmerQuery, "build" -> BuildWorkload, "fasta-e2e" -> FastaE2e)

  def parseArgs(args: Array[String]): (RunConfig, String) = {
    val kv = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val workload = need("workload")
    require(Workloads.contains(workload), s"unknown workload '$workload'")
    val seconds = need("seconds").toInt
    require(seconds > 0, s"--seconds must be positive, got $seconds")
    val trace = need("trace") match {
      case "0" => false
      case "1" => true
      case t   => throw new IllegalArgumentException(s"--trace must be 0 or 1, got $t")
    }
    (RunConfig(workload, need("seed").toLong, seconds, trace,
      Paths.get(kv.getOrElse("out-dir", "perfbench-out")).toAbsolutePath),
      kv.getOrElse("commit", "unknown"))
  }

  /** Local Spark session on at most 4 of this machine's cores. */
  def session(outDir: Path): SparkSession = {
    val cores = math.min(4, Runtime.getRuntime.availableProcessors)
    val s = SparkSession.builder()
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", (2 * cores).toString)
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", outDir.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", outDir.resolve("spark-warehouse").toString)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  def environment(cfg: RunConfig, commit: String, spark: Option[SparkSession]): Seq[(String, String)] = {
    val rt = Runtime.getRuntime
    Seq(
      "workload" -> cfg.workload,
      "seed" -> cfg.seed.toString,
      "seconds" -> cfg.seconds.toString,
      "trace" -> (if (cfg.trace) "1" else "0"),
      "commit" -> commit,
      "nproc" -> rt.availableProcessors.toString,
      "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.runtime.version")}",
      "heap_max_mb" -> (rt.maxMemory / (1L << 20)).toString,
      "gc" -> java.lang.management.ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getName).mkString(","),
      "os" -> s"${System.getProperty("os.name")} ${System.getProperty("os.arch")}",
    ) ++ spark.toSeq.flatMap(s => Seq(
      "spark_version" -> s.version,
      "spark_master" -> s.sparkContext.master,
      "spark_shuffle_partitions" -> s.conf.get("spark.sql.shuffle.partitions")))
  }

  /** Check `outcome` reports exactly the metrics its workload measures, all
    * finite, and complete them with 0 for the layers the workload does not run.
    */
  def validate(cfg: RunConfig, outcome: Outcome): Seq[(String, Metric)] = {
    val specs = Catalog.measured(cfg.workload, cfg.trace)
    val missing = specs.map(_.name).filterNot(outcome.metrics.contains)
    val extra = outcome.metrics.keySet -- specs.map(_.name)
    require(missing.isEmpty && extra.isEmpty,
      s"metric set mismatch: missing ${missing.mkString(",")} extra ${extra.mkString(",")}")
    Catalog.expected(cfg.trace).map { s =>
      val v = outcome.metrics.getOrElse(s.name, 0.0)
      require(!v.isNaN && !v.isInfinite, s"metric ${s.name} is $v")
      s.name -> Metric(v, s.unit)
    }
  }

  /** Relative change of each shared metric from the untraced run of the
    * same workload and seed, when one was kept in `outDir`.
    */
  private def overheadVsUntraced(cfg: RunConfig, details: Seq[(String, Double)]): Seq[(String, Double)] = {
    val f = resultPath(cfg.copy(trace = false))
    if (!Files.exists(f)) Nil
    else {
      val untraced = Results.read(f).metrics.toMap
      details.collect { case (k, v) if k.startsWith("e2e.") && untraced.contains(k.drop(4)) =>
        val base = untraced(k.drop(4)).value
        s"trace_overhead_pct.${k.drop(4)}" -> (if (base == 0) 0.0 else 100.0 * (v - base) / base)
      }
    }
  }

  def resultPath(cfg: RunConfig): Path =
    cfg.outDir.resolve("results").resolve(
      s"${cfg.workload}-seed${cfg.seed}-trace${if (cfg.trace) 1 else 0}.json")

  private def writeTrace(cfg: RunConfig, tracer: Tracer): Path = {
    val mapper = Results.mapper
    val o = mapper.createObjectNode()
    val spans = o.putArray("spans")
    tracer.all.foreach { s =>
      spans.addObject().put("id", s.id).put("parent", s.parent).put("name", s.name)
        .put("start_ns", s.startNs).put("dur_ns", s.durNs).put("calls", s.calls)
    }
    val self = o.putArray("self_time")
    tracer.selfTimes.foreach { case (n, sec, calls) =>
      self.addObject().put("name", n).put("self_s", sec).put("calls", calls)
    }
    val p = cfg.outDir.resolve("traces").resolve(s"${cfg.workload}-seed${cfg.seed}.json")
    Files.createDirectories(p.getParent)
    Files.write(p, mapper.writerWithDefaultPrettyPrinter().writeValueAsString(o)
      .getBytes(StandardCharsets.UTF_8))
    p
  }

  def main(args: Array[String]): Unit = {
    val code = try {
      val (cfg, commit) = parseArgs(args)
      Files.createDirectories(cfg.outDir)
      val workload = Workloads(cfg.workload)
      val spark = if (workload.usesSpark) Some(session(cfg.outDir)) else None
      try {
        val tracer = new Tracer(cfg.trace)
        val gate = new Gate
        val outcome = workload.run(cfg, spark, tracer, gate)
        val metrics = validate(cfg, outcome)
        val details = outcome.details ++ (if (cfg.trace) overheadVsUntraced(cfg, outcome.details) else Nil)
        val result = RunResult(cfg.workload, cfg.seed, cfg.trace, cfg.seconds,
          correct = outcome.failed == 0, outcome.attempted, outcome.failed,
          metrics, details, environment(cfg, commit, spark))
        Results.write(resultPath(cfg), result)
        val tracePath = if (cfg.trace) Some(writeTrace(cfg, tracer)) else None

        gate.messages.foreach(m => Console.err.println(s"[perfbench] FAILED: $m"))
        println(s"[perfbench] env ${result.env.map { case (k, v) => s"$k=$v" }.mkString(" ")}")
        metrics.foreach { case (n, m) => println(f"[perfbench] $n%-36s ${m.value}%16.6f ${m.unit}") }
        details.filter(_._1.matches(".*(qps|p50_us|p99_us|build_s|e2e_s|overhead_pct.*)$"))
          .foreach { case (n, v) => println(f"[perfbench]   $n%-34s $v%16.6f") }
        tracePath.foreach(p => println(s"[perfbench] spans written to $p"))
        println(s"[perfbench] results written to ${resultPath(cfg)}")
        println(result.resultLine)
        if (result.correct) 0 else 1
      } finally spark.foreach(_.stop())
    } catch {
      case e: Exception =>
        Console.err.println(s"[perfbench] error: $e")
        e.printStackTrace()
        2
    }
    sys.exit(code)
  }
}
