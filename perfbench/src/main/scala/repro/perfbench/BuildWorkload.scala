package repro.perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.util.SizeEstimator

import repro.core.{Bigsi, BigsiIndex, Rambo, RamboIndex}
import repro.eval.{Experiments, FprEval, GroundTruth, Workload}
import repro.genome.SynthGenomes
import repro.util.BitVector

/** `build`: the write side of the `kmer-query` corpus. The cached
  * (file_id, kmer) DataFrame is built into RAMBO and BIGSI indexes of the
  * same geometry with the Spark builders. A build is timed to its index's
  * first answer on each path: `<m>.probe_ms` is `buildSpark` plus one probe
  * query, `<m>.slice_ms` adds the first `matrix` access and one bitsliced
  * query. Each build is gated bit-for-bit against a single-threaded reference
  * build made once in set-up. The last build of each method is then scored
  * for FP on the `kmer-query` batch of the same seed and sized.
  */
object BuildWorkload extends BenchWorkload {
  import KmerQuery.{BigsiM, D, Eta, NNegative, NPositive, RamboM, W}

  /** Builds of each method per run, at least. Build times still fall over
    * the first few builds after warm-up, so a fixed minimum keeps the median
    * the same build of the sequence whatever `--seconds` allows.
    */
  val MinBuilds = 3

  /** The cached corpus is spread round-robin over this many partitions, four
    * per core of `local[4]`. As generated, its partitions are uneven enough
    * that one task carried most of a build, and build times followed that
    * task's core.
    */
  val InputPartitions = 16

  def usesSpark: Boolean = true

  /** One timed build: to the first probe answer, to the first bitsliced
    * answer (through the first `matrix` access), to answers on both paths,
    * in `buildSpark`, in the first `matrix` access, and (traced) the Spark
    * work it caused.
    */
  private final case class Timed[I](index: I, probeS: Double, sliceS: Double, buildS: Double,
                                    sparkS: Double, matrixS: Double, work: Option[SparkWork])

  def run(cfg: RunConfig, sparkOpt: Option[SparkSession], tracer: Tracer, gate: Gate): Outcome = {
    val spark = sparkOpt.get
    val steps = new StepTimes
    val spec = Experiments.Corpus3480.copy(seed = cfg.seed)
    val n = spec.nFiles

    val (setupOut, setupS) = Jvm.timed(tracer.span("setup") {
      val df = steps("eval.corpus", tracer) {
        val d = SynthGenomes.corpus(spark, spec).repartition(InputPartitions).cache(); d.count(); d
      }
      val local = SynthGenomes.corpusLocal(spec)
      val (refR, refB) = steps("reference", tracer) {
        (Rambo.buildLocal(local, n, W, D, RamboM, Eta), Bigsi.buildLocal(local, n, BigsiM, Eta))
      }
      val truth = steps("eval.truth", tracer)(GroundTruth.fromLocal(local, n))
      val queries = steps("eval.queries", tracer)(
        Workload.queries(spec, truth, NPositive, NNegative, seed = cfg.seed))
      (df, refR, refB, local.head, truth.byKmer.size, queries)
    })
    val (df, refR, refB, (probeFile, probeKmer), truthEntries, queries) = setupOut

    // Set-up leaves the local reference corpus behind as old-generation
    // garbage; collect it now, before the warm-up, rather than in the middle
    // of a timed build.
    System.gc()
    // Warm-up: one untimed full-size build of each method.
    tracer.span("warmup") {
      Rambo.buildSpark(df, n, W, D, RamboM, Eta).matrix
      Bigsi.buildSpark(df, n, BigsiM, Eta).matrix
    }
    val listener = if (cfg.trace) Some(new SparkMetrics(spark)) else None
    listener.foreach(_.drain())
    val gc0 = Jvm.gcSeconds()

    def sameBits(a: Array[repro.bloom.BloomFilter], b: Array[repro.bloom.BloomFilter]): Boolean =
      a.length == b.length && a.indices.forall(i => a(i).bits == b(i).bits)

    def timedBuild[I](name: String, build: DataFrame => I, matrix: I => Any,
                      probe: I => Array[Int], slice: I => Array[Int], matches: I => Boolean): Timed[I] =
      tracer.span(s"core.$name.build") {
        val t0 = System.nanoTime()
        val idx = tracer.span(s"core.$name.build_spark")(build(df))
        val t1 = System.nanoTime()
        val probed = probe(idx)
        val t2 = System.nanoTime()
        tracer.span(s"core.$name.matrix")(matrix(idx))
        val t3 = System.nanoTime()
        val sliced = slice(idx)
        val t4 = System.nanoTime()
        val work = listener.map(_.drain())
        gate.check(s"$name build differs from the reference build") {
          matches(idx) && java.util.Arrays.equals(probed, sliced) && probed.contains(probeFile)
        }
        Timed(idx, (t2 - t0) / 1e9, ((t1 - t0) + (t4 - t2)) / 1e9, (t4 - t0) / 1e9,
          (t1 - t0) / 1e9, (t3 - t2) / 1e9, work)
      }

    def buildRambo() = timedBuild[RamboIndex]("rambo",
      d => Rambo.buildSpark(d, n, W, D, RamboM, Eta), _.matrix,
      _.queryProbe(probeKmer).setBits, _.queryBitsliced(probeKmer).setBits,
      i => sameBits(i.columns, refR.columns))
    def buildBigsi() = timedBuild[BigsiIndex]("bigsi",
      d => Bigsi.buildSpark(d, n, BigsiM, Eta), _.matrix,
      _.queryProbe(probeKmer).setBits, _.queryBitsliced(probeKmer).setBits,
      i => sameBits(i.columns, refB.columns))

    val rambo = scala.collection.mutable.ArrayBuffer.empty[Timed[RamboIndex]]
    val bigsi = scala.collection.mutable.ArrayBuffer.empty[Timed[BigsiIndex]]
    val start = System.nanoTime()
    while (rambo.length < MinBuilds || System.nanoTime() - start < cfg.seconds * 1000000000L) {
      rambo += buildRambo()
      bigsi += buildBigsi()
    }
    listener.foreach(_.close())
    val partitions = df.rdd.getNumPartitions
    df.unpersist(true)

    val details = scala.collection.mutable.ArrayBuffer.empty[(String, Double)]
    details += ("builds" -> rambo.length.toDouble)
    details += ("corpus_partitions" -> partitions.toDouble)
    steps.all.foreach { case (k, v) => details += (s"$k.s" -> v.head) }
    val metrics = scala.collection.mutable.LinkedHashMap.empty[String, Double]
    metrics("setup_s") = setupS
    for ((name, runs) <- Seq[(String, Seq[Timed[_]])]("rambo" -> rambo.toSeq, "bigsi" -> bigsi.toSeq)) {
      metrics(s"$name.probe_ms") = 1e3 * Stats.median(runs.map(_.probeS))
      metrics(s"$name.slice_ms") = 1e3 * Stats.median(runs.map(_.sliceS))
      details += (s"$name.build_s" -> Stats.median(runs.map(_.buildS)))
      runs.zipWithIndex.foreach { case (t, i) => details += (s"$name.build_s.run$i" -> t.buildS) }
    }
    // Quality and size of what the last builds produced, outside the timing.
    // The answers come from the bitsliced path, which the gate above holds
    // equal to the probe path.
    tracer.span("eval.fp") {
      for ((name, answer) <- Seq[(String, String => BitVector)](
             "rambo" -> rambo.last.index.queryBitsliced, "bigsi" -> bigsi.last.index.queryBitsliced)) {
        val ev = FprEval.evaluate(answer, queries, n)
        gate.check(s"$name false negatives: ${ev.falseNegatives}")(ev.falseNegatives == 0)
        metrics(s"$name.fp_pct") = ev.fpPercent
      }
    }
    metrics("rambo.index_mb") = SizeEstimator.estimate(rambo.last.index) / 1e6
    metrics("bigsi.index_mb") = SizeEstimator.estimate(bigsi.last.index) / 1e6
    if (!cfg.trace)
      return Outcome(gate.attempted, gate.failed, metrics.toMap, details.toSeq)

    val out = scala.collection.mutable.LinkedHashMap.empty[String, Double]
    for ((name, runs) <- Seq[(String, Seq[Timed[_]])]("rambo" -> rambo.toSeq, "bigsi" -> bigsi.toSeq))
      out ++= layerMetrics(name, runs.map(t => (t.sparkS, t.matrixS, t.work.get)))
    out("jvm.gc_s") = Jvm.gcSeconds() - gc0
    out("eval.corpus_s") = steps.median("eval.corpus")
    out("eval.truth_s") = steps.median("eval.truth")
    out("eval.truth_entries") = truthEntries.toDouble
    Outcome(gate.attempted, gate.failed, out.toMap,
      details.toSeq ++ metrics.toSeq.map { case (k, v) => s"e2e.$k" -> v })
  }

  /** Per-layer build metrics of `method`, medians over builds given as
    * (buildSpark seconds, first-matrix seconds, Spark work).
    */
  def layerMetrics(method: String, builds: Seq[(Double, Double, SparkWork)]): Seq[(String, Double)] = {
    def med(f: ((Double, Double, SparkWork)) => Double) = Stats.median(builds.map(f))
    val p = s"core.$method.build"
    Seq(
      s"$p.jobs_s" -> med(_._3.jobsS),
      s"$p.driver_s" -> med(b => b._1 - b._3.jobsS),
      s"$p.matrix_s" -> med(_._2),
      s"$p.map_run_s" -> med(_._3.mapRunS),
      s"$p.map_cpu_s" -> med(_._3.mapCpuS),
      s"$p.reduce_run_s" -> med(_._3.reduceRunS),
      s"$p.reduce_cpu_s" -> med(_._3.reduceCpuS),
      s"$p.shuffle_mb" -> med(_._3.shuffleBytes / 1e6),
      s"$p.shuffle_records" -> med(_._3.shuffleRecords.toDouble),
      s"$p.fetch_wait_s" -> med(_._3.fetchWaitS),
      s"$p.explode_rows" -> med(_._3.explodeRows.toDouble),
      s"$p.gc_s" -> med(_._3.gcS))
  }
}
