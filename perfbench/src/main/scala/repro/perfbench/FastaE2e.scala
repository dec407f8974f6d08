package repro.perfbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path}

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.{col, udf}
import org.apache.spark.util.SizeEstimator

import repro.core.{Bigsi, BigsiIndex, QueryEngine, Rambo, RamboIndex}
import repro.eval.GroundTruth
import repro.genome.{Dna, Fasta, Kmers, SynthGenomes}
import repro.util.Hashing

/** `fasta-e2e`: the user's whole path. A seeded directory of FASTA files is
  * parsed, decomposed into distinct (file_id, kmer) pairs, built into a RAMBO
  * index and a BIGSI index on Spark, and each index answers a query batch
  * down to materialised (qid, file_id) rows, on two paths: the
  * broadcast/UDF query engine (probe path), and a bitsliced loop on the
  * driver after the first `matrix` access. `<m>.<p>_ms` is one pass from the
  * FASTA directory to method m's rows on path p: the shared parse and k-mer
  * extraction, m's build, and p's answers. `rambo.probe_ms` is the path the
  * paper's system serves (kept in the results file as `fasta.e2e_s`).
  *
  * Each contig is half private sequence and half a block shared with the
  * three neighbouring files, so most distinct k-mers live in one file and the
  * rest in four: the build sees near-disjoint cell unions, unlike the
  * Zipf-shared corpus of `kmer-query` and `build`.
  */
object FastaE2e extends BenchWorkload {
  val NFiles = 160
  val Contigs = 4
  val ContigLen = 2000
  /** One block per file: block b is shared by files b-3 .. b. */
  val SharedBlocks = NFiles
  val K = 31
  /** W ≈ 1.7·√N, the rule behind the paper's W=100 at N=3480. */
  val W = 20
  val D = 3
  val M = 262144
  val Eta = 3
  /** BIGSI bits per file, for the ~7,900 distinct k-mers each file holds. */
  val BigsiM = 131072
  val NPositive = 6000
  val NNegative = 24000
  val SetupReps = 3
  /** Passes per run, at least; the first runs cold, and the median of three
    * is a warm one.
    */
  val MinPasses = 3

  def usesSpark: Boolean = true

  private final class Inputs(val dir: Path, val pairs: Long, val queries: DataFrame,
                             val batch: Array[(Long, String)], val truth: Set[(Long, Int)]) {
    def numQueries: Int = batch.length
  }

  private def deleteTree(p: Path): Unit =
    if (Files.exists(p)) {
      val s = Files.walk(p)
      try s.sorted(java.util.Comparator.reverseOrder[Path]()).forEach(q => Files.delete(q))
      finally s.close()
    }

  private def setup(spark: SparkSession, cfg: RunConfig, tracer: Tracer, steps: StepTimes): Inputs =
    tracer.span("setup") {
      import spark.implicits._
      val dir = cfg.outDir.resolve(s"fasta-seed${cfg.seed}")
      val files = steps("eval.corpus", tracer) {
        deleteTree(dir)
        Files.createDirectories(dir)
        SynthGenomes.writeFastaCorpus(dir, NFiles, Contigs, ContigLen, SharedBlocks, seed = cfg.seed)
      }
      // Reference pairs straight from the written files, without Spark.
      val local = steps("eval.reference", tracer) {
        files.zipWithIndex.flatMap { case (path, f) =>
          val text = new String(Files.readAllBytes(path), StandardCharsets.US_ASCII)
          Fasta.parse(text).flatMap(r => Kmers.kmerSet(r.sequence, K)).distinct.map(f -> _)
        }
      }
      val (queries, queryDf) = steps("eval.queries", tracer) {
        val present = local.iterator.map(_._2).toSet
        val pos = (0 until NPositive).map(i =>
          local(math.floorMod(Hashing.splitmix64(cfg.seed + i), local.length.toLong).toInt)._2)
        val neg = (0 until NNegative).map(i =>
          Dna.randomKmer(K, Hashing.splitmix64(~cfg.seed ^ (i * 0x94d049bb133111ebL))))
          .filterNot(present)
        val qs = (pos ++ neg).zipWithIndex.map { case (k, i) => (i.toLong, k) }
        (qs, qs.toDF("qid", "kmer").cache())
      }
      // Only pairs of queried k-mers can join, so the reference corpus is cut
      // to those before it is shipped to Spark.
      val truth = steps("eval.truth", tracer) {
        val queried = queries.iterator.map(_._2).toSet
        val corpus = local.filter(p => queried.contains(p._2)).toDF("file_id", "kmer")
        GroundTruth.truthDf(spark, queryDf, corpus).as[(Long, Int)].collect().toSet
      }
      new Inputs(dir, local.length.toLong, queryDf, queries.toArray, truth)
    }

  /** One method's part of a pass: its build, the engine's (probe) rows, the
    * first `matrix` access and the bitsliced rows, with their times.
    */
  private final case class Answered(buildS: Double, probeS: Double, matrixS: Double, sliceS: Double,
                                    probeRows: Array[(Long, Int)], sliceRows: Array[(Long, Int)],
                                    index: AnyRef, build: Option[SparkWork])

  /** Times of one end-to-end pass, and its output rows per method. */
  private final case class Pass(readS: Double, kmersS: Double, records: Long, pairs: Long,
                                methods: Map[String, Answered]) {
    def inputS: Double = readS + kmersS
    def probeS(m: String): Double = inputS + methods(m).buildS + methods(m).probeS
    def sliceS(m: String): Double = inputS + methods(m).buildS + methods(m).matrixS + methods(m).sliceS
  }

  private def answer[I <: AnyRef](spark: SparkSession, in: Inputs, tracer: Tracer,
                                  listener: Option[SparkMetrics], name: String,
                                  build: () => I, engine: I => DataFrame, matrix: I => Any,
                                  slice: (I, String) => Array[Int]): Answered = {
    import spark.implicits._
    listener.foreach(_.drain())
    val t0 = System.nanoTime()
    val index = tracer.span(s"core.$name.build_spark")(build())
    val t1 = System.nanoTime()
    val work = listener.map(_.drain())
    val probeRows = tracer.span(s"core.engine.$name")(engine(index).as[(Long, Int)].collect())
    val t2 = System.nanoTime()
    tracer.span(s"core.$name.matrix")(matrix(index))
    val t3 = System.nanoTime()
    val sliceRows = tracer.span(s"core.$name.slice_rows") {
      val rows = Array.newBuilder[(Long, Int)]
      in.batch.foreach { case (qid, kmer) => slice(index, kmer).foreach(f => rows += (qid -> f)) }
      rows.result()
    }
    val t4 = System.nanoTime()
    Answered((t1 - t0) / 1e9, (t2 - t1) / 1e9, (t3 - t2) / 1e9, (t4 - t3) / 1e9,
      probeRows, sliceRows, index, work)
  }

  private def pass(spark: SparkSession, in: Inputs, tracer: Tracer,
                   listener: Option[SparkMetrics]): Pass = tracer.span("fasta.e2e") {
    val fileId = udf((name: String) => name.stripPrefix("file").stripSuffix(".fasta").toInt)
    val t0 = System.nanoTime()
    val parsed = tracer.span("genome.read") {
      val p = Fasta.readDirectory(spark, in.dir.toString).cache(); (p, p.count())
    }
    val t1 = System.nanoTime()
    val pairs = tracer.span("genome.kmers") {
      val p = Kmers.explodeKmers(parsed._1, col("sequence"), K)
        .select(fileId(col("file_name")) as "file_id", col("kmer"))
        .distinct().cache()
      (p, p.count())
    }
    parsed._1.unpersist()
    val t2 = System.nanoTime()
    val rambo = answer[RamboIndex](spark, in, tracer, listener, "rambo",
      () => Rambo.buildSpark(pairs._1, NFiles, W, D, M, Eta),
      QueryEngine.queryRambo(spark, in.queries, _), _.matrix, _.queryBitsliced(_).setBits)
    val bigsi = answer[BigsiIndex](spark, in, tracer, listener, "bigsi",
      () => Bigsi.buildSpark(pairs._1, NFiles, BigsiM, Eta),
      QueryEngine.queryBigsi(spark, in.queries, _), _.matrix, _.queryBitsliced(_).setBits)
    pairs._1.unpersist()
    Pass((t1 - t0) / 1e9, (t2 - t1) / 1e9, parsed._2, pairs._2, Map("rambo" -> rambo, "bigsi" -> bigsi))
  }

  def run(cfg: RunConfig, sparkOpt: Option[SparkSession], tracer: Tracer, gate: Gate): Outcome = {
    val spark = sparkOpt.get
    val steps = new StepTimes
    var in: Inputs = null
    val setupS = (1 to SetupReps).map { _ =>
      if (in != null) in.queries.unpersist()
      Jvm.timed { in = setup(spark, cfg, tracer, steps) }._2
    }
    val negatives = in.numQueries.toLong * NFiles - in.truth.size

    def gated(p: Pass): Pass = {
      for ((name, a) <- p.methods) {
        val got = a.probeRows.toSet
        gate.check(s"fasta-e2e $name rows miss ${in.truth.count(t => !got.contains(t))} truth rows, " +
          s"pairs ${p.pairs} vs reference ${in.pairs}, bitsliced rows differ: ${a.sliceRows.toSet != got}") {
          p.pairs == in.pairs && in.truth.forall(got.contains) && a.sliceRows.toSet == got
        }
      }
      p
    }

    System.gc() // set-up garbage, collected before the timed passes
    val listener = if (cfg.trace) Some(new SparkMetrics(spark)) else None
    val gc0 = Jvm.gcSeconds()
    val passes = scala.collection.mutable.ArrayBuffer.empty[Pass]
    val start = System.nanoTime()
    while (passes.length < MinPasses || System.nanoTime() - start < cfg.seconds * 1000000000L)
      passes += gated(pass(spark, in, tracer, listener))
    listener.foreach(_.close())
    in.queries.unpersist()
    deleteTree(in.dir)

    def med(f: Pass => Double) = Stats.median(passes.map(f).toSeq)
    val details = scala.collection.mutable.ArrayBuffer.empty[(String, Double)]
    details += ("passes" -> passes.length.toDouble)
    details += ("fasta.e2e_s" -> med(_.probeS("rambo")))
    passes.zipWithIndex.foreach { case (p, i) => details += (s"fasta.e2e_s.pass$i" -> p.probeS("rambo")) }
    setupS.zipWithIndex.foreach { case (s, i) => details += (s"setup_s.rep$i" -> s) }
    val metrics = scala.collection.mutable.LinkedHashMap.empty[String, Double]
    metrics("setup_s") = Stats.median(setupS)
    for (m <- Catalog.Methods) {
      metrics(s"$m.probe_ms") = 1e3 * med(_.probeS(m))
      metrics(s"$m.slice_ms") = 1e3 * med(_.sliceS(m))
      val last = passes.last.methods(m)
      val fpRows = last.probeRows.distinct.count(r => !in.truth.contains(r))
      details += (s"$m.fp_rows" -> fpRows.toDouble)
      metrics(s"$m.fp_pct") = 100.0 * fpRows / negatives
      metrics(s"$m.index_mb") = SizeEstimator.estimate(last.index) / 1e6
    }
    if (!cfg.trace) return Outcome(gate.attempted, gate.failed, metrics.toMap, details.toSeq)

    val out = scala.collection.mutable.LinkedHashMap.empty[String, Double]
    for (m <- Catalog.Methods)
      out ++= BuildWorkload.layerMetrics(m, passes.toSeq.map { p =>
        val a = p.methods(m); (a.buildS, a.matrixS, a.build.get)
      })
    out("genome.read_s") = med(_.readS)
    out("genome.kmers_s") = med(_.kmersS)
    out("genome.records") = med(_.records.toDouble)
    out("genome.pairs") = med(_.pairs.toDouble)
    out("core.engine.query_s") = med(_.methods("rambo").probeS)
    out("core.engine.rows") = med(_.methods("rambo").probeRows.length.toDouble)
    out("jvm.gc_s") = Jvm.gcSeconds() - gc0
    out("eval.corpus_s") = steps.median("eval.corpus")
    out("eval.truth_s") = steps.median("eval.truth")
    out("eval.truth_entries") = in.truth.size.toDouble
    Outcome(gate.attempted, gate.failed, out.toMap,
      details.toSeq ++ metrics.toSeq.map { case (k, v) => s"e2e.$k" -> v })
  }
}
