package repro.perfbench

import org.apache.spark.sql.SparkSession
import org.apache.spark.util.SizeEstimator

import repro.core.{Bigsi, BigsiIndex, Rambo, RamboIndex}
import repro.eval.{Experiments, FprEval, GroundTruth, Workload}
import repro.genome.SynthGenomes
import repro.util.Hashing

/** `kmer-query`: single-threaded k-mer queries against T1's matched-FP η=3
  * pair, RAMBO(W=100, D=3, m=131072) and BIGSI(m=12288), over the T1 corpus
  * (3480 files). A closed loop with one client on the driver thread answers
  * every query on both indexes and both paths (Bloom probes per column, and
  * bitsliced `rowAnd`), materialising each answer's file list.
  *
  * Set-up generates the corpus, its exact inversion, the query set and both
  * indexes with the program's single-threaded reference paths (bit-identical
  * to the Spark ones), so no Spark work happens in this workload; it is
  * repeated and its median reported.
  *
  * `<m>.<p>_ms` is the time per query of method m on path p (the median over
  * rounds of each round's wall time per query); each path's queries per
  * second and p50/p99 latency go to the results file.
  */
object KmerQuery extends BenchWorkload {
  val W: Int = Experiments.W3480
  val D: Int = Experiments.D
  val RamboM = 131072
  val BigsiM = 12288
  val Eta = 3
  /** The paper's 30,000 queries at `Workload.queries`' 1:4 present:absent mix. */
  val NPositive = 6000
  val NNegative = 24000
  val SetupReps = 3
  /** Queries per timed chunk; a round gives each path whole chunks. */
  val Chunk = 1000
  /** Measuring time each path gets per round. */
  val ShareNs = 50000000L

  def usesSpark: Boolean = false

  private final class Inputs(
      val truth: GroundTruth,
      val queries: IndexedSeq[Workload.Query],
      val kmers: Array[String],
      val truthFiles: Array[Array[Int]],
      val rambo: RamboIndex,
      val bigsi: BigsiIndex)

  /** One query path: a method answering on one of its two paths. */
  private abstract class QueryPath(val method: String, val path: String) {
    def answer(kmer: String): Array[Int]
    def name: String = s"$method.$path"
  }

  private def paths(in: Inputs): Array[QueryPath] = Array(
    new QueryPath("rambo", "probe") { def answer(k: String) = in.rambo.queryProbe(k).setBits },
    new QueryPath("rambo", "slice") { def answer(k: String) = in.rambo.queryBitsliced(k).setBits },
    new QueryPath("bigsi", "probe") { def answer(k: String) = in.bigsi.queryProbe(k).setBits },
    new QueryPath("bigsi", "slice") { def answer(k: String) = in.bigsi.queryBitsliced(k).setBits },
  )

  private def setup(cfg: RunConfig, tracer: Tracer, steps: StepTimes): Inputs = tracer.span("setup") {
    val spec = Experiments.Corpus3480.copy(seed = cfg.seed)
    val n = spec.nFiles
    val corpus = steps("eval.corpus", tracer)(SynthGenomes.corpusLocal(spec))
    val truth = steps("eval.truth", tracer)(GroundTruth.fromLocal(corpus, n))
    // Shuffled (by seed), so every chunk of the closed loop has the same mix.
    val queries = steps("eval.queries", tracer)(new scala.util.Random(cfg.seed).shuffle(
      Workload.queries(spec, truth, NPositive, NNegative, seed = cfg.seed)))
    val rambo = steps("core.rambo.build_local", tracer) {
      val r = Rambo.buildLocal(corpus, n, W, D, RamboM, Eta); r.matrix; r
    }
    val bigsi = steps("core.bigsi.build_local", tracer) {
      val b = Bigsi.buildLocal(corpus, n, BigsiM, Eta); b.matrix; b
    }
    new Inputs(truth, queries, queries.map(_.kmer).toArray,
      queries.map(_.truth.setBits).toArray, rambo, bigsi)
  }

  /** Whether ascending `answer` contains every file of ascending `truth`. */
  def covers(answer: Array[Int], truth: Array[Int]): Boolean = {
    var i = 0; var j = 0
    while (j < truth.length) {
      while (i < answer.length && answer(i) < truth(j)) i += 1
      if (i == answer.length || answer(i) != truth(j)) return false
      j += 1
    }
    true
  }

  /** Time `p` on k-mers `from until until`; per-query nanoseconds go to
    * `lat`, answers to `out` (null where the query threw), both indexed like
    * `kmers`. Returns the wall nanoseconds.
    */
  private def timedPass(p: QueryPath, kmers: Array[String], lat: Array[Long],
                        out: Array[Array[Int]], from: Int = 0, until: Int = -1): Long = {
    val end = if (until < 0) kmers.length else until
    val start = System.nanoTime()
    var i = from
    while (i < end) {
      val t0 = System.nanoTime()
      val a = try p.answer(kmers(i)) catch { case _: Exception => null }
      lat(i) = System.nanoTime() - t0
      out(i) = a
      i += 1
    }
    System.nanoTime() - start
  }

  /** Gate one round: every answer exists, covers its truth set, and the probe
    * and bitsliced answers of each method agree.
    */
  private def checkRound(in: Inputs, ps: Array[QueryPath], answers: Array[Array[Array[Int]]],
                         gate: Gate): Unit = {
    for (m <- 0 until ps.length by 2; i <- in.kmers.indices; side <- 0 to 1) {
      val a = answers(m + side)(i)
      val other = answers(m + 1 - side)(i)
      gate.check(s"${ps(m + side).name} query $i") {
        a != null && covers(a, in.truthFiles(i)) && java.util.Arrays.equals(a, other)
      }
    }
  }

  /** Per-path figures of an untraced phase, one entry per round. */
  private final class Measured(paths: Int) {
    private def perPath = Array.fill(paths)(scala.collection.mutable.ArrayBuffer.empty[Double])
    val qps, p50Us, p99Us, meanUs = perPath
    val samples = new Array[Long](paths)
    var rounds = 0
  }

  /** Untraced rounds for `budgetNs`. In each round every path answers whole
    * chunks of the (cyclic) query sequence until it has used `shareNs`, so
    * fast and slow paths get the same measuring time; each round gives one
    * throughput and latency figure per path, and the run reports their
    * medians. Every answer is gated against `refs`, the method's answers
    * already checked for truth coverage and probe/bitsliced agreement.
    */
  private def measure(in: Inputs, ps: Array[QueryPath], refs: Array[Array[Array[Int]]],
                      budgetNs: Long, shareNs: Long, gate: Gate): Measured = {
    val n = in.kmers.length
    val m = new Measured(ps.length)
    val lat = new Array[Long](n)
    val out = new Array[Array[Int]](n)
    val cursor = new Array[Int](ps.length)
    val roundLat = scala.collection.mutable.ArrayBuilder.make[Long]
    val start = System.nanoTime()
    while (m.rounds == 0 || System.nanoTime() - start < budgetNs) {
      for (p <- ps.indices) {
        var spent = 0L
        var answered = 0
        roundLat.clear()
        while (answered == 0 || spent < shareNs) {
          val from = cursor(p)
          val until = math.min(from + Chunk, n)
          spent += timedPass(ps(p), in.kmers, lat, out, from, until)
          answered += until - from
          roundLat.addAll(lat, from, until - from)
          val ref = refs(p / 2)
          var i = from
          while (i < until) {
            val a = out(i)
            if (a != null && java.util.Arrays.equals(a, ref(i))) gate.pass()
            else gate.fail(s"${ps(p).name} query $i")
            i += 1
          }
          cursor(p) = if (until == n) 0 else until
        }
        val l = Stats.latency(roundLat.result())
        m.qps(p) += answered / (spent / 1e9)
        m.p50Us(p) += l.p50Us
        m.p99Us(p) += l.p99Us
        m.meanUs(p) += l.meanUs
        m.samples(p) += answered
      }
      m.rounds += 1
    }
    m
  }

  def run(cfg: RunConfig, spark: Option[SparkSession], tracer: Tracer, gate: Gate): Outcome = {
    val steps = new StepTimes
    var in: Inputs = null
    val setupS = (1 to SetupReps).map { _ =>
      in = null
      Jvm.timed { in = setup(cfg, tracer, steps) }._2
    }
    // Collect the set-up garbage now, so the measured phase starts from the
    // same compacted heap in every run.
    System.gc()
    val n = in.kmers.length
    val ps = paths(in)
    val metrics = scala.collection.mutable.LinkedHashMap.empty[String, Double]
    val details = scala.collection.mutable.ArrayBuffer.empty[(String, Double)]
    metrics("setup_s") = Stats.median(setupS)
    setupS.zipWithIndex.foreach { case (s, i) => details += (s"setup_s.rep$i" -> s) }

    // Warm-up, in three parts. Short passes of all four paths in turn, so
    // the JIT sees every path at the shared call site before it compiles the
    // loop. Then accuracy: one probe pass per method, scored as FprEval
    // defines it (deterministic per seed). Then one full untimed round, gated
    // path against path, whose answers are the reference for every timed one.
    tracer.span("query.warmup") {
      val few = in.kmers.take(64)
      val lat = new Array[Long](few.length)
      val out = new Array[Array[Int]](few.length)
      for (_ <- 1 to 300; p <- ps) timedPass(p, few, lat, out)
    }
    tracer.span("eval.fp") {
      for ((m, probe) <- Seq("rambo" -> in.rambo.queryProbe _, "bigsi" -> in.bigsi.queryProbe _)) {
        val ev = FprEval.evaluate(probe, in.queries, in.truth.numFiles)
        gate.check(s"$m false negatives: ${ev.falseNegatives}")(ev.falseNegatives == 0)
        metrics(s"$m.fp_pct") = ev.fpPercent
      }
    }
    val refs = tracer.span("query.reference") {
      val answers = Array.fill(ps.length)(new Array[Array[Int]](n))
      for (p <- ps.indices) timedPass(ps(p), in.kmers, new Array[Long](n), answers(p))
      checkRound(in, ps, answers, gate)
      Array(answers(0), answers(2))
    }
    // Resident size of each index's object graph, its matrix included.
    metrics("rambo.index_mb") = SizeEstimator.estimate(in.rambo) / 1e6
    metrics("bigsi.index_mb") = SizeEstimator.estimate(in.bigsi) / 1e6
    details += ("rambo.index_bytes_reported" -> in.rambo.indexBytes.toDouble)
    details += ("bigsi.index_bytes_reported" -> in.bigsi.indexBytes.toDouble)

    val gc0 = Jvm.gcSeconds()
    val budgetNs = cfg.seconds * 1000000000L / (if (cfg.trace) 2 else 1)
    val measured = tracer.span("query.untraced")(
      measure(in, ps, refs, budgetNs, ShareNs, gate))
    details += ("rounds" -> measured.rounds.toDouble)
    val untracedMeanUs = new Array[Double](ps.length)
    for (p <- ps.indices) {
      def med(xs: scala.collection.mutable.ArrayBuffer[Double]) = Stats.median(xs.toSeq)
      untracedMeanUs(p) = med(measured.meanUs(p))
      metrics(s"${ps(p).name}_ms") = med(measured.qps(p).map(1e3 / _))
      details += (s"${ps(p).name}.qps" -> med(measured.qps(p)))
      details += (s"${ps(p).name}.p50_us" -> med(measured.p50Us(p)))
      details += (s"${ps(p).name}.p99_us" -> med(measured.p99Us(p)))
      details += (s"${ps(p).name}.samples" -> measured.samples(p).toDouble)
      if (measured.rounds >= 2) {
        val q = Stats.quantiles(measured.qps(p).toSeq)
        details += (s"${ps(p).name}.qps.rounds_q1" -> q(0))
        details += (s"${ps(p).name}.qps.rounds_q3" -> q(2))
      }
    }

    if (!cfg.trace) return Outcome(gate.attempted, gate.failed, metrics.toMap, details.toSeq)

    // Traced run: per-layer passes over the same k-mers for the other half.
    val layer = tracer.span("query.traced")(layerPasses(in, budgetNs, tracer, gate, ps))
    val alloc = ps.map { p =>
      var sink = 0L
      val a0 = Jvm.threadAllocatedBytes()
      var i = 0
      while (i < n) { sink += p.answer(in.kmers(i)).length; i += 1 }
      val bytes = Jvm.threadAllocatedBytes() - a0
      if (sink < 0) println(sink) // keeps the answers live
      p.name -> bytes.toDouble / n
    }
    val out = scala.collection.mutable.LinkedHashMap.empty[String, Double]
    out ++= layer.perQueryUs
    out("core.rambo.hit_cells") = layer.ramboHitCells
    for (m <- Catalog.Methods) {
      out(s"core.$m.candidates") = layer.candidates(m)
      out(s"core.$m.precision") = layer.precision(m)
    }
    alloc.foreach { case (name, b) => out(s"jvm.$name.alloc_b_per_q") = b }
    out("jvm.gc_s") = Jvm.gcSeconds() - gc0
    // The layer spans of a slice query should add up to the untraced time.
    val composed = layer.composedUs
    out("trace.rambo.slice.residual_us") = untracedMeanUs(1) - composed("rambo.slice")
    out("trace.overhead_pct") =
      100.0 * (ps.map(p => composed(p.name)).sum - untracedMeanUs.sum) / untracedMeanUs.sum
    for (s <- Seq("eval.corpus", "eval.truth")) out(s"${s}_s") = steps.median(s)
    out("eval.truth_entries") = in.truth.byKmer.size.toDouble
    Outcome(gate.attempted, gate.failed, out.toMap,
      details.toSeq ++ metrics.toSeq.map { case (k, v) => s"e2e.$k" -> v } ++
        ps.indices.map(p => s"untraced.${ps(p).name}.mean_us" -> untracedMeanUs(p)) ++
        composed.toSeq.map { case (k, v) => s"traced.$k.composed_us" -> v })
  }

  /** Nanoseconds per layer call over a traced phase, with the counts it saw. */
  private final class LayerTimes {
    val ns = scala.collection.mutable.HashMap.empty[String, Long].withDefaultValue(0L)
    /** Passes of each path times k-mers per pass. */
    var queries = 0L
    var ramboHits = 0L
    val answered = scala.collection.mutable.HashMap.empty[String, Long].withDefaultValue(0L)
    var trueFiles = 0L
    private def us(key: String): Double = ns(key) / 1e3 / queries

    def perQueryUs: Seq[(String, Double)] = Seq(
      "util.hash_us" -> (us("rambo.probe.hash") + us("rambo.layers.hash") +
        us("bigsi.probe.hash") + us("bigsi.slice.hash")) / 4,
      "util.setbits_us" -> (us("rambo.probe.setbits") + us("rambo.slice.setbits") +
        us("bigsi.probe.setbits") + us("bigsi.slice.setbits")) / 4,
      "core.rambo.probe_us" -> us("rambo.probe.probe"),
      "core.bigsi.probe_us" -> us("bigsi.probe.probe"),
      "core.rambo.rowand_us" -> us("rambo.layers.rowand"),
      "core.bigsi.rowand_us" -> us("bigsi.slice.rowand"),
      "core.rambo.resolve_us" ->
        (us("rambo.slice.query") - us("rambo.layers.hash") - us("rambo.layers.rowand")))

    /** Per-query time of each path, composed from its layer spans. */
    def composedUs: Map[String, Double] = Map(
      "rambo.probe" -> (us("rambo.probe.hash") + us("rambo.probe.probe") + us("rambo.probe.setbits")),
      "rambo.slice" -> (us("rambo.slice.query") + us("rambo.slice.setbits")),
      "bigsi.probe" -> (us("bigsi.probe.hash") + us("bigsi.probe.probe") + us("bigsi.probe.setbits")),
      "bigsi.slice" -> (us("bigsi.slice.hash") + us("bigsi.slice.rowand") + us("bigsi.slice.setbits")))

    def ramboHitCells: Double = ramboHits.toDouble / queries
    def candidates(m: String): Double = answered(m).toDouble / queries
    def precision(m: String): Double = trueFiles.toDouble / answered(m)
  }

  /** Layer-by-layer passes for `budgetNs`. Each path runs its own pass over
    * every k-mer, as in the untraced phase, but with each call into
    * `repro.util` and `repro.core` timed on its own. RAMBO's membership
    * resolution has no public entry point, so it is its whole bitsliced
    * query minus the hash and `rowAnd` timed in a separate pass.
    */
  private def layerPasses(in: Inputs, budgetNs: Long, tracer: Tracer, gate: Gate,
                          ps: Array[QueryPath]): LayerTimes = {
    val t = new LayerTimes
    val r = in.rambo; val b = in.bigsi
    val rm = r.matrix; val bm = b.matrix
    val kmers = in.kmers
    val n = kmers.length
    val answers = Array.fill(4)(new Array[Array[Int]](n))
    def add(key: String, ns: Long): Unit = {
      t.ns(key) += ns
      tracer.aggregate(s"layer.$key", ns, n.toLong)
    }
    val start = System.nanoTime()
    var passes = 0
    while (passes == 0 || System.nanoTime() - start < budgetNs) {
      // rambo.probe
      var hash, probe, setbits = 0L
      var k = 0
      while (k < n) {
        val t0 = System.nanoTime()
        val pos = Hashing.bloomPositions(kmers(k), r.m, r.eta)
        val t1 = System.nanoTime()
        val v = r.queryProbePositions(pos)
        val t2 = System.nanoTime()
        answers(0)(k) = v.setBits
        val t3 = System.nanoTime()
        hash += t1 - t0; probe += t2 - t1; setbits += t3 - t2
        k += 1
      }
      add("rambo.probe.hash", hash); add("rambo.probe.probe", probe); add("rambo.probe.setbits", setbits)
      // rambo.slice, whole
      var query = 0L; setbits = 0L; k = 0
      while (k < n) {
        val t0 = System.nanoTime()
        val v = r.queryBitsliced(kmers(k))
        val t1 = System.nanoTime()
        answers(1)(k) = v.setBits
        val t2 = System.nanoTime()
        query += t1 - t0; setbits += t2 - t1
        k += 1
      }
      add("rambo.slice.query", query); add("rambo.slice.setbits", setbits)
      // rambo.slice, its hash and rowAnd
      var rowand = 0L; hash = 0L; k = 0
      while (k < n) {
        val t0 = System.nanoTime()
        val pos = Hashing.bloomPositions(kmers(k), r.m, r.eta)
        val t1 = System.nanoTime()
        val hits = rm.rowAnd(pos)
        val t2 = System.nanoTime()
        hash += t1 - t0; rowand += t2 - t1
        t.ramboHits += hits.cardinality
        k += 1
      }
      add("rambo.layers.hash", hash); add("rambo.layers.rowand", rowand)
      // bigsi.probe
      hash = 0L; probe = 0L; setbits = 0L; k = 0
      while (k < n) {
        val t0 = System.nanoTime()
        val pos = Hashing.bloomPositions(kmers(k), b.m, b.eta)
        val t1 = System.nanoTime()
        val v = b.queryProbePositions(pos)
        val t2 = System.nanoTime()
        answers(2)(k) = v.setBits
        val t3 = System.nanoTime()
        hash += t1 - t0; probe += t2 - t1; setbits += t3 - t2
        k += 1
      }
      add("bigsi.probe.hash", hash); add("bigsi.probe.probe", probe); add("bigsi.probe.setbits", setbits)
      // bigsi.slice: the bitsliced query is hash + rowAnd
      hash = 0L; rowand = 0L; setbits = 0L; k = 0
      while (k < n) {
        val t0 = System.nanoTime()
        val pos = Hashing.bloomPositions(kmers(k), b.m, b.eta)
        val t1 = System.nanoTime()
        val v = bm.rowAnd(pos)
        val t2 = System.nanoTime()
        answers(3)(k) = v.setBits
        val t3 = System.nanoTime()
        hash += t1 - t0; rowand += t2 - t1; setbits += t3 - t2
        k += 1
      }
      add("bigsi.slice.hash", hash); add("bigsi.slice.rowand", rowand); add("bigsi.slice.setbits", setbits)

      checkRound(in, ps, answers, gate)
      k = 0
      while (k < n) {
        t.answered("rambo") += answers(1)(k).length
        t.answered("bigsi") += answers(3)(k).length
        t.trueFiles += in.truthFiles(k).length
        k += 1
      }
      t.queries += n
      passes += 1
    }
    t
  }
}
