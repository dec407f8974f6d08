package repro.perfbench

/** Every metric the benchmark reports, with its unit and direction. The
  * benchmark's BENCHMARK.json lists the same names; a test keeps the two in
  * step.
  *
  * Every run reports the same metrics whatever its workload: all end-to-end
  * metrics untraced, all per-layer metrics traced. An end-to-end metric is
  * measured on every workload, in that workload's terms. A per-layer metric
  * is measured only on the workloads that run its layer ([[layersRun]]) and
  * reads 0 on the others.
  */
object Catalog {

  final case class MetricSpec(name: String, unit: String, better: String)

  private def lower(name: String, unit: String) = MetricSpec(name, unit, "lower")
  private def higher(name: String, unit: String) = MetricSpec(name, unit, "higher")

  val Workloads: Seq[String] = Seq("kmer-query", "build", "fasta-e2e")

  val Methods: Seq[String] = Seq("rambo", "bigsi")
  val Paths: Seq[String] = Seq("probe", "slice")

  /** End-to-end metrics (untraced runs), the same on every workload.
    * `<m>.<p>_ms` is the time from the workload's input to an answer of
    * method m on path p: one k-mer query on `kmer-query`, one Spark build to
    * its first answer on `build`, one FASTA directory to all rows of the
    * query batch on `fasta-e2e`.
    */
  val endToEnd: Seq[MetricSpec] =
    Seq(lower("setup_s", "s")) ++
      (for (m <- Methods; p <- Paths) yield lower(s"$m.${p}_ms", "ms")) ++
      Methods.map(m => lower(s"$m.fp_pct", "%")) ++
      Methods.map(m => lower(s"$m.index_mb", "MB"))

  /** Per-layer metrics of one Spark build of `method`'s index. */
  def buildLayer(method: String): Seq[MetricSpec] = {
    val p = s"core.$method.build"
    Seq(lower(s"$p.jobs_s", "s"), lower(s"$p.driver_s", "s"), lower(s"$p.matrix_s", "s"),
      lower(s"$p.map_run_s", "s"), lower(s"$p.map_cpu_s", "s"),
      lower(s"$p.reduce_run_s", "s"), lower(s"$p.reduce_cpu_s", "s"),
      lower(s"$p.shuffle_mb", "MB"), lower(s"$p.shuffle_records", "count"),
      lower(s"$p.fetch_wait_s", "s"), lower(s"$p.explode_rows", "count"), lower(s"$p.gc_s", "s"))
  }

  private val queryLayer: Seq[MetricSpec] =
    Seq(lower("util.hash_us", "us"), lower("util.setbits_us", "us")) ++
      Methods.map(m => lower(s"core.$m.probe_us", "us")) ++
      Methods.map(m => lower(s"core.$m.rowand_us", "us")) ++
      Seq(lower("core.rambo.resolve_us", "us"), lower("core.rambo.hit_cells", "count")) ++
      Methods.map(m => lower(s"core.$m.candidates", "count")) ++
      Methods.map(m => higher(s"core.$m.precision", "ratio")) ++
      (for (m <- Methods; p <- Paths) yield lower(s"jvm.$m.$p.alloc_b_per_q", "B")) ++
      Seq(lower("trace.rambo.slice.residual_us", "us"), lower("trace.overhead_pct", "%"))

  private val genomeLayer: Seq[MetricSpec] =
    Seq(lower("genome.read_s", "s"), lower("genome.kmers_s", "s"),
      lower("genome.records", "count"), lower("genome.pairs", "count"),
      lower("core.engine.query_s", "s"), lower("core.engine.rows", "count"))

  private val common: Seq[MetricSpec] =
    Seq(lower("jvm.gc_s", "s"), lower("eval.corpus_s", "s"), lower("eval.truth_s", "s"),
      lower("eval.truth_entries", "count"))

  /** Per-layer metrics (traced runs), in report order. */
  val perLayer: Seq[MetricSpec] = queryLayer ++ Methods.flatMap(buildLayer) ++ genomeLayer ++ common

  /** The per-layer metrics each workload measures; the rest read 0 there. */
  val layersRun: Map[String, Set[String]] = Map(
    "kmer-query" -> (queryLayer ++ common),
    "build" -> (Methods.flatMap(buildLayer) ++ common),
    "fasta-e2e" -> (Methods.flatMap(buildLayer) ++ genomeLayer ++ common),
  ).map { case (w, specs) => w -> specs.map(_.name).toSet }

  /** The metrics every run reports, traced or not. */
  def expected(trace: Boolean): Seq[MetricSpec] = if (trace) perLayer else endToEnd

  /** The metrics a run of `workload` must measure itself. */
  def measured(workload: String, trace: Boolean): Seq[MetricSpec] =
    if (trace) perLayer.filter(m => layersRun(workload)(m.name)) else endToEnd
}
