package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.eval.{Experiments, Harness}
import repro.genome.SynthGenomes.CorpusSpec

/** spark-submit entrypoint for the reproduced tables (DESIGN.md §4): one
  * table per run, named by its id.
  *
  * Each table is built from the same corpora/sweeps as the corresponding bench
  * suite (both call [[repro.eval.Experiments]]) and printed to stdout.
  *
  * {{{
  *   sbt "jobs/runMain repro.jobs.Tables T1"
  *   spark-submit --class repro.jobs.Tables repro-jobs.jar T1
  * }}}
  */
object Tables {
  private val Usage = "usage: repro.jobs.Tables <T1|T2|T3|T4|T5|T6>"

  private def sweep(title: String, spec: CorpusSpec, w: Int)(spark: SparkSession): String =
    Harness.formatTable(title, Experiments.sweep(spark, spec, w))

  /** Each table id with the code that renders it. */
  private val tables: Map[String, SparkSession => String] = Map(
    "T1" -> sweep("T1: Query time vs FP rate, 3480 files (paper Fig. 5)",
      Experiments.Corpus3480, Experiments.W3480),
    "T2" -> sweep("T2: Query time vs FP rate, 2500 files (paper Fig. 6)",
      Experiments.Corpus2500, Experiments.W2500),
    "T3" -> sweep("T3: Memory vs FP rate, 3480 files (paper Fig. 7)",
      Experiments.Corpus3480, Experiments.W3480),
    "T4" -> sweep("T4: Memory vs FP rate, 2500 files (paper Fig. 8)",
      Experiments.Corpus2500, Experiments.W2500),
    "T5" -> (spark => Experiments.formatScaling(Experiments.scalingTable(spark))),
    "T6" -> (spark => Experiments.formatConstruction(Experiments.constructionTable(spark))))

  def main(args: Array[String]): Unit = {
    val id = args match {
      case Array(id) if tables.contains(id) => id
      case _ => System.err.println(Usage); sys.exit(2)
    }
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(s"rambo-${id.toLowerCase}")
      .config("spark.sql.shuffle.partitions",
              sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    try println(tables(id)(spark))
    finally spark.stop()
  }
}
