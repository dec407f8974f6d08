package repro.core

import java.nio.file.Files

import org.apache.spark.sql.functions._

import repro.{Oracle, SparkSpec}
import repro.genome.{Fasta, Kmers, SynthGenomes}

/** End-to-end path: FASTA directory on disk → Spark parse → k-mer explode →
  * BIGSI/RAMBO build → query — the full pipeline a user of the paper's system
  * would run, exercised on real format handling rather than pre-tokenised
  * DataFrames.
  */
class EndToEndSpec extends SparkSpec {
  import spark.implicits._

  private val k = 21
  private val nFiles = 12

  private lazy val corpusDf = {
    val dir = Files.createTempDirectory("e2e")
    SynthGenomes.writeFastaCorpus(dir, nFiles, contigs = 3, contigLen = 300,
      sharedBlocks = 4, seed = 91L)
    val parsed = Fasta.readDirectory(spark, dir.toString)
    // file name fileNNNN.fasta → dense integer id
    val fileIdUdf = udf((name: String) => name.stripPrefix("file").stripSuffix(".fasta").toInt)
    Kmers.explodeKmers(parsed, col("sequence"), k)
      .select(fileIdUdf(col("file_name")) as "file_id", col("kmer"))
      .distinct()
      .cache()
  }

  private lazy val localCorpus = corpusDf.as[(Int, String)].collect().toSeq

  test("FASTA round trip yields the expected number of files and kmers") {
    assert(localCorpus.map(_._1).distinct.size == nFiles)
    // each file: 3 contigs × (300 - k + 1) windows, minus duplicates
    val perFile = localCorpus.groupBy(_._1).map(_._2.size)
    perFile.foreach(n => assert(n > 500 && n <= 3 * (300 - k + 1)))
  }

  test("shared blocks create cross-file kmer redundancy") {
    val byKmer = localCorpus.groupBy(_._2).map(_._2.size)
    assert(byKmer.exists(_ >= 3), "expected kmers shared by >=3 files")
  }

  test("BIGSI over FASTA input has zero false negatives") {
    val index = Bigsi.buildSpark(corpusDf, nFiles, m = 65536, eta = 3)
    localCorpus.foreach { case (f, kmer) =>
      assert(index.queryProbe(kmer).get(f))
    }
  }

  test("RAMBO over FASTA input has zero false negatives") {
    val index = Rambo.buildSpark(corpusDf, nFiles, w = 4, d = 2, m = 262144, eta = 3)
    localCorpus.foreach { case (f, kmer) =>
      assert(index.queryProbe(kmer).get(f))
    }
  }

  test("oracle: end-to-end RAMBO batch query equals containment SQL") {
    // Shared blocks put head k-mers in 9 of 12 files; W=64 >> N keeps the
    // all-repetitions collision probability ≈ (df/64)^6 negligible even for
    // those, so an FP-free index answers the exact containment join.
    val index = Rambo.buildSpark(corpusDf, nFiles, w = 64, d = 6, m = 65536, eta = 4)
    val queries = (localCorpus.map(_._2).distinct.take(25) ++
        SynthGenomes.negativeKmers(
          SynthGenomes.CorpusSpec(nFiles, 10, 10L, k = k, seed = 91L), 5))
      .zipWithIndex.map { case (km, i) => (i.toLong, km) }.toDF("qid", "kmer")
    val got = QueryEngine.query(spark, queries, index)
    Oracle.assertEquivalent(
      got,
      "SELECT DISTINCT q.qid AS qid, c.file_id AS file_id " +
        "FROM queries q JOIN corpus c ON q.kmer = c.kmer",
      "queries" -> queries, "corpus" -> corpusDf)
  }

  test("RAMBO and BIGSI agree with each other at FP-free sizes") {
    val bigsi = Bigsi.buildSpark(corpusDf, nFiles, m = 1 << 20, eta = 4)
    val rambo = Rambo.buildSpark(corpusDf, nFiles, w = 64, d = 6, m = 65536, eta = 4)
    localCorpus.map(_._2).distinct.take(200).foreach { kmer =>
      assert(bigsi.queryProbe(kmer) == rambo.queryProbe(kmer), s"disagree on $kmer")
    }
  }

  test("query of a kmer present in every file returns every file") {
    val universal = localCorpus.groupBy(_._2).find(_._2.size == nFiles)
    universal.foreach { case (kmer, _) =>
      val index = Rambo.buildSpark(corpusDf, nFiles, w = 4, d = 3, m = 262144, eta = 3)
      assert(index.queryProbe(kmer).cardinality == nFiles)
    }
  }
}
