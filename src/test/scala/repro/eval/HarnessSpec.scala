package repro.eval

import repro.SparkSpec
import repro.genome.SynthGenomes.CorpusSpec

class HarnessSpec extends SparkSpec {

  private val spec = CorpusSpec(nFiles = 50, poolSize = 800, totalPairs = 10000L,
    alpha = 0.8, seed = 71L)
  private lazy val data = Harness.prepare(spark, spec, nPositive = 50, nNegative = 150)

  test("prepare caches corpus, truth and workload consistently") {
    assert(data.numFiles == 50)
    assert(data.queries.size == 200)
    assert(data.truth.byKmer.nonEmpty)
    // truth and corpus agree on total pair count
    val pairCount = data.truth.byKmer.values.map(_.cardinality.toLong).sum
    assert(pairCount == data.corpusDf.count())
  }

  test("avgKmersPerFile is pairs / files") {
    val avg = Harness.avgKmersPerFile(data)
    assert(math.abs(avg - data.corpusDf.count().toDouble / 50) < 1e-9)
  }

  test("avgKmersPerCell shows redundancy: less than files-per-cell * kmers-per-file") {
    val w = 5; val d = 3
    val perCell = Harness.avgKmersPerCell(data, w, d)
    val naive = (50.0 / w) * Harness.avgKmersPerFile(data)
    assert(perCell > 0 && perCell < naive,
      s"perCell=$perCell naive=$naive — no redundancy in corpus?")
  }

  test("runBigsi produces a sane sweep point") {
    val p = Harness.runBigsi(data, m = 8192, eta = 3)
    assert(p.method == "BIGSI" && p.eta == 3 && p.mBits == 8192)
    assert(p.fpPct >= 0.0 && p.fpPct <= 100.0)
    assert(p.usProbe > 0 && p.usBitsliced > 0 && p.buildSec > 0)
    // Resident bytes: 8192 rows of one 64-bit word (50 columns) plus the 50-entry cell map.
    assert(math.abs(p.indexMB - (8192.0 * 8 + 50 * 4) / 1024 / 1024) < 1e-9)
  }

  test("runRambo produces a sane sweep point") {
    val p = Harness.runRambo(data, w = 5, d = 3, m = 32768, eta = 3)
    assert(p.method == "RAMBO(W=5,D=3)")
    assert(p.fpPct >= 0.0 && p.fpPct <= 100.0)
    assert(p.usProbe > 0 && p.usBitsliced > 0)
  }

  test("bigger filters give lower or equal FP") {
    val small = Harness.runBigsi(data, m = 2048, eta = 3)
    val big = Harness.runBigsi(data, m = 32768, eta = 3)
    assert(big.fpPct <= small.fpPct)
  }

  test("formatTable renders every row plus a header") {
    val rows = Seq(Harness.runBigsi(data, 4096, 3))
    val table = Harness.formatTable("test", rows)
    assert(table.linesIterator.size == rows.size + 2)
    assert(table.contains("BIGSI") && table.contains("us/q_probe"))
  }
}
