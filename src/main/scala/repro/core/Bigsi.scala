package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col

/** BIGSI baseline (Bradley et al., Nature Biotech 2019) — one Bloom filter
  * column per dataset, all sharing the same η hash functions: the
  * [[SignatureIndex]] with d = 1, w = N and cell f = file f.
  *
  * Two query paths over the same bits:
  *  - probe: test each of the N columns at the query's η positions — O(N·η)
  *    memory accesses. This is the cost model the paper measures (its
  *    implementation probes BIGSI's Bloom filter class per column), and the
  *    path the benches time.
  *  - bitsliced: AND the η selected bitslice rows of the m×N matrix —
  *    BIGSI's publicised bit-trick; still O(N) work per query (each row is
  *    N bits wide). Kept for cross-validation and reference timings.
  */
object Bigsi {

  /** Distributed build from a (file_id: Int, kmer: String) DataFrame. */
  def buildSpark(corpus: DataFrame, numFiles: Int, m: Int, eta: Int): BigsiIndex =
    SignatureIndex.buildSpark(corpus.select(col("file_id") as "col", col("kmer")),
      numFiles, numFiles, 1, m, eta, Array.range(0, numFiles))

  /** Single-threaded reference build. */
  def buildLocal(corpus: Iterable[(Int, String)], numFiles: Int, m: Int, eta: Int): BigsiIndex =
    SignatureIndex.buildLocal(corpus, numFiles, numFiles, 1, m, eta, Array.range(0, numFiles))
}
