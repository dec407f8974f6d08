package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.util.Hashing

/** RAMBO — the paper's contribution: a count-min-sketch arrangement of merged
  * Bloom filters (Repeated And Merged BloOm filter), as a [[SignatureIndex]].
  *
  * Geometry: `d` independent repetitions × `w` groups per repetition. In
  * repetition `r`, the universal hash `ph_r(file) = `
  * [[repro.util.Hashing.partitionHash]] assigns each of the N files to one of
  * the `w` groups; each (repetition, group) cell owns one Bloom filter holding
  * the union of its files' k-mers. Column id of cell (r, g) is `r·w + g`,
  * giving `d·w ≪ N` columns.
  *
  * Query (Algorithm 2): hash the k-mer once; for each repetition take the
  * union of the member sets of the groups whose filters pass, then intersect
  * those unions across repetitions. Probe cost is O(d·w·η) — independent of N
  * — plus a cheap N-bit set intersection; on a key present in no file, a file
  * is falsely reported only if all of its `d` cells yield Bloom false
  * positives, so the whole-index FP is ≈ fp_cell^d.
  *
  * Parameters: `w` groups per repetition (paper: 100 for N=3480, 84 for
  * N=2500), `d` repetitions (paper: 3), `m` bits per cell filter, `eta` hash
  * functions per filter.
  */
object Rambo {

  /** The d cell columns a file's k-mers are inserted into. */
  def cellsForFile(fileId: Int, w: Int, d: Int): Array[Int] = {
    val out = new Array[Int](d)
    var r = 0
    while (r < d) { out(r) = r * w + Hashing.partitionHash(fileId.toLong, r, w); r += 1 }
    out
  }

  /** Every file's cells, file after file: the index's cell map. */
  def cellMap(numFiles: Int, w: Int, d: Int): Array[Int] =
    Array.range(0, numFiles).flatMap(cellsForFile(_, w, d))

  /** Distributed build from a (file_id: Int, kmer: String) DataFrame: each row
    * fans out to its d cells, whose filters the shared build folds it into.
    */
  def buildSpark(corpus: DataFrame, numFiles: Int, w: Int, d: Int,
                 m: Int, eta: Int): RamboIndex = {
    val cellsUdf = udf((fileId: Int) => cellsForFile(fileId, w, d))
    SignatureIndex.buildSpark(
      corpus.select(explode(cellsUdf(col("file_id"))) as "col", col("kmer")),
      numFiles, w, d, m, eta, cellMap(numFiles, w, d))
  }

  /** Single-threaded reference build. */
  def buildLocal(corpus: Iterable[(Int, String)], numFiles: Int, w: Int, d: Int,
                 m: Int, eta: Int): RamboIndex =
    SignatureIndex.buildLocal(
      corpus.flatMap { case (f, kmer) => cellsForFile(f, w, d).map(c => (c, kmer)) },
      numFiles, w, d, m, eta, cellMap(numFiles, w, d))
}
