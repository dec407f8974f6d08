package repro.core

import org.apache.spark.sql.DataFrame

import repro.bloom.BloomFilter
import repro.util.{BitVector, Hashing}

/** Bitsliced signature index: the one index type behind both RAMBO and BIGSI.
  *
  * The bits live once, in an m×(d·w) [[BitMatrix]] whose columns are Bloom
  * filters sharing the same η hash functions. Each of the N files maps to one
  * cell (column) per repetition: `fileCells(f·d + r)` lies in `[r·w, (r+1)·w)`,
  * and the file's k-mers are inserted into all d of its cells.
  *
  *  - RAMBO (the paper's contribution): d repetitions × w ≪ N groups, cells
  *    chosen by [[repro.util.Hashing.partitionHash]] ([[Rambo]]).
  *  - BIGSI (Bradley et al., Nature Biotech 2019): d = 1, w = N, and cell f
  *    is file f ([[Bigsi]]).
  *
  * A file is reported iff every one of its d cells passes. That is resolved
  * as in Algorithm 2: the union of the hit cells' member sets per repetition,
  * intersected across repetitions. When the map is the identity (BIGSI) the
  * hit-cell vector already is the answer and no member sets exist.
  *
  * Two query paths over the same bits:
  *  - [[queryProbe]]: test each cell's η bits, d·w·η probes (N·η for BIGSI).
  *    This is the cost model the paper measures and the benches time.
  *  - [[queryBitsliced]]: AND the η selected rows into the hit-cell vector.
  *
  * @param numFiles  N datasets
  * @param w         cells per repetition (N for BIGSI)
  * @param d         repetitions (1 for BIGSI)
  * @param eta       hash functions per filter
  * @param matrix    the m×(d·w) bits; column `r·w + g` is cell (r, g)
  * @param fileCells file f's cell in repetition r at index `f·d + r`
  */
final class SignatureIndex(
    val numFiles: Int,
    val w: Int,
    val d: Int,
    val eta: Int,
    val matrix: BitMatrix,
    val fileCells: Array[Int]) extends Serializable {
  require(numFiles > 0 && w > 0 && d > 0 && eta > 0,
    s"bad geometry N=$numFiles w=$w d=$d eta=$eta")
  require(matrix.numCols == w * d, s"${matrix.numCols} columns for ${w * d} cells")
  require(fileCells.length == numFiles * d,
    s"${fileCells.length} cell entries for $numFiles files x $d repetitions")
  require(fileCells.indices.forall { i =>
    val lo = (i % d) * w; fileCells(i) >= lo && fileCells(i) < lo + w
  }, "each file needs one cell in each repetition's range")

  /** Bits per cell filter. */
  def m: Int = matrix.numRows

  /** Whether cell f is file f and nothing else (BIGSI's geometry). */
  private val identity: Boolean =
    d == 1 && w == numFiles && fileCells.indices.forall(f => fileCells(f) == f)

  /** Member set of each cell as an N-bit vector; none for the identity map. */
  private val memberships: Array[BitVector] =
    if (identity) Array.empty
    else {
      val out = Array.fill(w * d)(BitVector.empty(numFiles))
      var i = 0
      while (i < fileCells.length) { out(fileCells(i)).set(i / d); i += 1 }
      out
    }

  /** Hash a query k-mer once (shared hash functions across all cells). */
  def positions(kmer: String): Array[Int] = Hashing.bloomPositions(kmer, m, eta)

  /** Probe-path query: N-bit vector of the files reported for `kmer`. */
  def queryProbe(kmer: String): BitVector = queryProbePositions(positions(kmer))

  /** Probe-path query on pre-hashed positions: each cell's η bits, then
    * `resolve`.
    */
  def queryProbePositions(pos: Array[Int]): BitVector = {
    val hits = BitVector.empty(w * d)
    var c = 0
    while (c < w * d) {
      if (matrix.columnHasAll(pos, c)) hits.set(c)
      c += 1
    }
    resolve(hits)
  }

  /** Bitsliced query: AND of the η selected rows, then `resolve`. */
  def queryBitsliced(kmer: String): BitVector = resolve(matrix.rowAnd(positions(kmer)))

  /** Hit cells → files: union of member sets per repetition, intersected
    * across repetitions; the hit cells themselves under the identity map.
    */
  private def resolve(hits: BitVector): BitVector = {
    if (identity) return hits
    val cells = hits.setBits // ascending, so one repetition after another
    var result: BitVector = null
    var i = 0
    var r = 0
    while (r < d) {
      val repUnion = BitVector.empty(numFiles)
      while (i < cells.length && cells(i) < (r + 1) * w) { repUnion.or(memberships(cells(i))); i += 1 }
      if (result == null) result = repUnion else result.and(repUnion)
      r += 1
    }
    result
  }

  /** Resident bytes: the matrix words (rows padded to whole words), the cell
    * map and the member sets.
    */
  def indexBytes: Long =
    matrix.sizeBytes + fileCells.length.toLong * 4 +
      memberships.length.toLong * BitVector.wordsFor(numFiles) * 8

  /** Cell filters, copied out of the matrix afresh on every call. For
    * bit-identity checks; queries never use them.
    */
  def columns: Array[BloomFilter] = matrix.toColumns.map(new BloomFilter(m, eta, _))
}

/** The shared builder: [[Rambo]] and [[Bigsi]] supply the `(col, kmer)` frame
  * (one row per k-mer and cell of its file) and the cell map.
  */
object SignatureIndex {

  /** Distributed build from a (col: Int, kmer: String) DataFrame. */
  def buildSpark(colKmer: DataFrame, numFiles: Int, w: Int, d: Int, m: Int, eta: Int,
                 fileCells: Array[Int]): SignatureIndex =
    new SignatureIndex(numFiles, w, d, eta,
      BitMatrix.fromColumns(m, SketchBuilder.buildColumns(colKmer, w * d, m, eta)), fileCells)

  /** Single-threaded reference build of the same bits. */
  def buildLocal(colKmer: Iterable[(Int, String)], numFiles: Int, w: Int, d: Int, m: Int,
                 eta: Int, fileCells: Array[Int]): SignatureIndex =
    new SignatureIndex(numFiles, w, d, eta,
      BitMatrix.fromColumns(m, SketchBuilder.buildColumnsLocal(colKmer, w * d, m, eta)), fileCells)
}
