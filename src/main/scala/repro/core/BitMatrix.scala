package repro.core

import repro.util.BitVector

/** Row-major bit matrix: `numRows` bitslices of `numCols` bits each.
  *
  * This is BIGSI's storage layout ("bitsliced signature index"): column `c` is
  * dataset c's Bloom filter, and querying ANDs the η rows selected by the
  * query's hash values into a `numCols`-bit hit vector. RAMBO reuses the same
  * layout with one column per (repetition, group) cell, so both methods share
  * the identical bitslice machinery (the paper's fairness requirement): the
  * one copy of an index's bits ([[SignatureIndex]]).
  *
  * @param numRows matrix height = Bloom filter size m
  * @param numCols matrix width = number of columns (files or cells)
  */
final class BitMatrix(val numRows: Int, val numCols: Int) extends Serializable {
  require(numRows > 0 && numCols > 0, s"bad matrix shape ${numRows}x$numCols")

  private val wordsPerRow = BitVector.wordsFor(numCols)
  require(numRows.toLong * wordsPerRow <= Int.MaxValue,
    s"matrix ${numRows}x$numCols exceeds a single array; shard columns instead")
  /** rows(r) holds bits [r*wordsPerRow, (r+1)*wordsPerRow) — flat for locality. */
  private val rows = new Array[Long](numRows * wordsPerRow)

  /** Set bit (row, col). */
  def set(row: Int, col: Int): Unit = {
    checkRow(row); checkCol(col)
    rows(row * wordsPerRow + (col >>> 6)) |= (1L << (col & 63))
  }

  /** Value of bit (row, col). */
  def get(row: Int, col: Int): Boolean = {
    checkRow(row); checkCol(col)
    (rows(row * wordsPerRow + (col >>> 6)) & (1L << (col & 63))) != 0L
  }

  @inline private def checkRow(r: Int): Unit =
    if (r < 0 || r >= numRows) throw new IndexOutOfBoundsException(s"row $r of $numRows")
  @inline private def checkCol(c: Int): Unit =
    if (c < 0 || c >= numCols) throw new IndexOutOfBoundsException(s"col $c of $numCols")

  /** AND the given bitslices (rows) into a `numCols`-bit vector — the bitslice
    * query: rows are the η hash values of the query k-mer and the result's set
    * bits are the columns whose filters pass the membership test.
    */
  def rowAnd(rowIds: Array[Int]): BitVector = {
    require(rowIds.nonEmpty, "need at least one row")
    val acc = new Array[Long](wordsPerRow)
    val base0 = rowIds(0) * wordsPerRow
    var w = 0
    while (w < wordsPerRow) { acc(w) = rows(base0 + w); w += 1 }
    var i = 1
    while (i < rowIds.length) {
      checkRow(rowIds(i))
      val base = rowIds(i) * wordsPerRow
      w = 0
      while (w < wordsPerRow) { acc(w) &= rows(base + w); w += 1 }
      i += 1
    }
    BitVector.wrap(numCols, acc)
  }

  /** Whether column `col` has every one of `rowIds` set: one column's Bloom
    * membership test read straight from the bitslices, the per-column probe
    * of the paper's cost model.
    */
  def columnHasAll(rowIds: Array[Int], col: Int): Boolean = {
    checkCol(col)
    val word = col >>> 6
    val bit = 1L << (col & 63)
    var i = 0
    while (i < rowIds.length) {
      checkRow(rowIds(i))
      if ((rows(rowIds(i) * wordsPerRow + word) & bit) == 0L) return false
      i += 1
    }
    true
  }

  /** The columns as `numRows`-bit vectors, the inverse of
    * [[BitMatrix.fromColumns]]. Cost is proportional to the number of set bits.
    */
  def toColumns: Array[BitVector] = {
    val cols = Array.fill(numCols)(BitVector.empty(numRows))
    var r = 0
    while (r < numRows) {
      var w = 0
      while (w < wordsPerRow) {
        var word = rows(r * wordsPerRow + w)
        while (word != 0L) {
          cols(w * 64 + java.lang.Long.numberOfTrailingZeros(word)).set(r)
          word &= word - 1
        }
        w += 1
      }
      r += 1
    }
    cols
  }

  /** Storage footprint in bytes: every row padded to whole words. */
  def sizeBytes: Long = rows.length.toLong * 8
}

object BitMatrix {
  /** Transpose per-column bit vectors (each `numRows` bits) into the row-major
    * bitslice layout. Cost is proportional to the number of set bits.
    */
  def fromColumns(numRows: Int, columns: Array[BitVector]): BitMatrix = {
    require(columns.nonEmpty, "need at least one column")
    columns.foreach(c => require(c.numBits == numRows,
      s"column has ${c.numBits} bits, expected $numRows"))
    val m = new BitMatrix(numRows, columns.length)
    var c = 0
    while (c < columns.length) {
      val words = columns(c).words
      val bit = 1L << (c & 63)
      var i = 0
      while (i < words.length) {
        var word = words(i)
        while (word != 0L) {
          val r = i * 64 + java.lang.Long.numberOfTrailingZeros(word)
          m.rows(r * m.wordsPerRow + (c >>> 6)) |= bit
          word &= word - 1
        }
        i += 1
      }
      c += 1
    }
    m
  }
}
