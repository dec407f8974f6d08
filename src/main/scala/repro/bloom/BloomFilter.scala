package repro.bloom

import repro.util.{BitVector, Hashing}

/** Bloom filter over string keys — the primitive both BIGSI and RAMBO are
  * built from.
  *
  * Mirrors the paper's setup: an m-bit array with η hash functions, and — the
  * property both methods rely on — *every* filter in an index shares the same
  * hash functions ([[repro.util.Hashing.bloomPositions]]), so a query key is
  * hashed once and its η positions probe any column. An index stores its
  * filters as the columns of one [[repro.core.BitMatrix]] shared by BIGSI and
  * RAMBO (the paper's fairness argument, "inherit the Bloom Filter class from
  * BIGSI"); this class is a single column on its own, the reference those
  * columns are checked against.
  *
  * @param m    number of bits
  * @param eta  number of hash functions (paper: η ∈ {3, 4})
  * @param bits backing bit vector of `m` bits
  */
final class BloomFilter(val m: Int, val eta: Int, val bits: BitVector) extends Serializable {
  require(m > 0, s"m must be > 0, got $m")
  require(eta > 0, s"eta must be > 0, got $eta")
  require(bits.numBits == m, s"bit vector has ${bits.numBits} bits, expected $m")

  def this(m: Int, eta: Int) = this(m, eta, BitVector.empty(m))

  /** Insert a key: set its η positions. */
  def insert(key: String): Unit = {
    val pos = Hashing.bloomPositions(key, m, eta)
    var i = 0
    while (i < pos.length) { bits.set(pos(i)); i += 1 }
  }

  /** Set pre-computed positions (used when positions are hashed once and
    * shared across the columns of an index).
    */
  def insertPositions(pos: Array[Int]): Unit = {
    var i = 0
    while (i < pos.length) { bits.set(pos(i)); i += 1 }
  }

  /** Membership test: true iff every position of `key` is set.
    * Zero false negatives; false positives at rate [[BloomParams.falsePositiveRate]].
    */
  def contains(key: String): Boolean = containsPositions(Hashing.bloomPositions(key, m, eta))

  /** Membership test on pre-computed positions. */
  def containsPositions(pos: Array[Int]): Boolean = {
    var i = 0
    while (i < pos.length) { if (!bits.get(pos(i))) return false; i += 1 }
    true
  }

  /** Fraction of set bits. */
  def fillRatio: Double = bits.fillRatio

  /** FP estimate from the observed fill ratio: P(all η probes hit set bits). */
  def estimatedFpFromFill: Double = math.pow(fillRatio, eta)

  /** Size of the bit array in bytes. */
  def sizeBytes: Long = bits.words.length.toLong * 8

  def copy(): BloomFilter = new BloomFilter(m, eta, bits.copy())
}

object BloomFilter {
  /** Build a filter from a set of keys. */
  def of(m: Int, eta: Int, keys: Iterable[String]): BloomFilter = {
    val bf = new BloomFilter(m, eta)
    keys.foreach(bf.insert)
    bf
  }
}
