package repro.bloom

import org.scalatest.funsuite.AnyFunSuite

import repro.genome.Dna
import repro.util.Hashing

import scala.util.Random

class BloomFilterSpec extends AnyFunSuite {

  test("fresh filter contains nothing") {
    val bf = new BloomFilter(1024, 3)
    assert(!bf.contains("ACGT"))
    assert(bf.fillRatio == 0.0)
  }

  test("inserted keys are always found (zero false negatives)") {
    val bf = new BloomFilter(4096, 3)
    val keys = (0 until 200).map(i => Dna.randomKmer(31, i.toLong))
    keys.foreach(bf.insert)
    keys.foreach(k => assert(bf.contains(k), s"false negative on $k"))
  }

  test("zero false negatives holds under heavy load (saturated filter)") {
    val bf = new BloomFilter(256, 4)
    val keys = (0 until 500).map(i => s"key$i")
    keys.foreach(bf.insert)
    keys.foreach(k => assert(bf.contains(k)))
  }

  test("insert sets at most eta bits per key") {
    val bf = new BloomFilter(1 << 16, 4)
    bf.insert("AAACCC")
    assert(bf.bits.cardinality <= 4 && bf.bits.cardinality >= 1)
  }

  test("insertPositions/containsPositions agree with string API") {
    val bf = new BloomFilter(2048, 3)
    val pos = Hashing.bloomPositions("GATTACA", 2048, 3)
    bf.insertPositions(pos)
    assert(bf.contains("GATTACA"))
    assert(bf.containsPositions(pos))
  }

  test("empirical FP rate tracks theory within 2x") {
    val eta = 3
    val n = 1000
    Seq(8192, 16384).foreach { m =>
      val bf = new BloomFilter(m, eta)
      (0 until n).foreach(i => bf.insert(Dna.randomKmer(31, i.toLong)))
      val probes = 20000
      val fps = (0 until probes).count(i => bf.contains(Dna.randomKmer(31, 1000000L + i)))
      val got = fps.toDouble / probes
      val want = BloomParams.falsePositiveRate(m, eta, n)
      assert(got < want * 2 + 0.002 && got > want / 2 - 0.002,
        s"m=$m: empirical $got vs theory $want")
    }
  }

  test("fill ratio tracks theory") {
    val m = 16384; val eta = 4; val n = 1500
    val bf = new BloomFilter(m, eta)
    (0 until n).foreach(i => bf.insert(Dna.randomKmer(31, i.toLong)))
    val want = BloomParams.expectedFill(m, eta, n)
    assert(math.abs(bf.fillRatio - want) < 0.03, s"fill ${bf.fillRatio} vs $want")
  }

  test("estimatedFpFromFill is fill^eta") {
    val bf = new BloomFilter(64, 2)
    (0 until 32).foreach(i => bf.bits.set(i))
    assert(math.abs(bf.estimatedFpFromFill - 0.25) < 1e-12)
  }

  test("constructor rejects bad geometry") {
    intercept[IllegalArgumentException](new BloomFilter(0, 3))
    intercept[IllegalArgumentException](new BloomFilter(64, 0))
  }

  test("sizeBytes is the word storage") {
    assert(new BloomFilter(64, 3).sizeBytes == 8)
    assert(new BloomFilter(65, 3).sizeBytes == 16)
  }

  test("copy is independent") {
    val a = BloomFilter.of(512, 3, Seq("X"))
    val b = a.copy()
    b.insert("Y")
    assert(!a.contains("Y") || a.bits != b.bits) // Y's bits may collide; bits must differ unless equal
    assert(b.contains("X") && b.contains("Y"))
  }

  test("filters with same keys are bit-identical (determinism)") {
    val r = new Random(11)
    val keys = (0 until 300).map(_ => r.nextLong().toString)
    val a = BloomFilter.of(8192, 4, keys)
    val b = BloomFilter.of(8192, 4, r.shuffle(keys))
    assert(a.bits == b.bits)
  }

  test("higher eta lowers FP at fixed comfortable load") {
    val n = 500; val m = 16384
    def fp(eta: Int): Double = {
      val bf = new BloomFilter(m, eta)
      (0 until n).foreach(i => bf.insert(s"k$i"))
      (0 until 20000).count(i => bf.contains(s"probe$i")).toDouble / 20000
    }
    assert(fp(4) <= fp(1) + 0.002)
  }
}
