package repro.core

import org.apache.spark.util.SizeEstimator
import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite

import repro.genome.Dna
import repro.util.{BitVector, Hashing}

/** The one index type under both geometries: RAMBO's hashed cell map and
  * BIGSI's identity map must answer exactly "every one of f's D cells passes".
  */
class SignatureIndexSpec extends AnyFunSuite {
  import SignatureIndexSpec.Case

  private val genCase: Gen[Case] = for {
    nFiles   <- Gen.choose(1, 12)
    identity <- Gen.oneOf(true, false)
    d        <- if (identity) Gen.const(1) else Gen.choose(1, 3)
    w        <- if (identity) Gen.const(nFiles) else Gen.choose(1, nFiles + 4)
    m        <- Gen.choose(17, 700).suchThat(m => Integer.bitCount(m) != 1)
    eta      <- Gen.choose(1, 4)
    empty    <- Gen.choose(0, nFiles - 1)
    seed     <- Gen.choose(0L, 1L << 40)
  } yield {
    val pool = (0 until 24).map(i => Dna.randomKmer(31, seed + i))
    val rnd = new scala.util.Random(seed)
    val pairs = for {
      f <- 0 until nFiles if f != empty
      k <- rnd.shuffle(pool).take(rnd.nextInt(10))
    } yield (f, k)
    val negatives = (0 until 8).map(i => Dna.randomKmer(31, Hashing.splitmix64(~seed ^ i)))
    Case(nFiles, w, d, m, eta, identity, empty, pairs, pool ++ negatives)
  }

  private def build(c: Case): SignatureIndex =
    if (c.identity) Bigsi.buildLocal(c.pairs, c.nFiles, c.m, c.eta)
    else Rambo.buildLocal(c.pairs, c.nFiles, c.w, c.d, c.m, c.eta)

  test("probe == bitsliced == every one of f's D cells passes, with zero false negatives") {
    val prop = Prop.forAll(genCase) { c =>
      val idx = build(c)
      val columns = idx.columns
      val truth = c.pairs.groupBy(_._2).view.mapValues(_.map(_._1)).toMap
      c.queries.forall { kmer =>
        val pos = idx.positions(kmer)
        val brute = BitVector.of(c.nFiles, (0 until c.nFiles).filter { f =>
          (0 until c.d).forall(r => columns(idx.fileCells(f * c.d + r)).containsPositions(pos))
        })
        val probe = idx.queryProbe(kmer)
        probe == idx.queryBitsliced(kmer) && probe == brute &&
          truth.getOrElse(kmer, Nil).forall(probe.get)
      }
    }
    val result = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(300), prop)
    assert(result.passed, result.status.toString)
  }

  test("the identity map answers with the hit cells; a hashed map with D=1, W=N resolves them") {
    val pairs = (0 until 6).map(f => (f, Dna.randomKmer(31, 100L + f)))
    val bigsi = Bigsi.buildLocal(pairs, 6, 4096, 3)
    val hashed = Rambo.buildLocal(pairs, 6, 6, 1, 4096, 3)
    pairs.foreach { case (f, k) =>
      assert(bigsi.queryBitsliced(k) == bigsi.matrix.rowAnd(bigsi.positions(k)))
      assert(hashed.queryProbe(k).get(f))
      assert(bigsi.queryProbe(k).get(f))
    }
  }

  test("indexBytes is within 5% of the resident size (SizeEstimator)") {
    val pairs = (0 until 4000).map(i => (i % 200, Dna.randomKmer(31, 7L * i)))
    for (idx <- Seq(Rambo.buildLocal(pairs, 200, 20, 3, 65536, 3),
                    Bigsi.buildLocal(pairs, 200, 8192, 3))) {
      val resident = SizeEstimator.estimate(idx)
      assert(math.abs(idx.indexBytes - resident) <= 0.05 * resident,
        s"indexBytes ${idx.indexBytes} vs resident $resident (w=${idx.w}, d=${idx.d})")
    }
  }
}

object SignatureIndexSpec {
  /** A small geometry and corpus: `pairs` over `nFiles` files drawn from a
    * shared pool, with file `empty` left without k-mers.
    */
  final case class Case(nFiles: Int, w: Int, d: Int, m: Int, eta: Int,
                        identity: Boolean, empty: Int, pairs: Seq[(Int, String)],
                        queries: Seq[String])
}
