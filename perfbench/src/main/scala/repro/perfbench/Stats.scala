package repro.perfbench

/** Order statistics used by every workload. */
object Stats {

  /** Nearest-rank percentile `p` (0 < p ≤ 100) of ascending `sorted`: the
    * smallest sample with at least p% of the samples at or below it.
    */
  def percentile(sorted: Array[Long], p: Double): Long = {
    require(sorted.nonEmpty, "no samples")
    require(p > 0 && p <= 100, s"percentile $p out of (0, 100]")
    val rank = math.ceil(p / 100.0 * sorted.length).toInt
    sorted(math.max(rank, 1) - 1)
  }

  /** Median of `xs` (mean of the middle two for an even count). */
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "no samples")
    val s = xs.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** Cut points dividing `xs` into `n` equal groups, with the interpolation
    * of Python's `statistics.quantiles(xs, n=n)` (its default "exclusive"
    * method), so quartiles here read the same as quartiles computed over
    * results files in Python.
    */
  def quantiles(xs: Seq[Double], n: Int = 4): Seq[Double] = {
    require(n >= 1, s"n must be >= 1, got $n")
    require(xs.length >= 2, "need at least two samples")
    val s = xs.sorted.toIndexedSeq
    val m = s.length + 1
    (1 until n).map { i =>
      val j = math.min(math.max(i * m / n, 1), s.length - 1)
      val delta = i * m - j * n
      (s(j - 1) * (n - delta) + s(j) * delta) / n
    }
  }

  /** Latency summary of one query path, from per-query nanoseconds. */
  final case class Latency(samples: Int, p50Us: Double, p99Us: Double, meanUs: Double)

  def latency(nanos: Array[Long]): Latency = {
    val s = nanos.clone()
    java.util.Arrays.sort(s)
    Latency(s.length, percentile(s, 50) / 1e3, percentile(s, 99) / 1e3, s.sum.toDouble / s.length / 1e3)
  }
}
