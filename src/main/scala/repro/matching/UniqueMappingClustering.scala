package repro.matching

import scala.collection.mutable

/** Unique Mapping Clustering (paper §4.3; Lacoste-Julien et al. SIGMa).
  *
  * Iterates over candidate pairs in descending similarity order, matching
  * a pair iff neither side is matched yet, until every entity of the
  * smaller collection is matched or similarities fall below the threshold
  * δ.
  *
  * Greedy-prefix property: processing order does not depend on δ, and a
  * pair accepted at similarity s is accepted for every δ ≤ s. [[sweep]]
  * exploits this to evaluate the whole δ grid from a single run without a
  * threshold, and [[cluster]] is its prefix (DESIGN.md §5).
  */
object UniqueMappingClustering {

  /** One accepted match with the similarity at which it was accepted. */
  final case class Match(id1: Long, id2: Long, sim: Double)

  /** Run UMC at threshold δ over (qid, nid, sim) pairs (any order).
    * `smallSize` = |smaller collection| for the early-exit condition.
    * By the greedy-prefix property this is the prefix of [[sweep]] with
    * sim ≥ δ.
    */
  def cluster(pairs: Iterable[(Long, Long, Double)], delta: Double,
              smallSize: Long = Long.MaxValue): Vector[Match] =
    sweep(pairs, smallSize).takeWhile(_.sim >= delta)

  /** Every greedy acceptance in processing order (sim descending), each
    * with its similarity; matches at threshold δ are exactly its prefix
    * with sim ≥ δ.
    */
  def sweep(pairs: Iterable[(Long, Long, Double)],
            smallSize: Long = Long.MaxValue): Vector[Match] = {
    val n = pairs.size
    val id1 = new Array[Long](n)
    val id2 = new Array[Long](n)
    val sim = new Array[Double](n)
    var i = 0
    pairs.foreach { case (a, b, s) => id1(i) = a; id2(i) = b; sim(i) = s; i += 1 }
    val order = processingOrder(id1, id2, sim)

    val m1 = mutable.HashSet.empty[Long]
    val m2 = mutable.HashSet.empty[Long]
    val out = Vector.newBuilder[Match]
    var matched = 0L
    i = 0
    while (i < n && matched < smallSize) {
      val p = order(i)
      if (!m1.contains(id1(p)) && !m2.contains(id2(p))) {
        m1 += id1(p); m2 += id2(p); matched += 1
        out += Match(id1(p), id2(p), sim(p))
      }
      i += 1
    }
    out.result()
  }

  /** Indices of the pairs sorted by (sim desc, id1, id2): a bottom-up merge
    * sort of an index permutation over the primitive columns.
    */
  private def processingOrder(id1: Array[Long], id2: Array[Long], sim: Array[Double]): Array[Int] = {
    def before(x: Int, y: Int): Boolean = {
      val c = java.lang.Double.compare(-sim(x), -sim(y))
      c < 0 || (c == 0 && (id1(x) < id1(y) || (id1(x) == id1(y) && id2(x) < id2(y))))
    }
    val n = sim.length
    var src = Array.range(0, n)
    var dst = new Array[Int](n)
    var width = 1
    while (width < n) {
      var lo = 0
      while (lo < n) {
        val mid = math.min(lo + width, n)
        val hi = math.min(lo + 2 * width, n)
        var l = lo; var r = mid; var o = lo
        while (o < hi) {
          if (r >= hi || (l < mid && !before(src(r), src(l)))) { dst(o) = src(l); l += 1 }
          else { dst(o) = src(r); r += 1 }
          o += 1
        }
        lo = hi
      }
      val t = src; src = dst; dst = t
      width *= 2
    }
    src
  }

  /** F1-optimal threshold over the paper's grid δ ∈ {0.05, …, 0.95},
    * evaluated from a [[sweep]] in one pass: one walk of the matches in
    * descending similarity counts, at each grid point, the matches with
    * sim ≥ δ and the true ones among them. The first δ with the strictly
    * largest F1 wins. Returns (bestDelta, precision, recall, f1).
    */
  def bestThreshold(sweepMatches: Vector[Match], groundTruth: Set[(Long, Long)]): (Double, Double, Double, Double) = {
    val grid = (1 to 19).map(_ * 0.05)
    val sims = sweepMatches.iterator.map(_.sim).toArray
    require((1 until sims.length).forall(i => sims(i - 1) >= sims(i)),
      "bestThreshold needs the matches in sweep order (similarity non-increasing)")
    // predicted(g) / tp(g): matches with sim ≥ grid(g), and the true ones among them
    val predicted = new Array[Int](grid.length)
    val tp = new Array[Int](grid.length)
    var i = 0
    var hits = 0
    for (g <- grid.indices.reverse) {
      while (i < sims.length && sims(i) >= grid(g)) {
        val m = sweepMatches(i)
        if (groundTruth.contains((m.id1, m.id2))) hits += 1
        i += 1
      }
      predicted(g) = i; tp(g) = hits
    }
    var best = (0.05, 0.0, 0.0, -1.0)
    for (g <- grid.indices) {
      val (p, r, f1) = MatchMetrics.prf(tp(g), predicted(g), groundTruth.size)
      if (f1 > best._4) best = (grid(g), p, r, f1)
    }
    best
  }
}
