package repro.matching

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}
import repro.PropSupport
import UniqueMappingClustering.{Match => M}

class UMCSpec extends AnyFunSuite with PropSupport {

  private val pairs = Seq(
    (1L, 10L, 0.9), (1L, 11L, 0.8), (2L, 10L, 0.85), (2L, 11L, 0.7), (3L, 12L, 0.4))

  test("greedy matching picks best pairs first") {
    val m = UniqueMappingClustering.cluster(pairs, 0.0)
    assert(m.map(x => (x.id1, x.id2)) == Vector((1L, 10L), (2L, 11L), (3L, 12L)))
  }

  test("threshold prunes low-similarity matches") {
    val m = UniqueMappingClustering.cluster(pairs, 0.5)
    assert(m.map(x => (x.id1, x.id2)) == Vector((1L, 10L), (2L, 11L)))
  }

  test("each entity is matched at most once (both sides)") {
    val m = UniqueMappingClustering.cluster(pairs, 0.0)
    assert(m.map(_.id1).distinct.size == m.size)
    assert(m.map(_.id2).distinct.size == m.size)
  }

  test("smallSize stops early") {
    val m = UniqueMappingClustering.cluster(pairs, 0.0, smallSize = 1)
    assert(m == Vector(M(1L, 10L, 0.9)))
  }

  test("empty input yields empty output") {
    assert(UniqueMappingClustering.cluster(Nil, 0.0).isEmpty)
  }

  test("sweep equals cluster at delta 0") {
    assert(UniqueMappingClustering.sweep(pairs) == UniqueMappingClustering.cluster(pairs, 0.0))
  }

  test("greedy-prefix property: cluster(delta) == sweep filtered by delta") {
    val gen = Gen.listOfN(60, for {
      a <- Gen.choose(0L, 12L); b <- Gen.choose(100L, 112L); s <- Gen.choose(0.0, 1.0)
    } yield (a, b, s))
    checkProp(Prop.forAll(gen, Gen.choose(0.0, 1.0)) { (ps, d) =>
      val viaSweep = UniqueMappingClustering.sweep(ps).filter(_.sim >= d)
      val direct   = UniqueMappingClustering.cluster(ps, d)
      viaSweep == direct
    }, "prefix property")
  }

  test("deterministic under input permutation") {
    val shuffled = pairs.reverse
    assert(UniqueMappingClustering.cluster(shuffled, 0.0) ==
           UniqueMappingClustering.cluster(pairs, 0.0))
  }

  test("ties broken deterministically by ids") {
    val tied = Seq((1L, 10L, 0.5), (1L, 11L, 0.5), (2L, 10L, 0.5))
    val m = UniqueMappingClustering.cluster(tied, 0.0)
    assert(m.map(x => (x.id1, x.id2)) == Vector((1L, 10L), (2L, 11L)).take(m.size))
  }

  test("bestThreshold maximizes F1 over the grid") {
    val sweep = Vector(M(1, 10, 0.9), M(2, 11, 0.6), M(3, 13, 0.3))
    val gt = Set((1L, 10L), (2L, 11L), (3L, 12L))
    val (d, p, r, f1) = UniqueMappingClustering.bestThreshold(sweep, gt)
    // keeping the first two matches (δ in (0.3, 0.6]) gives P=1, R=2/3
    assert(d > 0.3 && d <= 0.6)
    assert(math.abs(p - 1.0) < 1e-9)
    assert(math.abs(r - 2.0 / 3) < 1e-9)
    assert(f1 > 0.79 && f1 < 0.81)
  }

  /** The 19-set bestThreshold that the one-pass version replaced. */
  private def bestThresholdBySets(sweepMatches: Vector[M], groundTruth: Set[(Long, Long)]) = {
    var best = (0.05, 0.0, 0.0, -1.0)
    for (d <- (1 to 19).map(_ * 0.05)) {
      val predicted = sweepMatches.filter(_.sim >= d).map(m => (m.id1, m.id2)).toSet
      val (p, r, f1) = MatchMetrics.prf(predicted, groundTruth)
      if (f1 > best._4) best = (d, p, r, f1)
    }
    best
  }

  test("property: one-pass bestThreshold equals the 19-set version") {
    // similarities on the δ grid itself as well as between grid points
    val sim = Gen.oneOf(Gen.choose(1, 19).map(_ * 0.05), Gen.choose(0.0, 1.0))
    val pair = for { a <- Gen.choose(0L, 15L); b <- Gen.choose(100L, 115L); s <- sim } yield (a, b, s)
    val gen = for {
      ps <- Gen.listOfN(50, pair)
      truth <- Gen.listOf(for { a <- Gen.choose(0L, 15L); b <- Gen.choose(100L, 115L) } yield (a, b))
    } yield (ps, truth.toSet)
    checkProp(Prop.forAll(gen) { case (ps, truth) =>
      val sweep = UniqueMappingClustering.sweep(ps)
      UniqueMappingClustering.bestThreshold(sweep, truth) == bestThresholdBySets(sweep, truth)
    }, "one-pass vs 19 sets")
  }

  test("bestThreshold on empty sweep yields zero F1") {
    val (_, _, _, f1) = UniqueMappingClustering.bestThreshold(Vector.empty, Set((1L, 2L)))
    assert(f1 == 0.0)
  }

  test("matches carry the similarity at which they were accepted") {
    val m = UniqueMappingClustering.sweep(pairs)
    assert(m.head == M(1L, 10L, 0.9))
    assert(m.forall(x => pairs.contains((x.id1, x.id2, x.sim))))
  }
}
