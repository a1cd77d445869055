package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.blocking.ExactKnnBlocker
import repro.core.Harness
import repro.data.{CleanProfile, ERSynth}
import repro.embed.{ModelRegistry, Vectorizer}
import repro.matching.UniqueMappingClustering
import repro.matching.UniqueMappingClustering.Match

/** Evidence of a sweep rep: the run, the query and index vectors, the
  * UMC sweep in (qid, nid) orientation, recall at k = 1/5/10 and the
  * best-δ (δ, p, r, f1).
  */
final case class SweepEvidence(run: Harness.Run, queries: Map[Long, Array[Float]],
                               index: Map[Long, Array[Float]], sweep: Vector[Match],
                               recalls: Seq[Double], best: (Double, Double, Double, Double))

/** Figures 3/4/8 path: `Harness.runOne` on D10 with Word2Vec at kMax=64,
  * then recall at k = 1, 5, 10 and the best-δ UMC sweep. The cheapest
  * vectorizer on the largest Clean-Clean dataset, so exact k-NN dominates.
  */
final class CleanSweepKnn(spark: SparkSession, seed: Long, scale: Double)
    extends Workload[SweepEvidence](spark, seed) {
  import spark.implicits._

  val name = "clean-sweep-knn"
  val model = "WC"
  val kMax = 64
  val p: CleanProfile = salted("D10", scale)
  def entities: Long = p.v1.toLong + p.v2
  def sizes: Seq[(String, Long)] = Seq("D10.v1" -> p.v1.toLong, "D10.v2" -> p.v2.toLong)

  private var inputs: Seq[DataFrame] = Nil
  def inputFrames: Seq[DataFrame] = inputs

  /** Harness.runOne generates its own sources in every rep; the cached
    * copies serve the token count.
    */
  def setUp(): SetUp = {
    inputs.foreach(_.unpersist())
    val (in, genS) = timed(Seq(1, 2).map(side => cached(ERSynth.source(spark, p, side))))
    inputs = in
    SetUp(genS, initModel(), entities)
  }

  private val side1Smaller = p.v1 <= p.v2
  private val k = math.min(kMax, math.max(p.v1, p.v2))
  private val canon = Workload.canon(side1Smaller) _

  private def outcome(run: Harness.Run, recalls: Seq[Double], best: (Double, Double, Double, Double),
                      evidence: Option[SweepEvidence]): Outcome[SweepEvidence] = {
    val cands = run.candidatePairs(10)
    val precision = cands.count(run.gt.contains).toDouble / cands.size
    Outcome(recalls(2), precision, best._4, cands.size.toLong,
      (run.neighbours.toSeq.sorted, recalls, best), evidence)
  }

  def entry(): (Outcome[SweepEvidence], Double) = {
    val ((run, recalls, best), secs) = timed {
      val run = Harness.runOne(spark, p, model, kMax)
      val recalls = Seq(1, 5, 10).map(run.recallAt)
      val (d, pr, re, f1, _) = run.umcBest()
      (run, recalls, (d, pr, re, f1))
    }
    (outcome(run, recalls, best, None), secs)
  }

  def compose(t: Tracer, capture: Boolean): (Outcome[SweepEvidence], Double) = {
    val ((run, recalls, best, evidence), secs) = timed {
      val (s1, s2) = t.span("data.rep_gen") {
        (cached(ERSynth.source(spark, p, 1)), cached(ERSynth.source(spark, p, 2)))
      }
      Vectorizer.runtime(model)
      val (v1, v2) = t.span("embed.vectorize") {
        (cached(Vectorizer.vectorize(s1, model, s"${p.name}#1")),
         cached(Vectorizer.vectorize(s2, model, s"${p.name}#2")))
      }
      t.count("embed.entities", entities.toDouble)
      val (queries, index) = if (side1Smaller) (v1, v2) else (v2, v1)
      val (nq, ni) = if (side1Smaller) (p.v1, p.v2) else (p.v2, p.v1)
      val nb = t.span("blocking.knn") {
        ExactKnnBlocker.topK(queries, index, k)
          .select("qid", "nid", "dist", "rank").as[(Long, Long, Double, Int)].collect()
      }
      t.count("blocking.knn.pair_evals", nq.toDouble * ni)
      t.count("blocking.knn.broadcast_bytes", nq.toDouble * ModelRegistry(model).dim * 4)
      t.count("blocking.knn.candidates", nb.length.toDouble)
      val gt = t.span("core.collect") { ERSynth.groundTruth(spark, p).as[(Long, Long)].collect().toSet }
      val vecs = if (capture) Some((vectors(queries), vectors(index))) else None
      v1.unpersist(); v2.unpersist(); s1.unpersist(); s2.unpersist()

      val run = Harness.Run(model, p.name, 0, 0, nb, gt, side1Smaller, math.min(p.v1, p.v2).toLong)
      val recalls = t.span("matching.eval") { Seq(1, 5, 10).map(run.recallAt) }
      // Harness.Run.umcBest, split at its calls into the matching layer
      val sweep = t.span("matching.umc") {
        UniqueMappingClustering.sweep(nb.map { case (q, n, d, _) => (q, n, 1.0 / (1.0 + d)) }, run.smallSize)
      }
      t.count("matching.umc.pairs_in", nb.length.toDouble)
      t.count("matching.umc.matches", sweep.size.toDouble)
      val canonical = sweep.map { m => val (a, b) = canon(m.id1, m.id2); Match(a, b, m.sim) }
      val best = t.span("matching.eval") { UniqueMappingClustering.bestThreshold(canonical, gt) }
      (run, recalls, best, vecs.map { case (q, i) => SweepEvidence(run, q, i, sweep, recalls, best) })
    }
    (outcome(run, recalls, best, evidence), secs)
  }

  def verify(o: Outcome[SweepEvidence]): Seq[String] = {
    val SweepEvidence(run, qv, iv, sweep, recalls, (d, pr, re, f1)) = o.evidence.get
    val byQuery = run.neighbours.groupBy(_._1)
    val knn = Checks.sample(qv.keys.toSeq, 200, seed).flatMap { q =>
      val got = byQuery.getOrElse(q, Array.empty).sortBy(_._4).toSeq
      Checks.equal(s"query $q ranks", got.map(_._4), 1 to got.length) ++
        Checks.sameTopK(q, got.map(r => (r._2, r._3)), Checks.bruteTopK(qv(q), iv, k), qv(q), iv)
    }
    val recall = Seq(1, 5, 10).map { kk =>
      val cands = run.neighbours.iterator.filter(_._4 <= kk).map(r => canon(r._1, r._2)).toSet
      run.gt.count(cands.contains).toDouble / run.gt.size
    }
    val umc = Checks.umcInvariants(sweep.map(m => (m.id1, m.id2, m.sim)), 0.0,
      run.neighbours.iterator.map(r => (r._1, r._2)).toSet)
    val scored = sweep.map(m => (canon(m.id1, m.id2), m.sim))
    def at(delta: Double) = Checks.prf(scored.filter(_._2 >= delta).map(_._1).toSet, run.gt)
    knn ++ umc ++ Checks.equal("recall at k = 1/5/10", recalls, recall) ++
      Checks.equal("UMC (p, r, f1) at the best delta", (pr, re, f1), at(d)) ++
      Checks.equal("best F1 over the delta grid", f1, (1 to 19).map(i => at(i * 0.05)._3).max)
  }
}
