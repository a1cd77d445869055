package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.blocking.ExactKnnBlocker
import repro.core.Pipeline
import repro.data.{CleanProfile, ERSynth}
import repro.embed.{ModelRegistry, Vectorizer}
import repro.matching.{MatchMetrics, UniqueMappingClustering}
import repro.matching.UniqueMappingClustering.Match

/** The inputs of one dataset: profile, both sources and the ground truth, cached. */
final case class CleanInputs(p: CleanProfile, s1: DataFrame, s2: DataFrame, gt: DataFrame) {
  def unpersist(): Unit = Seq(s1, s2, gt).foreach(_.unpersist())
}

/** Evidence of one dataset of an end-to-end rep. */
final case class E2eEvidence(p: CleanProfile, top: Array[(Long, Long, Double)], matches: Vector[Match],
                             gt: Set[(Long, Long)], prf: (Double, Double, Double),
                             queries: Map[Long, Array[Float]], index: Map[Long, Array[Float]])

/** Table 5(b) path: the paper's parameter-free pipeline,
  * `Pipeline.runOnSources` with S-GTR-T5, k=10 and δ=0.5 on D2, D3 and
  * D4; one rep covers all three. The heaviest model on the longest texts,
  * so vectorization dominates and k-NN and UMC run at small k.
  */
final class CleanE2eS5(spark: SparkSession, seed: Long, scale: Double)
    extends Workload[Seq[E2eEvidence]](spark, seed) {
  import spark.implicits._

  val name = "clean-e2e-s5"
  val model = "S5"
  val k = 10
  val delta = 0.5
  val profiles: Seq[CleanProfile] = Seq("D2", "D3", "D4").map(salted(_, scale))
  def entities: Long = profiles.map(p => p.v1.toLong + p.v2).sum
  def sizes: Seq[(String, Long)] =
    profiles.flatMap(p => Seq(s"${p.name.takeWhile(_ != '~')}.v1" -> p.v1.toLong,
                              s"${p.name.takeWhile(_ != '~')}.v2" -> p.v2.toLong))

  private var inputs: Seq[CleanInputs] = Nil
  def inputFrames: Seq[DataFrame] = inputs.flatMap(in => Seq(in.s1, in.s2))

  def setUp(): SetUp = {
    inputs.foreach(_.unpersist())
    val (in, genS) = timed(profiles.map(p => CleanInputs(p,
      cached(ERSynth.source(spark, p, 1)), cached(ERSynth.source(spark, p, 2)),
      cached(ERSynth.groundTruth(spark, p)))))
    inputs = in
    SetUp(genS, initModel(), entities)
  }

  /** Mean over the three datasets of each quality value. */
  private def outcome(perDataset: Seq[(Double, Double, Double, Long)], exact: Any,
                      evidence: Option[Seq[E2eEvidence]]): Outcome[Seq[E2eEvidence]] = {
    def mean(f: ((Double, Double, Double, Long)) => Double) = perDataset.map(f).sum / perDataset.size
    Outcome(mean(_._1), mean(_._2), mean(_._3), perDataset.map(_._4).sum, exact, evidence)
  }

  /** Blocking recall and precision at k of (qid, nid) rows. */
  private def blocking(p: CleanProfile, top: Array[(Long, Long, Double)], gt: Set[(Long, Long)]): (Double, Double) = {
    val cands = top.iterator.map(r => Workload.canon(p.v1 <= p.v2)(r._1, r._2)).toSet
    val hits = gt.count(cands.contains).toDouble
    (hits / gt.size, hits / cands.size)
  }

  /** Pipeline.Result does not expose its candidates, so the blocking
    * values of an entry rep are NaN; the reported ones come from the
    * composed reference rep, which every entry rep must match exactly.
    */
  def entry(): (Outcome[Seq[E2eEvidence]], Double) = {
    val (results, secs) = timed(inputs.map(in =>
      Pipeline.runOnSources(spark, in.p, in.s1, in.s2, in.gt, model, k, delta)))
    (outcome(results.map(r => (Double.NaN, Double.NaN, r.f1, r.nCandidates)),
      results.map(r => (r.precision, r.recall, r.f1, r.nCandidates)), None), secs)
  }

  def compose(t: Tracer, capture: Boolean): (Outcome[Seq[E2eEvidence]], Double) = {
    val (perDataset, secs) = timed(inputs.map { case CleanInputs(p, s1, s2, gt) =>
      // Pipeline.runOnSources, split at its calls into the layers
      val (v1, v2) = t.span("embed.vectorize") {
        (cached(Vectorizer.vectorize(s1, model, s"${p.name}#1")),
         cached(Vectorizer.vectorize(s2, model, s"${p.name}#2")))
      }
      t.count("embed.entities", p.v1.toDouble + p.v2)
      val side1Smaller = p.v1 <= p.v2
      val (queries, index) = if (side1Smaller) (v1, v2) else (v2, v1)
      val (nq, ni) = if (side1Smaller) (p.v1, p.v2) else (p.v2, p.v1)
      val top = t.span("blocking.knn") {
        ExactKnnBlocker.topK(queries, index, k).select("qid", "nid", "dist").as[(Long, Long, Double)].collect()
      }
      t.count("blocking.knn.pair_evals", nq.toDouble * ni)
      t.count("blocking.knn.broadcast_bytes", nq.toDouble * ModelRegistry(model).dim * 4)
      t.count("blocking.knn.candidates", top.length.toDouble)
      val (matches, predicted) = t.span("matching.umc") {
        val scored = top.map { case (q, n, d) => (q, n, 1.0 / (1.0 + d)) }
        val matches = UniqueMappingClustering.cluster(scored, delta, math.min(p.v1, p.v2).toLong)
        (matches, matches.map(m => Workload.canon(side1Smaller)(m.id1, m.id2)).toSet)
      }
      t.count("matching.umc.pairs_in", top.length.toDouble)
      t.count("matching.umc.matches", matches.size.toDouble)
      val gtSet = t.span("core.collect") { gt.select("id1", "id2").as[(Long, Long)].collect().toSet }
      val prf = t.span("matching.eval") { MatchMetrics.prf(predicted, gtSet) }
      val evidence = if (capture) Some(E2eEvidence(p, top, matches, gtSet, prf, vectors(queries), vectors(index))) else None
      v1.unpersist(); v2.unpersist()
      val (recall, precision) = blocking(p, top, gtSet)
      ((recall, precision, prf._3, top.length.toLong), (prf._1, prf._2, prf._3, top.length.toLong), evidence)
    })
    (outcome(perDataset.map(_._1), perDataset.map(_._2),
      if (capture) Some(perDataset.flatMap(_._3)) else None), secs)
  }

  def verify(o: Outcome[Seq[E2eEvidence]]): Seq[String] = o.evidence.get.flatMap {
    case E2eEvidence(p, top, matches, gt, prf, qv, iv) =>
      val byQuery = top.groupBy(_._1)
      val knn = Checks.sample(qv.keys.toSeq, 200, seed).flatMap { q =>
        val got = byQuery.getOrElse(q, Array.empty).map(r => (r._2, r._3)).sortBy { case (n, d) => (d, n) }.toSeq
        Checks.sameTopK(q, got, Checks.bruteTopK(qv(q), iv, k), qv(q), iv)
      }
      val umc = Checks.umcInvariants(matches.map(m => (m.id1, m.id2, m.sim)), delta,
        top.iterator.map(r => (r._1, r._2)).toSet)
      val predicted = matches.map(m => Workload.canon(p.v1 <= p.v2)(m.id1, m.id2)).toSet
      knn.map(s"${p.name}: " + _) ++ umc.map(s"${p.name}: " + _) ++
        Checks.equal(s"${p.name} candidates", top.length, p.v1.min(p.v2) * k) ++
        Checks.equal(s"${p.name} match (p, r, f1)", prf, Checks.prf(predicted, gt))
  }
}
