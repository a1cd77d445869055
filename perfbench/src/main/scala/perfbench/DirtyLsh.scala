package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.blocking.{BlockingMetrics, LshAnnBlocker}
import repro.data.FebrlSynth
import repro.embed.Vectorizer

/** Evidence of an LSH rep: the top-k rows and every vector. */
final case class LshEvidence(rows: Seq[(Long, Long, Double, Int)], pairs: Set[(Long, Long)],
                             vectors: Map[Long, Array[Float]])

/** Dirty-ER blocking: Febrl entities with S-MiniLM, then
  * `LshAnnBlocker.topK(k=10)` at its default tables/bits, the undirected
  * candidates, and their recall and precision against
  * `FebrlSynth.duplicatePairs`. The only workload whose blocking is a
  * shuffle self-join with UDFs rather than a broadcast scan.
  */
final class DirtyLsh(spark: SparkSession, seed: Long, n: Long) extends Workload[LshEvidence](spark, seed) {
  import spark.implicits._

  val name = "dirty-lsh"
  val model = "SM"
  val k = 10
  val tag = s"febrl~s$seed"
  def entities: Long = n
  def sizes: Seq[(String, Long)] = Seq("febrl.entities" -> n)

  private var inputs: Option[(DataFrame, DataFrame)] = None
  def inputFrames: Seq[DataFrame] = inputs.map(_._1).toSeq
  private lazy val gtPairs: Set[(Long, Long)] = inputs.get._2.as[(Long, Long)].collect().toSet

  def setUp(): SetUp = {
    inputs.foreach { case (e, gt) => e.unpersist(); gt.unpersist() }
    val (in, genS) = timed((cached(FebrlSynth.entities(spark, n, tag)), cached(FebrlSynth.duplicatePairs(spark, n))))
    inputs = Some(in)
    SetUp(genS, initModel(), n)
  }

  /** There is no single entry point for Dirty-ER blocking: the rep is the
    * same sequence of calls, traced or not.
    */
  def entry(): (Outcome[LshEvidence], Double) = compose(Tracer.off, capture = false)

  def compose(t: Tracer, capture: Boolean): (Outcome[LshEvidence], Double) = {
    val (entitiesDf, gt) = inputs.get
    val ((v, top, cands, recall, precision), secs) = timed {
      val v = t.span("embed.vectorize") { cached(Vectorizer.vectorize(entitiesDf, model, tag)) }
      t.count("embed.entities", n.toDouble)
      val top = t.span("blocking.lsh") { cached(LshAnnBlocker.topK(v, k)) }
      val cands = t.span("blocking.lsh") { cached(LshAnnBlocker.undirectedCandidates(top)) }
      val (recall, precision) = t.span("blocking.eval") {
        (BlockingMetrics.recall(cands, gt), BlockingMetrics.precision(cands, gt))
      }
      (v, top, cands, recall, precision)
    }
    val rows = top.select("qid", "nid", "dist", "rank").as[(Long, Long, Double, Int)].collect().toSeq.sorted
    val pairs = cands.select("id1", "id2").as[(Long, Long)].collect().toSet
    t.count("blocking.lsh.candidates", pairs.size.toDouble)
    val evidence = if (capture) Some(LshEvidence(rows, pairs, vectors(v))) else None
    Seq(v, top, cands).foreach(_.unpersist())
    (Outcome(recall, precision, Double.NaN, pairs.size.toLong, (rows, pairs.size, recall, precision), evidence), secs)
  }

  private def sampled(vecs: Map[Long, Array[Float]]): Seq[Long] = Checks.sample(vecs.keys.toSeq, 200, seed)

  private def exactTopK(vecs: Map[Long, Array[Float]], q: Long): Seq[(Long, Double)] =
    Checks.bruteTopK(vecs(q), vecs, k, exclude = q)

  /** Recall of the sampled queries' duplicate partners among their LSH
    * neighbours, and among their exact (brute-force) neighbours at the same k.
    */
  override def facts(o: Outcome[LshEvidence]): Seq[(String, Double)] = {
    val LshEvidence(rows, _, vecs) = o.evidence.get
    val byQuery = rows.groupBy(_._1)
    val partners = gtPairs.toSeq.flatMap { case (a, b) => Seq(a -> b, b -> a) }.groupBy(_._1)
    val found = sampled(vecs).map { q =>
      val want = partners.getOrElse(q, Nil).map(_._2).toSet
      (want.size, byQuery.getOrElse(q, Nil).count(r => want(r._2)), exactTopK(vecs, q).count(r => want(r._1)))
    }
    val total = found.map(_._1).sum.toDouble
    Seq("sampled_lsh_recall" -> found.map(_._2).sum / total, "sampled_exact_recall" -> found.map(_._3).sum / total)
  }

  def verify(o: Outcome[LshEvidence]): Seq[String] = {
    val LshEvidence(rows, pairs, vecs) = o.evidence.get
    val byQuery = rows.groupBy(_._1)
    val structure = rows.flatMap { case (q, nb, d, _) =>
      val trueD = Checks.l2(vecs(q), vecs(nb))
      (if (q == nb) Seq(s"LSH returned the query $q as its own neighbour") else Nil) ++
        (if (math.abs(trueD - d) > Checks.DistTol) Seq(f"LSH dist $q-$nb $d%.7f, recomputed $trueD%.7f") else Nil)
    } ++ byQuery.collect { case (q, rs) if rs.size > k => s"query $q has ${rs.size} rows, more than k=$k" }
    val bounds = sampled(vecs).flatMap { q =>
      val approx = byQuery.getOrElse(q, Nil).map(_._3).sorted
      val exact = exactTopK(vecs, q).map(_._2)
      approx.zip(exact).collect { case (a, e) if a < e - Checks.DistTol =>
        f"query $q: LSH dist $a%.7f below the exact one $e%.7f" }
    }
    val hits = gtPairs.count(pairs.contains).toDouble
    structure ++ bounds ++
      Checks.equal("blocking recall", o.recall, hits / gtPairs.size) ++
      Checks.equal("blocking precision", o.precision, hits / pairs.size)
  }
}
