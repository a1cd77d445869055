package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.blocking.ExactKnnBlocker
import repro.data.{CleanProfile, ERSynth}
import repro.embed.Vectorizer
import repro.matching.{Similarity, UniqueMappingClustering}

/** Shared measurement harness for the effectiveness/efficiency benches.
  *
  * For one (model, dataset) it vectorizes both sources (timed), runs one
  * exact top-`kMax` NNS (timed), and derives from the single neighbour
  * list: blocking recall at every k ≤ kMax (Figures 3/4), and the
  * one-pass UMC threshold sweep (Figure 8, Table 5(b)). kMax = 64 per
  * DESIGN.md §5.
  */
object Harness {

  final case class Run(
      modelCode: String,
      dataset: String,
      vecSecs: Double,          // both sources (Table 4 transform column)
      blockSecs: Double,        // NNS at kMax
      neighbours: Array[(Long, Long, Double, Int)], // (qid, nid, dist, rank)
      gt: Set[(Long, Long)],
      side1Smaller: Boolean,
      smallSize: Long) {

    /** A (query, neighbour) pair as (side1 id, side2 id). */
    private[core] def canon(q: Long, n: Long): (Long, Long) = Harness.canon(side1Smaller, q, n)

    /** (qid, nid, sim) of every neighbour, the input of UMC. */
    private[core] def scored: Array[(Long, Long, Double)] =
      neighbours.map { case (q, n, d, _) => (q, n, Similarity.sim(d)) }

    /** Candidate pairs canonicalized to (side1, side2) at a given k. */
    def candidatePairs(k: Int): Set[(Long, Long)] =
      neighbours.iterator.filter(_._4 <= k).map { case (q, n, _, _) => canon(q, n) }.toSet

    /** Blocking recall (pairs completeness) at k. */
    def recallAt(k: Int): Double = {
      if (gt.isEmpty) return 1.0
      gt.count(candidatePairs(k).contains).toDouble / gt.size
    }

    /** UMC sweep over the neighbour list: returns
      * (bestDelta, precision, recall, f1, umcSecs).
      */
    def umcBest(): (Double, Double, Double, Double, Double) = {
      val pairs = scored
      val t0 = System.nanoTime()
      val sweep = UniqueMappingClustering.sweep(pairs, smallSize)
      val secs = (System.nanoTime() - t0) / 1e9
      val canonical = sweep.map { m =>
        val (a, b) = canon(m.id1, m.id2)
        UniqueMappingClustering.Match(a, b, m.sim)
      }
      val (d, p, r, f1) = UniqueMappingClustering.bestThreshold(canonical, gt)
      (d, p, r, f1, secs)
    }
  }

  /** The query rule of every Clean-Clean path (paper §4.3): the smaller
    * source queries the larger one, source 1 on a tie. Returns the two
    * sources as (queries, index) and whether source 1 queries, which
    * `canon` takes to turn their pairs back into (side1, side2) order.
    */
  private[core] def querySides[A](p: CleanProfile, s1: A, s2: A): (A, A, Boolean) =
    if (p.v1 <= p.v2) (s1, s2, true) else (s2, s1, false)

  /** A (query id, index id) pair as (side1 id, side2 id). */
  private[core] def canon(side1Queries: Boolean, q: Long, n: Long): (Long, Long) =
    if (side1Queries) (q, n) else (n, q)

  /** Vectorization time of both sources of `p` for `modelCode` (Table 4). */
  def vectorizationSecs(spark: SparkSession, p: CleanProfile, modelCode: String): Double = {
    val s1 = ERSynth.source(spark, p, 1).cache(); s1.count()
    val s2 = ERSynth.source(spark, p, 2).cache(); s2.count()
    Vectorizer.runtime(modelCode) // exclude init from the transform column
    val t0 = System.nanoTime()
    Vectorizer.vectorize(s1, modelCode, s"${p.name}#1").foreach(_ => ())
    Vectorizer.vectorize(s2, modelCode, s"${p.name}#2").foreach(_ => ())
    val secs = (System.nanoTime() - t0) / 1e9
    s1.unpersist(); s2.unpersist()
    secs
  }

  /** Full run for one (model, dataset). */
  def runOne(spark: SparkSession, p: CleanProfile, modelCode: String, kMax: Int = 64): Run = {
    val s1 = ERSynth.source(spark, p, 1).cache(); s1.count()
    val s2 = ERSynth.source(spark, p, 2).cache(); s2.count()
    Vectorizer.runtime(modelCode)
    val run = knn(p, s1, s2, ERSynth.groundTruth(spark, p), modelCode, kMax)
    s1.unpersist(); s2.unpersist()
    run
  }

  /** The one vectorize → exact k-NN step of every Clean-Clean path: embeds
    * both sources with the `#1`/`#2` noise tags (so a (model, dataset) has
    * the same vectors in every table), lets the query side of `querySides`
    * find its `kMax` nearest in the other, and collects the
    * ground truth. It caches only the vectors it creates; the frames it is
    * handed are neither cached, counted nor unpersisted.
    */
  private[core] def knn(p: CleanProfile, s1: DataFrame, s2: DataFrame, gt: DataFrame,
                        modelCode: String, kMax: Int): Run = {
    val spark = s1.sparkSession
    import spark.implicits._
    val tv = System.nanoTime()
    val v1 = Vectorizer.vectorize(s1, modelCode, s"${p.name}#1").cache(); v1.count()
    val v2 = Vectorizer.vectorize(s2, modelCode, s"${p.name}#2").cache(); v2.count()
    val vecSecs = (System.nanoTime() - tv) / 1e9

    val (queries, index, side1Smaller) = querySides(p, v1, v2)
    val k = math.min(kMax, math.max(p.v1, p.v2))
    val tb = System.nanoTime()
    val nb = ExactKnnBlocker.topK(queries, index, k)
      .select("qid", "nid", "dist", "rank").as[(Long, Long, Double, Int)].collect()
    val blockSecs = (System.nanoTime() - tb) / 1e9

    val gtSet = gt.select("id1", "id2").as[(Long, Long)].collect().toSet
    v1.unpersist(); v2.unpersist()
    Run(modelCode, p.name, vecSecs, blockSecs, nb, gtSet, side1Smaller, math.min(p.v1, p.v2).toLong)
  }
}
