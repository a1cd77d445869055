package repro.blocking

import org.apache.spark.sql.DataFrame

/** Blocking effectiveness measures (paper §5.1).
  *
  * Recall = pairs completeness: fraction of ground-truth duplicate pairs
  * present among the candidates. Precision = matching candidates /
  * distinct candidates (the paper reports it only in the scalability
  * analysis; elsewhere it is proportional to recall).
  */
object BlockingMetrics {

  /** Recall of candidate pairs vs ground truth (both (id1, id2) frames). */
  def recall(candidates: DataFrame, groundTruth: DataFrame): Double = {
    val gt = groundTruth.select("id1", "id2").distinct()
    val total = gt.count()
    if (total == 0) return 1.0
    val hit = gt.join(candidates.select("id1", "id2").distinct(), Seq("id1", "id2")).count()
    hit.toDouble / total
  }

  /** Precision = true candidates / all distinct candidates. */
  def precision(candidates: DataFrame, groundTruth: DataFrame): Double = {
    val cands = candidates.select("id1", "id2").distinct()
    val n = cands.count()
    if (n == 0) return 0.0
    val hit = groundTruth.select("id1", "id2").distinct().join(cands, Seq("id1", "id2")).count()
    hit.toDouble / n
  }
}
