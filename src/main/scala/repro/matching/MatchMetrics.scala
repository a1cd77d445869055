package repro.matching

/** Precision / recall / F1 over predicted vs ground-truth match pairs. */
object MatchMetrics {

  /** (precision, recall, f1); empty predictions ⇒ p = 0. */
  def prf(predicted: Set[(Long, Long)], groundTruth: Set[(Long, Long)]): (Double, Double, Double) =
    prf(predicted.count(groundTruth.contains), predicted.size, groundTruth.size)

  /** (precision, recall, f1) from the counts of true positives, predicted
    * pairs and ground-truth pairs.
    */
  def prf(tp: Int, nPredicted: Int, nTruth: Int): (Double, Double, Double) = {
    if (nTruth == 0) return (if (nPredicted == 0) 1.0 else 0.0, 1.0, if (nPredicted == 0) 1.0 else 0.0)
    val p  = if (nPredicted == 0) 0.0 else tp.toDouble / nPredicted
    val r  = tp.toDouble / nTruth
    val f1 = if (p + r == 0) 0.0 else 2 * p * r / (p + r)
    (p, r, f1)
  }
}
