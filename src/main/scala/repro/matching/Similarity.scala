package repro.matching

/** Similarity scoring over candidate pairs (paper §4.3):
  * sim(e_i, e_j) = 1 / (1 + dist(v_i, v_j)) with Euclidean dist.
  */
object Similarity {

  /** The score of a candidate pair at Euclidean distance `dist`, in (0, 1]. */
  def sim(dist: Double): Double = 1.0 / (1.0 + dist)
}
