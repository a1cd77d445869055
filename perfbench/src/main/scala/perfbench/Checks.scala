package perfbench

import scala.collection.mutable

/** Correctness checks with references that do not use the kernel under
  * test: plain-loop brute force, invariants, and metrics recomputed from
  * the collected pairs. Each check returns the failures it found, as
  * messages that print the numbers compared.
  */
object Checks {

  /** Tolerance on a Euclidean distance between unit vectors: a kernel may
    * compute it in another order or precision, but not be wrong by more.
    */
  val DistTol = 1e-5

  /** Plain-loop Euclidean distance. */
  def l2(a: Array[Float], b: Array[Float]): Double = {
    var s = 0.0
    var i = 0
    while (i < a.length) { val d = a(i).toDouble - b(i).toDouble; s += d * d; i += 1 }
    math.sqrt(s)
  }

  /** Up to `n` distinct ids drawn from `ids`, the same for the same seed. */
  def sample(ids: Seq[Long], n: Int, seed: Long): Seq[Long] =
    new scala.util.Random(seed).shuffle(ids.sorted).take(n).sorted

  /** Exact k nearest index rows of `q`, sorted by (dist, nid). */
  def bruteTopK(q: Array[Float], index: Map[Long, Array[Float]], k: Int,
                exclude: Long = Long.MinValue): Seq[(Long, Double)] =
    index.iterator.filter(_._1 != exclude).map { case (id, v) => (id, l2(q, v)) }
      .toSeq.sortBy { case (id, d) => (d, id) }.take(k)

  /** Compares a kernel's neighbour list of one query, in rank order,
    * with the brute-force list: same length, equal distances rank by rank,
    * and each returned id is either the reference id at that rank or a true
    * near-tie of it.
    */
  def sameTopK(qid: Long, got: Seq[(Long, Double)], ref: Seq[(Long, Double)],
               q: Array[Float], index: Map[Long, Array[Float]]): Seq[String] = {
    if (got.length != ref.length)
      return Seq(s"query $qid: ${got.length} neighbours, brute force has ${ref.length}")
    got.zip(ref).zipWithIndex.flatMap { case (((gid, gd), (rid, rd)), r) =>
      val trueD = index.get(gid).map(l2(q, _)).getOrElse(Double.NaN)
      if (math.abs(gd - rd) > DistTol)
        Some(f"query $qid rank ${r + 1}: dist $gd%.7f, brute force $rd%.7f")
      else if (gid != rid && !(math.abs(trueD - rd) <= DistTol))
        Some(f"query $qid rank ${r + 1}: id $gid (true dist $trueD%.7f), brute force id $rid ($rd%.7f)")
      else None
    }
  }

  /** UMC output is one-to-one, in non-increasing similarity, all ≥ δ, and
    * drawn from the candidate pairs.
    */
  def umcInvariants(matches: Seq[(Long, Long, Double)], delta: Double,
                    candidates: Set[(Long, Long)]): Seq[String] = {
    val out = mutable.ArrayBuffer.empty[String]
    val ones = matches.map(_._1); val twos = matches.map(_._2)
    if (ones.distinct.size != ones.size || twos.distinct.size != twos.size)
      out += s"UMC not one-to-one: ${matches.size} matches, ${ones.distinct.size} distinct left, ${twos.distinct.size} distinct right"
    matches.sliding(2).foreach {
      case Seq(a, b) if b._3 > a._3 => out += s"UMC similarity rises from ${a._3} to ${b._3}"
      case _ =>
    }
    matches.find(_._3 < delta).foreach(m => out += s"UMC match $m below delta $delta")
    matches.find(m => !candidates((m._1, m._2))).foreach(m => out += s"UMC match $m is not a candidate")
    out.toSeq
  }

  /** (precision, recall, f1) of predicted pairs against ground truth. */
  def prf(predicted: Set[(Long, Long)], gt: Set[(Long, Long)]): (Double, Double, Double) = {
    val tp = predicted.count(gt.contains).toDouble
    val p = if (predicted.isEmpty) 0.0 else tp / predicted.size
    val r = if (gt.isEmpty) 1.0 else tp / gt.size
    (p, r, if (p + r == 0) 0.0 else 2 * p * r / (p + r))
  }

  def equal(what: String, got: Any, want: Any): Seq[String] =
    if (got == want) Nil else Seq(s"$what: got $got, expected $want")
}
