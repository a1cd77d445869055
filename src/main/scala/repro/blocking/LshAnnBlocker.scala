package repro.blocking

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.util.Det

/** Approximate nearest-neighbour blocking for Dirty ER — the distributed
  * substitute for the paper's FAISS(HNSW) index (DESIGN.md §1).
  *
  * Random-hyperplane LSH with banding: each vector gets `tables`
  * signatures of `bits` hyperplane signs; entities sharing a (table,
  * signature) bucket become candidates; candidates are re-ranked by exact
  * Euclidean distance and each entity keeps its k nearest. Entirely
  * DataFrame-native (explode + join + window).
  */
object LshAnnBlocker extends Serializable {

  /** Precomputed hyperplanes: (tables*bits) rows of length dim. */
  def hyperplanes(dim: Int, tables: Int, bits: Int, seed: Long): Array[Array[Float]] =
    Array.tabulate(tables * bits)(i =>
      Det.uniformVec(Det.seed(seed, (i / bits).toLong, (i % bits).toLong), dim))

  /** Signatures of a vector against precomputed hyperplanes: one bucket
    * key per table, with the table index packed into the high bits.
    */
  def signatures(vec: Array[Float], planes: Array[Array[Float]], tables: Int, bits: Int): Array[Long] = {
    val out = new Array[Long](tables)
    var t = 0
    while (t < tables) {
      var sig = 0L
      var b = 0
      while (b < bits) {
        val h = planes(t * bits + b)
        var dot = 0.0
        var i = 0
        while (i < vec.length) { dot += h(i) * vec(i); i += 1 }
        if (dot >= 0) sig |= (1L << b)
        b += 1
      }
      out(t) = (t.toLong << 32) | sig
      t += 1
    }
    out
  }

  /** Approximate k-NN over a single collection (Dirty ER): returns
    * (qid, nid, dist, rank) with qid != nid; empty for an empty collection.
    */
  def topK(entities: DataFrame, k: Int, tables: Int = 8, bits: Int = 10,
           seed: Long = 42L): DataFrame = {
    require(k > 0 && tables > 0 && bits > 0 && bits <= 30, "bad LSH parameters")
    val spark = entities.sparkSession
    import spark.implicits._

    val first = entities.select("vec").head(1)
    if (first.isEmpty)
      return spark.emptyDataset[(Long, Long, Double, Int)].toDF("qid", "nid", "dist", "rank")
    val dim = first(0).getSeq[Float](0).length
    val planes = hyperplanes(dim, tables, bits, seed)

    val sigUdf = udf { (v: Seq[Float]) => signatures(v.toArray, planes, tables, bits) }
    val withSig = entities
      .select(col("id"), col("vec"))
      .withColumn("bucket", explode(sigUdf(col("vec"))))

    val left  = withSig.select(col("id").as("qid"), col("vec").as("qvec"), col("bucket"))
    val right = withSig.select(col("id").as("nid"), col("vec").as("nvec"), col("bucket"))

    val distUdf = udf { (a: Seq[Float], b: Seq[Float]) => Det.l2(a.toArray, b.toArray) }

    val cands = left.join(right, Seq("bucket"))
      .filter(col("qid") =!= col("nid"))
      .select("qid", "nid", "qvec", "nvec")
      .dropDuplicates("qid", "nid")
      .withColumn("dist", distUdf(col("qvec"), col("nvec")))
      .select("qid", "nid", "dist")

    val w = Window.partitionBy("qid").orderBy(col("dist").asc, col("nid").asc)
    cands.withColumn("rank", row_number().over(w)).filter(col("rank") <= k)
  }

  /** Distinct undirected candidate pairs (id1 < id2) from a topK result —
    * redundant pairs (e_j in NN(e_i) and vice versa) counted once, as in
    * the paper's Dirty-ER precision.
    */
  def undirectedCandidates(topKDf: DataFrame): DataFrame =
    topKDf
      .select(
        least(col("qid"), col("nid")).as("id1"),
        greatest(col("qid"), col("nid")).as("id2"))
      .distinct()
}
