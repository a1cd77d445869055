package repro.blocking

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.util.Det

/** The broadcast-query + `Window` exact k-NN kernel that `ExactKnnBlocker`
  * replaced, kept as a reference for its property tests: the query side is
  * broadcast, each index partition keeps a per-query bounded heap of
  * `Det.l2` distances, and a `row_number` window over the unioned partials
  * yields the global top-k.
  *
  * One difference from the replaced kernel: its heaps admitted an entry
  * only on a strictly smaller distance, so at the k-th place an exact tie
  * went to whichever row the partition scanned first. Here the heaps order
  * by (dist, nid), as the window does, so ties go to the smaller nid.
  */
object WindowKnnReference extends Serializable {

  def topK(queries: DataFrame, index: DataFrame, k: Int): DataFrame = {
    val spark = queries.sparkSession
    import spark.implicits._
    require(k > 0, s"k must be positive, got $k")

    val q = queries.select("id", "vec").as[(Long, Array[Float])].collect()
    val qIds  = q.map(_._1)
    val qVecs = q.map(_._2)
    val bq = spark.sparkContext.broadcast((qIds, qVecs))

    val partials = index.select("id", "vec").as[(Long, Array[Float])]
      .mapPartitions { it =>
        val (ids, vecs) = bq.value
        val nq = ids.length
        // per-query bounded max-heaps (worst candidate on top)
        val heaps = Array.fill(nq)(scala.collection.mutable.PriorityQueue[(Double, Long)]())
        it.foreach { case (nid, nvec) =>
          var qi = 0
          while (qi < nq) {
            val e = (Det.l2(vecs(qi), nvec), nid)
            val h = heaps(qi)
            if (h.size < k) h.enqueue(e)
            else if (Ordering[(Double, Long)].lt(e, h.head)) { h.dequeue(); h.enqueue(e) }
            qi += 1
          }
        }
        heaps.iterator.zipWithIndex.flatMap { case (h, qi) =>
          h.iterator.map { case (d, nid) => (ids(qi), nid, d) }
        }
      }
      .toDF("qid", "nid", "dist")

    val w = Window.partitionBy("qid").orderBy(col("dist").asc, col("nid").asc)
    partials
      .withColumn("rank", row_number().over(w))
      .filter(col("rank") <= k)
  }
}
