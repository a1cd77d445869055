package repro.blocking

import org.apache.spark.sql.DataFrame

/** Exact nearest-neighbour blocking for Clean-Clean ER (paper §4.3):
  * every entity of the *smaller* collection queries the other collection
  * and keeps its k nearest vectors by Euclidean distance.
  *
  * A flat scan, as in the paper's exact FAISS index: the index side is
  * packed once into a row-major `Array[Double]` and broadcast, and each
  * Spark task takes one block of queries, scans the whole packed index and
  * keeps a bounded top-k per query. A query's list is final inside its
  * task, so nothing is merged or shuffled, and a query's result does not
  * depend on how either side is partitioned.
  */
object ExactKnnBlocker extends Serializable {

  /** The index side packed row-major: row r is `data(r * dim until (r + 1) * dim)`. */
  private final class Packed(val ids: Array[Long], val data: Array[Double], val dim: Int)
      extends Serializable {
    def n: Int = ids.length
  }

  private def pack(rows: Array[(Long, Array[Float])]): Packed = {
    val dim = rows.headOption.fold(0)(_._2.length)
    val data = new Array[Double](rows.length * dim)
    var r = 0
    while (r < rows.length) {
      val (id, v) = rows(r)
      requireDim(id, v, dim)
      var i = 0
      while (i < dim) { data(r * dim + i) = v(i); i += 1 }
      r += 1
    }
    new Packed(rows.map(_._1), data, dim)
  }

  private def requireDim(id: Long, v: Array[Float], dim: Int): Unit =
    require(v.length == dim, s"dim mismatch: id $id has ${v.length} components, expected $dim")

  /** Queries scanned together against one index row, so that the row is
    * read from memory once per tile rather than once per query.
    */
  private val QueryTile = 8

  /** (qid, nid, dist, rank) of the k nearest index rows per query row, rank
    * 1 first; ties in distance go to the smaller nid. k is clamped to the
    * index size. Throws `IllegalArgumentException` on k ≤ 0 or on vectors
    * of different lengths.
    */
  def topK(queries: DataFrame, index: DataFrame, k: Int): DataFrame = {
    val spark = queries.sparkSession
    import spark.implicits._
    require(k > 0, s"k must be positive, got $k")

    val ix = pack(index.select("id", "vec").as[(Long, Array[Float])].collect())
    val qRows = queries.select("id", "vec").as[(Long, Array[Float])].collect()
    if (ix.n > 0) qRows.foreach { case (id, v) => requireDim(id, v, ix.dim) }
    val kk = math.min(k, ix.n)

    val rows = if (kk == 0 || qRows.isEmpty) spark.sparkContext.emptyRDD[(Long, Long, Double, Int)]
      else {
        // enough blocks to keep every core busy to the end, none smaller than a tile
        val nBlocks = math.min(4 * spark.sparkContext.defaultParallelism,
          (qRows.length + QueryTile - 1) / QueryTile)
        val bIndex = spark.sparkContext.broadcast(ix)
        spark.sparkContext.parallelize(qRows.toIndexedSeq, nBlocks)
          .mapPartitions(block => scanBlock(block.toArray, bIndex.value, kk))
      }
    rows.toDF("qid", "nid", "dist", "rank")
  }

  /** Top-k rows of every query of a block, query by query in rank order. */
  private def scanBlock(qs: Array[(Long, Array[Float])], x: Packed, k: Int): Iterator[(Long, Long, Double, Int)] = {
    val dim = x.dim
    val tile = new Array[Double](QueryTile * dim)
    val heaps = Array.fill(QueryTile)(new TopK(k))
    Iterator.range(0, qs.length, QueryTile).flatMap { t0 =>
      val nt = math.min(QueryTile, qs.length - t0)
      var t = 0
      while (t < nt) {
        val v = qs(t0 + t)._2
        var i = 0
        while (i < dim) { tile(t * dim + i) = v(i); i += 1 }
        heaps(t).clear()
        t += 1
      }
      var r = 0
      while (r < x.n) {
        val nid = x.ids(r)
        t = 0
        while (t < nt) {
          heaps(t).offer(sqDist(tile, t * dim, x.data, r * dim, dim), nid)
          t += 1
        }
        r += 1
      }
      Iterator.range(0, nt).flatMap { t =>
        val h = heaps(t)
        val n = h.sortInPlace()
        val qid = qs(t0 + t)._1
        Iterator.range(0, n).map(i => (qid, h.nids(i), math.sqrt(h.dists(i)), i + 1))
      }
    }
  }

  /** Squared Euclidean distance of two packed rows. Each term is the double
    * `(a(i) - b(i))²` of the widened floats; four independent accumulators
    * let the additions overlap.
    */
  private def sqDist(a: Array[Double], ao: Int, b: Array[Double], bo: Int, dim: Int): Double = {
    var s0 = 0.0; var s1 = 0.0; var s2 = 0.0; var s3 = 0.0
    val end4 = dim & ~3
    var i = 0
    while (i < end4) {
      val d0 = a(ao + i) - b(bo + i)
      val d1 = a(ao + i + 1) - b(bo + i + 1)
      val d2 = a(ao + i + 2) - b(bo + i + 2)
      val d3 = a(ao + i + 3) - b(bo + i + 3)
      s0 += d0 * d0; s1 += d1 * d1; s2 += d2 * d2; s3 += d3 * d3
      i += 4
    }
    while (i < dim) { val d = a(ao + i) - b(bo + i); s0 += d * d; i += 1 }
    (s0 + s1) + (s2 + s3)
  }

  /** Bounded max-heap of the k best (dist, nid) seen, ordered by (dist, nid):
    * the worst kept entry is at the root and is the one a better entry evicts.
    */
  private final class TopK(k: Int) {
    val dists = new Array[Double](k)
    val nids = new Array[Long](k)
    private var size = 0

    def clear(): Unit = size = 0

    private def worse(i: Int, j: Int): Boolean =
      dists(i) > dists(j) || (dists(i) == dists(j) && nids(i) > nids(j))

    private def swap(i: Int, j: Int): Unit = {
      val d = dists(i); dists(i) = dists(j); dists(j) = d
      val n = nids(i); nids(i) = nids(j); nids(j) = n
    }

    def offer(d: Double, nid: Long): Unit =
      if (size < k) {
        dists(size) = d; nids(size) = nid
        var c = size
        size += 1
        while (c > 0 && worse(c, (c - 1) / 2)) { swap(c, (c - 1) / 2); c = (c - 1) / 2 }
      } else if (d < dists(0) || (d == dists(0) && nid < nids(0))) {
        dists(0) = d; nids(0) = nid
        siftDown(0, size)
      }

    private def siftDown(from: Int, n: Int): Unit = {
      var p = from
      var done = false
      while (!done) {
        val l = 2 * p + 1
        val r = l + 1
        var w = p
        if (l < n && worse(l, w)) w = l
        if (r < n && worse(r, w)) w = r
        if (w == p) done = true else { swap(p, w); p = w }
      }
    }

    /** Heap-sorts the kept entries best first; returns their count. */
    def sortInPlace(): Int = {
      var end = size - 1
      while (end > 0) { swap(0, end); siftDown(0, end); end -= 1 }
      size
    }
  }
}
