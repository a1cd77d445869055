package repro.blocking

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.scalacheck.{Gen, Prop}
import repro.{Oracle, PropSupport, SparkSpec}
import repro.util.Det

class ExactKnnBlockerSpec extends SparkSpec with PropSupport {

  private def vecDf(vs: Seq[(Long, Array[Float])]) = {
    import spark.implicits._
    vs.toDF("id", "vec")
  }

  /** Candidate pairs at a given k, as an (id1, id2) DataFrame where id1 is
    * the query side: a smaller-k result derived from a larger topK through
    * its rank column.
    */
  private def candidates(topKDf: DataFrame, k: Int): DataFrame =
    topKDf.filter(col("rank") <= k).select(col("qid").as("id1"), col("nid").as("id2"))

  /** Sorted (qid, nid, dist, rank) rows of a topK frame. */
  private def rowsOf(top: DataFrame): Seq[(Long, Long, Double, Int)] = {
    import spark.implicits._
    top.select("qid", "nid", "dist", "rank").as[(Long, Long, Double, Int)].collect().toSeq.sorted
  }

  /** `n` vectors of `dim` components drawn from `pool` distinct ones (so
    * repeats give exact distance ties), with ids `base` + a seeded shuffle
    * of 0 until n (so nid order differs from scan order).
    */
  private def randomVecs(seed: Long, n: Int, dim: Int, pool: Int, base: Long): Seq[(Long, Array[Float])] = {
    val distinct = (0 until pool).map(j => Det.uniformVec(Det.seed(seed, j.toLong), dim))
    val ids = new scala.util.Random(seed).shuffle((0 until n).map(base + _))
    ids.zipWithIndex.map { case (id, i) => id -> distinct(Det.nextInt(Det.seed(seed, 7L, i.toLong), pool)).clone() }
  }

  private val queries = Seq(
    0L -> Array(0f, 0f), 1L -> Array(10f, 10f))
  private val index = Seq(
    100L -> Array(0f, 1f), 101L -> Array(0f, 2f), 102L -> Array(0f, 3f),
    103L -> Array(10f, 9f), 104L -> Array(5f, 5f))

  test("topK returns the k nearest per query in rank order") {
    import spark.implicits._
    val top = ExactKnnBlocker.topK(vecDf(queries), vecDf(index), 2)
      .select("qid", "nid", "rank").as[(Long, Long, Int)].collect().toSet
    assert(top == Set((0L, 100L, 1), (0L, 101L, 2), (1L, 103L, 1), (1L, 104L, 2)))
  }

  test("distances are exact euclidean") {
    import spark.implicits._
    val top = ExactKnnBlocker.topK(vecDf(queries), vecDf(index), 1)
      .select("qid", "dist").as[(Long, Double)].collect().toMap
    assert(math.abs(top(0L) - 1.0) < 1e-6)
    assert(math.abs(top(1L) - 1.0) < 1e-6)
  }

  test("k larger than index returns all index rows") {
    val top = ExactKnnBlocker.topK(vecDf(queries), vecDf(index), 100)
    assert(top.count() == queries.size * index.size)
  }

  test("k must be positive") {
    intercept[IllegalArgumentException](ExactKnnBlocker.topK(vecDf(queries), vecDf(index), 0))
  }

  test("agrees with brute force on random vectors") {
    val rq = (0L until 15L).map(i => i -> Det.uniformVec(Det.seed(1L, i), 24))
    val ri = (0L until 40L).map(i => (100L + i) -> Det.uniformVec(Det.seed(2L, i), 24))
    val k = 5
    import spark.implicits._
    val got = ExactKnnBlocker.topK(vecDf(rq), vecDf(ri), k)
      .select("qid", "nid", "rank").as[(Long, Long, Int)].collect()
      .groupBy(_._1).map { case (q, rs) => q -> rs.sortBy(_._3).map(_._2).toSeq }
    val want = rq.map { case (q, qv) =>
      q -> ri.map { case (n, nv) => (Det.l2(qv, nv), n) }.sortBy(identity).take(k).map(_._2)
    }.toMap
    assert(got == want)
  }

  test("ties broken by ascending nid") {
    import spark.implicits._
    val q = Seq(0L -> Array(0f))
    val i = Seq(5L -> Array(1f), 3L -> Array(1f), 9L -> Array(1f))
    val top = ExactKnnBlocker.topK(vecDf(q), vecDf(i), 2)
      .orderBy("rank").select("nid").as[Long].collect().toSeq
    assert(top == Seq(3L, 5L))
    // a tie at the k-th place goes to the smaller nid whatever the scan order
    val oneScan = vecDf(Seq(9L -> Array(1f), 5L -> Array(1f), 3L -> Array(1f))).coalesce(1)
    val top1 = ExactKnnBlocker.topK(vecDf(q), oneScan, 2)
      .orderBy("rank").select("nid").as[Long].collect().toSeq
    assert(top1 == Seq(3L, 5L))
  }

  test("candidates derives smaller k from a larger topK") {
    val top10 = ExactKnnBlocker.topK(vecDf(queries), vecDf(index), 4)
    val c1 = candidates(top10, 1)
    assert(c1.count() == queries.size)
    val c3 = candidates(top10, 3)
    assert(c3.count() == queries.size * 3)
  }

  test("property: agrees with the broadcast-query + window reference kernel") {
    val gen = for {
      seed <- Gen.choose(0L, Long.MaxValue)
      dim  <- Gen.choose(1, 11)
      nq   <- Gen.choose(1, 8)
      ni   <- Gen.choose(1, 24)
      pool <- Gen.choose(1, 30)
      k    <- Gen.choose(1, 30)
      grid <- Gen.oneOf(true, false)
      parts <- Gen.choose(1, 3)
    } yield (seed, dim, nq, ni, pool, k, grid, parts)
    checkProp(Prop.forAll(gen) { case (seed, dim, nq, ni, pool, k, grid, parts) =>
      // grid vectors have small integer components, so every distance is
      // exact and many differ only in nid
      def shape(vs: Seq[(Long, Array[Float])]) =
        if (!grid) vs else vs.map { case (id, v) => id -> v.map(x => math.round(x).toFloat) }
      val q = vecDf(shape(randomVecs(Det.seed(seed, 1L), nq, dim, pool, 0L)))
      val i = vecDf(shape(randomVecs(Det.seed(seed, 2L), ni, dim, pool, 1000L))).repartition(parts)
      val got = rowsOf(ExactKnnBlocker.topK(q, i, k))
      val want = rowsOf(WindowKnnReference.topK(q, i, k))
      got.map(r => (r._1, r._2, r._4)) == want.map(r => (r._1, r._2, r._4)) &&
        got.zip(want).forall { case (g, w) => math.abs(g._3 - w._3) <= 1e-12 * math.max(1.0, w._3) }
    }, "flat scan vs window reference")
  }

  test("oracle: top-k agrees with DuckDB over long-form vectors") {
    import spark.implicits._
    // integer components: every squared distance is an exact integer, so
    // DuckDB's summation order cannot move a distance or break a tie differently
    val rq = randomVecs(5L, 12, 7, 9, 0L).map { case (id, v) => id -> v.map(x => math.round(x * 2).toFloat) }
    val ri = randomVecs(6L, 30, 7, 18, 500L).map { case (id, v) => id -> v.map(x => math.round(x * 2).toFloat) }
    val k = 6
    def long(vs: Seq[(Long, Array[Float])]) =
      vs.flatMap { case (id, v) => v.indices.map(j => (id, j, v(j).toDouble)) }.toDF("id", "j", "x")
    Oracle.assertEquivalent(
      ExactKnnBlocker.topK(vecDf(rq), vecDf(ri), k).select("qid", "nid", "dist", "rank"),
      s"""SELECT qid, nid, dist, rank FROM (
         |  SELECT qid, nid, dist, row_number() OVER (PARTITION BY qid ORDER BY dist, nid) AS rank
         |  FROM (SELECT CAST(q.id AS BIGINT) AS qid, CAST(i.id AS BIGINT) AS nid,
         |               sqrt(sum((CAST(q.x AS DOUBLE) - CAST(i.x AS DOUBLE)) *
         |                        (CAST(q.x AS DOUBLE) - CAST(i.x AS DOUBLE)))) AS dist
         |        FROM qv q JOIN iv i ON CAST(q.j AS INT) = CAST(i.j AS INT)
         |        GROUP BY q.id, i.id))
         |WHERE rank <= $k""".stripMargin,
      "qv" -> long(rq), "iv" -> long(ri))
  }

  test("output does not depend on the partitioning of either side") {
    val rq = randomVecs(8L, 40, 13, 25, 0L)
    val ri = randomVecs(9L, 90, 13, 60, 1000L)
    val base = rowsOf(ExactKnnBlocker.topK(vecDf(rq), vecDf(ri), 7))
    for (pq <- Seq(1, 7); pi <- Seq(1, 7))
      assert(rowsOf(ExactKnnBlocker.topK(vecDf(rq).repartition(pq), vecDf(ri).repartition(pi), 7)) == base,
        s"queries in $pq, index in $pi partitions")
  }

  test("empty queries or an empty index give an empty frame with the four columns") {
    val none = vecDf(Seq.empty)
    for ((q, i) <- Seq((none, vecDf(index)), (vecDf(queries), none), (none, none))) {
      val top = ExactKnnBlocker.topK(q, i, 3)
      assert(top.columns.toSeq == Seq("qid", "nid", "dist", "rank"))
      assert(top.count() == 0)
    }
  }

  test("vectors of different lengths are rejected") {
    val short = Seq(7L -> Array(1f))
    intercept[IllegalArgumentException](ExactKnnBlocker.topK(vecDf(short), vecDf(index), 2))
    intercept[IllegalArgumentException](ExactKnnBlocker.topK(vecDf(queries), vecDf(index ++ short), 2))
  }

  test("oracle: grouped-min (the top-1-per-group pattern) agrees with DuckDB") {
    import spark.implicits._
    val pts = (0 until 60).map(i =>
      (i.toLong, (Det.uniform(Det.seed(3L, i)) * 4).toInt, (Det.uniform(Det.seed(4L, i)) * 100).toInt))
      .toDF("id", "g", "y")
    val got = pts.groupBy("g").agg(min(col("y")).as("best"))
      .select(col("g").cast("int").as("g"), col("best").cast("int").as("best"))
    Oracle.assertEquivalent(got,
      "SELECT CAST(g AS INT) AS g, CAST(min(CAST(y AS INT)) AS INT) AS best FROM pts GROUP BY g",
      "pts" -> pts)
  }

  test("BlockingMetrics.recall on exact candidates") {
    import spark.implicits._
    val cands = Seq((0L, 100L), (1L, 103L)).toDF("id1", "id2")
    val gt = Seq((0L, 100L), (1L, 104L)).toDF("id1", "id2")
    assert(BlockingMetrics.recall(cands, gt) == 0.5)
  }

  test("BlockingMetrics.precision counts distinct candidates") {
    import spark.implicits._
    val cands = Seq((0L, 100L), (0L, 100L), (1L, 103L)).toDF("id1", "id2")
    val gt = Seq((0L, 100L)).toDF("id1", "id2")
    assert(BlockingMetrics.precision(cands, gt) == 0.5)
  }

  test("BlockingMetrics.recall of empty ground truth is 1") {
    import spark.implicits._
    val cands = Seq((0L, 100L)).toDF("id1", "id2")
    val gt = Seq.empty[(Long, Long)].toDF("id1", "id2")
    assert(BlockingMetrics.recall(cands, gt) == 1.0)
  }

  test("BlockingMetrics.precision of empty candidates is 0") {
    import spark.implicits._
    val cands = Seq.empty[(Long, Long)].toDF("id1", "id2")
    val gt = Seq((0L, 100L)).toDF("id1", "id2")
    assert(BlockingMetrics.precision(cands, gt) == 0.0)
  }
}
