package perfbench

import scala.collection.immutable.ListMap

/** Per-layer metrics of a traced run: each is the median over the good
  * timed reps of that rep's value. Of the common set, a layer the workload
  * does not call reads 0; the LSH metrics appear only where LSH runs.
  */
object Layers {

  def metrics(t: Tracer, reps: Seq[Int], cores: Int, setups: Seq[SetUp], tokens: Long,
              ref: Outcome[_], repS: Double): ListMap[String, (Double, String)] = {
    def med(f: Int => Double) = Main.median(reps.map(f))
    def wall(layer: String) = med(r => t.layer(r, layer)._1)
    def tasks(layer: String)(f: TaskSums => Double) = med(r => f(t.layer(r, layer)._2))
    def util(layer: String) = med { r =>
      val (w, s) = t.layer(r, layer)
      if (w > 0) s.runS / (w * cores) else 0.0
    }
    def count(name: String) = med(r => t.countOf(r, name))
    val usesLsh = reps.exists(r => t.layer(r, "blocking.lsh")._1 > 0)
    def orZero(x: Double) = if (x.isNaN) 0.0 else x

    val common = ListMap(
      "data.gen_s" -> (Main.median(setups.map(_.genS)), "s"),
      "data.rows" -> (setups.head.rows.toDouble, "count"),
      "data.rep_gen_s" -> (wall("data.rep_gen"), "s"),
      "embed.init_s" -> (Main.median(setups.map(_.initS)), "s"),
      "embed.vectorize_s" -> (wall("embed.vectorize"), "s"),
      "embed.entities" -> (count("embed.entities"), "count"),
      "embed.tokens" -> (tokens.toDouble, "count"),
      "embed.executor_s" -> (tasks("embed.vectorize")(_.runS), "s"),
      "embed.core_util" -> (util("embed.vectorize"), "ratio"),
      "blocking.knn_s" -> (wall("blocking.knn"), "s"),
      "blocking.knn.pair_evals" -> (count("blocking.knn.pair_evals"), "count"),
      "blocking.knn.candidates" -> (count("blocking.knn.candidates"), "count"),
      "blocking.knn.broadcast_bytes" -> (count("blocking.knn.broadcast_bytes"), "bytes"),
      "blocking.knn.executor_s" -> (tasks("blocking.knn")(_.runS), "s"),
      "blocking.knn.core_util" -> (util("blocking.knn"), "ratio"),
      "blocking.knn.shuffle_write_bytes" -> (tasks("blocking.knn")(_.shuffleWriteBytes.toDouble), "bytes"),
      "blocking.recall" -> (ref.recall, "ratio"),
      "blocking.precision" -> (ref.precision, "ratio"),
      "matching.umc_s" -> (wall("matching.umc"), "s"),
      "matching.umc.pairs_in" -> (count("matching.umc.pairs_in"), "count"),
      "matching.umc.matches" -> (count("matching.umc.matches"), "count"),
      "matching.eval_s" -> (wall("matching.eval"), "s"),
      "matching.f1" -> (orZero(ref.f1), "ratio"),
      "core.collect_s" -> (wall("core.collect"), "s"),
      "trace.rep_s" -> (repS, "s"),
      "trace.dropped_frac" -> (t.droppedFrac, "ratio"))
    if (!usesLsh) common
    else common ++ ListMap(
      "blocking.lsh_s" -> (wall("blocking.lsh"), "s"),
      "blocking.lsh.candidates" -> (count("blocking.lsh.candidates"), "count"),
      "blocking.lsh.shuffle_read_bytes" -> (tasks("blocking.lsh")(_.shuffleReadBytes.toDouble), "bytes"),
      "blocking.lsh.shuffle_write_bytes" -> (tasks("blocking.lsh")(_.shuffleWriteBytes.toDouble), "bytes"),
      "blocking.lsh.gc_s" -> (tasks("blocking.lsh")(_.gcS), "s"),
      "blocking.lsh.executor_s" -> (tasks("blocking.lsh")(_.runS), "s"),
      "blocking.lsh.core_util" -> (util("blocking.lsh"), "ratio"),
      "blocking.lsh.useful_ratio" -> (ref.precision, "ratio"),
      "blocking.eval_s" -> (wall("blocking.eval"), "s"))
  }
}
