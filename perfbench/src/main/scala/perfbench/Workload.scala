package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.data.{CleanProfile, DatasetProfiles}
import repro.embed.{ModelRegistry, Tokenizer, Vectorizer}

/** What one rep produced: the end-to-end quality values and `exact`, the
  * outputs every rep must reproduce bit for bit. `evidence` holds what the
  * full checks need (vectors, pairs); it is kept only on the reference run.
  */
final case class Outcome[+E](recall: Double, precision: Double, f1: Double,
                             candidates: Long, exact: Any, evidence: Option[E])

/** Timings of one set-up: generating and caching the inputs, and model init. */
final case class SetUp(genS: Double, initS: Double, rows: Long)

/** One benchmark workload. The program sees only the inputs made from the
  * seed; the seed salts the generators' tags, so sizes stay fixed while the
  * content changes.
  */
abstract class Workload[E](val spark: SparkSession, val seed: Long) {
  import spark.implicits._

  def name: String
  def model: String
  /** Entities in one rep's inputs (|V1|+|V2| summed, or |V|). */
  def entities: Long
  def sizes: Seq[(String, Long)]

  /** Generates and caches the inputs, and initialises the model. Repeatable:
    * each call drops the previous call's cached inputs.
    */
  def setUp(): SetUp
  /** The cached entity frames (id, attrs, sentence) of the last set-up. */
  def inputFrames: Seq[DataFrame]

  /** The program's public end-to-end entry point; returns the outcome and
    * the seconds spent in the program.
    */
  def entry(): (Outcome[E], Double)

  /** The calls `entry` makes, one by one, each inside a span. With
    * `capture` it keeps the evidence for [[verify]].
    */
  def compose(t: Tracer, capture: Boolean): (Outcome[E], Double)

  /** Full checks of a captured outcome against independent references. */
  def verify(o: Outcome[E]): Seq[String]

  /** Values derived from a captured outcome that the record should show. */
  def facts(o: Outcome[E]): Seq[(String, Double)] = Nil

  /** Tokens after each model's `seqLen` truncation, over all inputs. */
  def tokens(): Long = {
    val seqLen = ModelRegistry(model).seqLen
    inputFrames.map(_.select("sentence").as[String].collect().iterator.map { s =>
      val n = Tokenizer.tokenize(s).length.toLong
      if (seqLen > 0) math.min(n, seqLen.toLong) else n
    }.sum).sum
  }

  protected def timed[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = body
    (a, (System.nanoTime() - t0) / 1e9)
  }

  protected def cached(df: DataFrame): DataFrame = { val c = df.cache(); c.count(); c }

  /** Seconds to build a fresh model runtime; also fills the program's
    * runtime cache, which every later rep uses.
    */
  protected def initModel(): Double = {
    val secs = timed(Vectorizer.freshRuntime(model))._2
    Vectorizer.runtime(model)
    secs
  }

  protected def vectors(df: DataFrame): Map[Long, Array[Float]] =
    df.select("id", "vec").as[(Long, Array[Float])].collect().toMap

  protected def salted(ds: String, scale: Double): CleanProfile =
    DatasetProfiles(ds).scaled(scale).copy(name = s"$ds~s$seed")
}

object Workload {
  val names: Seq[String] = Seq("clean-sweep-knn", "clean-e2e-s5", "dirty-lsh")

  /** A workload at its benchmark size times `size` (tests and the
    * class-data training run pass less than 1).
    */
  def apply(name: String, spark: SparkSession, seed: Long, size: Double = 1.0): Workload[_] = name match {
    case "clean-sweep-knn" => new CleanSweepKnn(spark, seed, 0.07 * size)
    case "clean-e2e-s5"    => new CleanE2eS5(spark, seed, 0.05 * size)
    case "dirty-lsh"       => new DirtyLsh(spark, seed, math.round(1500 * size))
    case other => throw new IllegalArgumentException(s"unknown workload $other; one of ${names.mkString(", ")}")
  }

  /** (qid, nid) rows canonicalised to (side-1 id, side-2 id). */
  def canon(side1Smaller: Boolean)(q: Long, n: Long): (Long, Long) = if (side1Smaller) (q, n) else (n, q)
}

