package perfbench

import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

/** The workload seed fixes the inputs and the outputs: the same seed gives
  * identical inputs and identical quality values, another seed other
  * inputs. Runs every workload at a fifth of its benchmark size.
  */
class SeedDeterminismSpec extends AnyFunSuite with BeforeAndAfterAll {

  private lazy val spark = SparkSession.builder()
    .master("local[2]").appName("perfbench-test")
    .config("spark.sql.shuffle.partitions", 4)
    .config("spark.sql.autoBroadcastJoinThreshold", -1)
    .config("spark.ui.enabled", false)
    .getOrCreate()

  override def afterAll(): Unit = spark.stop()

  private val Size = 0.2

  private def inputsOf(w: Workload[_]): Seq[Seq[(Long, String)]] = {
    val s = spark
    import s.implicits._
    w.inputFrames.map(_.select("id", "sentence").as[(Long, String)].collect().toSeq.sorted)
  }

  private def setUpAndCompose[E](w: Workload[E]): (Seq[Seq[(Long, String)]], Outcome[E]) = {
    w.setUp()
    val (o, _) = w.compose(Tracer.off, capture = true)
    (inputsOf(w), o)
  }

  private def checkedAgainstEntry[E](w: Workload[E]): Unit = {
    w.setUp()
    val (composed, _) = w.compose(Tracer.off, capture = true)
    val failures = w.verify(composed)
    assert(failures.isEmpty, failures.mkString("\n"))
    val (entry, _) = w.entry()
    assert(entry.exact == composed.exact)
  }

  for (name <- Workload.names) {
    test(s"$name: the same seed gives the same inputs and outputs, another seed other inputs") {
      val (inA, a) = setUpAndCompose(Workload(name, spark, 7, Size))
      val (inB, b) = setUpAndCompose(Workload(name, spark, 7, Size))
      val other = Workload(name, spark, 8, Size)
      other.setUp()
      assert(inA.flatten.nonEmpty)
      assert(inA == inB)
      assert(a.exact == b.exact)
      assert((a.recall, a.precision, a.candidates) == (b.recall, b.precision, b.candidates))
      assert(a.f1.equals(b.f1)) // NaN-safe: dirty-lsh has no match F1
      assert(inputsOf(other) != inA)
    }

    test(s"$name: the composed rep passes the full checks and reproduces the entry point") {
      checkedAgainstEntry(Workload(name, spark, 3, Size))
    }
  }
}
