package perfbench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Paths}
import scala.collection.immutable.ListMap
import scala.util.control.NonFatal
import org.apache.spark.sql.SparkSession

/** Runs one workload: set-up (several times, median reported), a composed
  * reference rep checked against independent references, then timed reps
  * for the requested seconds, each checked against the reference.
  *
  * Untraced (`--trace 0`) timed reps call the program's public entry point
  * and the end-to-end metrics are printed. Traced (`--trace 1`) timed reps
  * make the same calls one by one inside spans, with a task-metrics
  * listener on the session, and the per-layer metrics are printed. The last
  * line of standard output is the result object.
  */
object Main {

  final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean,
                        out: Option[String], gitSha: String)

  final case class Rep(i: Int, secs: Double, cpuS: Double, failures: Seq[String])

  /** Set-ups per run; `setup_s` is their median. */
  val SetUps = 3

  /** Untimed warm-up, as a share of the measured seconds. */
  val WarmUpShare = 1.0

  def parse(argv: Array[String]): Args = {
    val kv = argv.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val trace = need("trace") match {
      case "0" => false
      case "1" => true
      case t => throw new IllegalArgumentException(s"--trace must be 0 or 1, got $t")
    }
    Args(need("workload"), need("seed").toLong, need("seconds").toDouble, trace,
      kv.get("out"), kv.getOrElse("git-sha", "unknown"))
  }

  def main(argv: Array[String]): Unit = {
    if (argv.sameElements(Array("--train"))) return train()
    val args = parse(argv)
    require(Workload.names.contains(args.workload),
      s"unknown workload ${args.workload}; one of ${Workload.names.mkString(", ")}")
    val cores = Runtime.getRuntime.availableProcessors
    val t0 = System.nanoTime()
    val spark = session(cores)
    val sparkStartS = (System.nanoTime() - t0) / 1e9
    val ok = try run(Workload(args.workload, spark, args.seed), spark, args, cores, sparkStartS)
             finally spark.stop()
    if (!ok) sys.exit(1)
  }

  /** Runs every workload once at a twentieth of its size, so that a JVM
    * started with `-XX:ArchiveClassesAtExit` records the classes a run loads.
    */
  def train(): Unit = {
    val spark = session(Runtime.getRuntime.availableProcessors)
    def exercise[E](wl: Workload[E]): Unit = {
      wl.setUp()
      val t = Tracer.on(spark)
      wl.verify(wl.compose(t, capture = true)._1)
      wl.entry()
      t.drain()
    }
    try Workload.names.foreach(name => exercise(Workload(name, spark, 0, 0.05)))
    finally spark.stop()
  }

  def session(cores: Int): SparkSession = {
    val s = SparkSession.builder()
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", 2 * cores)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  def processCpuS(): Double = ManagementFactory.getOperatingSystemMXBean
    .asInstanceOf[com.sun.management.OperatingSystemMXBean].getProcessCpuTime / 1e9

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) Double.NaN
    else if (s.size % 2 == 1) s(s.size / 2)
    else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  /** Returns false if the run could not produce a result. */
  private def run[E](wl: Workload[E], spark: SparkSession, args: Args, cores: Int, sparkStartS: Double): Boolean = {
    val setups = (1 to SetUps).map { _ =>
      val t0 = System.nanoTime()
      val s = wl.setUp()
      (s, (System.nanoTime() - t0) / 1e9)
    }
    val tokens = wl.tokens()

    val (ref, _) = wl.compose(Tracer.off, capture = true)
    val refFailures = wl.verify(ref)
    refFailures.foreach(f => println(s"CHECK FAILED (reference rep): $f"))
    val facts = wl.facts(ref)
    facts.foreach { case (k, v) => println(f"fact $k%-32s $v%14.6f") }
    val reference = ref.copy(evidence = None)

    val tracer = if (args.trace) Tracer.on(spark) else Tracer.off
    /** One rep of the timed kind: its index, seconds in the program,
      * process CPU seconds and check failures.
      */
    def rep(i: Int): Rep = {
      tracer.startRep(i)
      val cpu0 = processCpuS()
      val (secs, failures) =
        try {
          val (o, s) = if (args.trace) wl.compose(tracer, capture = false) else wl.entry()
          (s, Checks.equal(s"${wl.name} outputs", o.exact, reference.exact))
        } catch { case NonFatal(e) => (Double.NaN, Seq(s"rep threw $e")) }
      failures.foreach(f => println(s"CHECK FAILED (rep $i): $f"))
      Rep(i, secs, processCpuS() - cpu0, failures)
    }
    // Untimed reps of the timed kind, as long as the measured time: the JIT
    // keeps recompiling the rep's path for several reps after the first.
    val warmStart = System.nanoTime()
    val warmFailures = scala.collection.mutable.ArrayBuffer.empty[String]
    do warmFailures ++= rep(-1).failures
    while ((System.nanoTime() - warmStart) / 1e9 < WarmUpShare * args.seconds)

    val heap = new HeapWatch
    val reps = scala.collection.mutable.ArrayBuffer.empty[Rep]
    val start = System.nanoTime()
    def elapsed = (System.nanoTime() - start) / 1e9
    // start a rep only if a typical rep still fits in the measured window
    while (reps.isEmpty || elapsed + median(reps.map(_.secs).filterNot(_.isNaN).toSeq) <= args.seconds)
      reps += rep(reps.size)
    val heapPeakMb = heap.peakMb
    heap.close()
    tracer.drain()

    val good = reps.filter(_.failures.isEmpty).toSeq
    val repS = median(good.map(_.secs))
    val failed = reps.size - good.size

    val metrics: ListMap[String, (Double, String)] =
      if (!args.trace) ListMap(
        "setup_s" -> (median(setups.map(_._2)), "s"),
        "rep_s" -> (repS, "s"),
        "entities_per_s" -> (wl.entities / repS, "1/s"))
      else Layers.metrics(tracer, good.map(_.i), cores,
        setups.map(_._1), tokens, reference, repS) + ("heap_live_peak_mb" -> (heapPeakMb, "MB"))

    val env = ListMap(
      "workload" -> wl.name, "seed" -> args.seed, "trace" -> args.trace,
      "cores" -> cores, "spark_master" -> spark.sparkContext.master,
      "shuffle_partitions" -> spark.conf.get("spark.sql.shuffle.partitions"),
      "jvm_args" -> ManagementFactory.getRuntimeMXBean.getInputArguments.toArray.toSeq,
      "max_heap_mb" -> Runtime.getRuntime.maxMemory / (1024 * 1024),
      "jvm_version" -> System.getProperty("java.version"),
      "git_sha" -> args.gitSha,
      "model" -> wl.model,
      "input_sizes" -> ListMap(wl.sizes: _*),
      "entities_per_rep" -> wl.entities,
      "set_ups" -> SetUps,
      "timed_reps" -> reps.size,
      "spark_start_s" -> sparkStartS,
      "note" -> ("Word2Vec (WC) fills ModelRuntime.wordCache in the reference rep, so timed reps of " +
        "clean-sweep-knn run with a warm word cache: vectorize gains there mean nothing."))
    println("env " + Json(env))

    val metricsJson = metrics.map { case (k, (v, u)) => k -> ListMap("value" -> v, "unit" -> u) }
    metrics.foreach { case (k, (v, u)) => println(f"metric $k%-34s $v%14.6f $u") }
    args.out.foreach { path =>
      val p = Paths.get(path)
      Files.createDirectories(p.getParent)
      Files.writeString(p, Json(ListMap(
        "env" -> env, "metrics" -> metricsJson,
        "setup_s" -> setups.map(_._2),
        "rep_s" -> reps.map(_.secs).toSeq,
        "rep_cpu_s" -> reps.map(_.cpuS).toSeq,
        "reference" -> ListMap("blocking_recall" -> reference.recall, "blocking_precision" -> reference.precision,
          "match_f1" -> reference.f1, "candidates" -> reference.candidates),
        "facts" -> ListMap(facts: _*), "failures" -> (refFailures ++ warmFailures ++ reps.flatMap(_.failures)),
        "spans" -> tracer.allSpans.map { s =>
          val t = tracer.sums(s)
          ListMap("id" -> s.id, "rep" -> s.rep, "layer" -> s.layer,
            "start_ns" -> (s.startNs - start), "end_ns" -> (s.endNs - start),
            "tasks" -> t.tasks, "executor_run_s" -> t.runS, "executor_cpu_s" -> t.cpuS, "gc_s" -> t.gcS,
            "shuffle_read_bytes" -> t.shuffleReadBytes, "shuffle_write_bytes" -> t.shuffleWriteBytes)
        },
        "trace_dropped_frac" -> tracer.droppedFrac)) + "\n")
    }
    // without one good rep there is no measurement to report
    if (good.nonEmpty) println(Json(ListMap(
      "correct" -> (refFailures.isEmpty && warmFailures.isEmpty && failed == 0),
      "attempted" -> reps.size, "failed" -> failed, "metrics" -> metricsJson)))
    good.nonEmpty
  }
}
