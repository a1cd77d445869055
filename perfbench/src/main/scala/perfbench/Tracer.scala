package perfbench

import java.util.concurrent.ConcurrentHashMap
import scala.collection.mutable
import org.apache.spark.{ListenerBusDrain, SparkContext}
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession

/** Spark task metrics summed over the tasks of one span. */
final case class TaskSums(tasks: Long, runS: Double, cpuS: Double, gcS: Double,
                          shuffleReadBytes: Long, shuffleWriteBytes: Long) {
  def +(o: TaskSums): TaskSums = TaskSums(tasks + o.tasks, runS + o.runS, cpuS + o.cpuS,
    gcS + o.gcS, shuffleReadBytes + o.shuffleReadBytes, shuffleWriteBytes + o.shuffleWriteBytes)
}

object TaskSums { val zero: TaskSums = TaskSums(0, 0, 0, 0, 0, 0) }

/** Collects task metrics per span. A span is named by the local property
  * [[SpanListener.Key]], which Spark copies into every job started while it
  * is set; each stage is mapped to the span of the job that first ran it.
  * Task events whose stage has no span are dropped and counted.
  */
final class SpanListener extends SparkListener {
  private val stageSpan = new ConcurrentHashMap[Int, String]()
  private val sums = new ConcurrentHashMap[String, TaskSums]()
  @volatile private var seen = 0L
  @volatile private var dropped = 0L

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val span = Option(e.properties).flatMap(p => Option(p.getProperty(SpanListener.Key)))
    span.foreach(s => e.stageIds.foreach(id => stageSpan.putIfAbsent(id, s)))
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    seen += 1
    val span = stageSpan.get(e.stageId)
    val m = e.taskMetrics
    if (span == null || m == null) dropped += 1
    else sums.merge(span, TaskSums(1, m.executorRunTime / 1e3, m.executorCpuTime / 1e9,
      m.jvmGCTime / 1e3, m.shuffleReadMetrics.totalBytesRead, m.shuffleWriteMetrics.bytesWritten),
      (a, b) => a + b)
  }

  def sumsOf(span: String): TaskSums = Option(sums.get(span)).getOrElse(TaskSums.zero)

  /** Share of task events that carried no span. */
  def droppedFrac: Double = synchronized { if (seen == 0) 0.0 else dropped.toDouble / seen }
}

object SpanListener { val Key = "perfbench.span" }

/** One timed call into a layer, inside one rep. */
final case class Span(id: String, rep: Int, layer: String, startNs: Long, endNs: Long) {
  def seconds: Double = (endNs - startNs) / 1e9
}

/** Records spans around calls into the program's layers, and counts
  * measured at the same boundaries. The disabled tracer only runs the
  * body, so untraced and traced reps make the same calls.
  */
final class Tracer private (session: Option[(SparkContext, SpanListener)]) {
  private val spans = mutable.ArrayBuffer.empty[Span]
  private val counts = mutable.Map.empty[(Int, String), Double]
  private var rep = -1

  /** Spans and counts recorded after this call belong to rep `i`. */
  def startRep(i: Int): Unit = rep = i

  def span[A](layer: String)(body: => A): A = session match {
    case None => body
    case Some((sc, _)) =>
      val id = s"r$rep/$layer#${spans.size}"
      sc.setLocalProperty(SpanListener.Key, id)
      val t0 = System.nanoTime()
      try body
      finally {
        spans += Span(id, rep, layer, t0, System.nanoTime())
        sc.setLocalProperty(SpanListener.Key, null)
      }
  }

  /** Adds `v` to a count of the current rep (no-op when disabled). */
  def count(name: String, v: Double): Unit =
    if (session.isDefined) counts((rep, name)) = counts.getOrElse((rep, name), 0.0) + v

  def countOf(r: Int, name: String): Double = counts.getOrElse((r, name), 0.0)

  def allSpans: Seq[Span] = spans.toSeq

  /** Delivers all pending listener events; call before reading task sums. */
  def drain(): Unit = session.foreach { case (sc, _) => ListenerBusDrain(sc) }

  /** Task sums of one span. */
  def sums(s: Span): TaskSums = session.fold(TaskSums.zero)(_._2.sumsOf(s.id))

  /** Wall seconds and task sums of one layer in one rep, over its spans. */
  def layer(r: Int, name: String): (Double, TaskSums) = {
    val own = spans.filter(s => s.rep == r && s.layer == name)
    (own.map(_.seconds).sum, own.map(sums).foldLeft(TaskSums.zero)(_ + _))
  }

  def droppedFrac: Double = session.fold(0.0)(_._2.droppedFrac)
}

object Tracer {
  val off: Tracer = new Tracer(None)

  /** A tracer with a task-metrics listener registered on the session. */
  def on(spark: SparkSession): Tracer = {
    val l = new SpanListener
    spark.sparkContext.addSparkListener(l)
    new Tracer(Some((spark.sparkContext, l)))
  }
}
