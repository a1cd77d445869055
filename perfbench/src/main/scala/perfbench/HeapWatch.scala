package perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import java.util.concurrent.atomic.AtomicLong
import javax.management.{Notification, NotificationEmitter, NotificationListener}
import javax.management.openmbean.CompositeData
import scala.jdk.CollectionConverters._
import com.sun.management.GarbageCollectionNotificationInfo

/** Peak heap in use right after a collection, summed over the heap pools,
  * from the JVM's GC notifications. Local-mode executors share the driver
  * JVM, so this covers the whole program.
  */
final class HeapWatch extends NotificationListener {
  private val heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala
    .filter(_.getType == MemoryType.HEAP).map(_.getName).toSet
  private val peak = new AtomicLong(0L)
  private val emitters = ManagementFactory.getGarbageCollectorMXBeans.asScala.collect {
    case e: NotificationEmitter => e
  }
  emitters.foreach(_.addNotificationListener(this, null, null))

  override def handleNotification(n: Notification, handback: AnyRef): Unit =
    if (n.getType == GarbageCollectionNotificationInfo.GARBAGE_COLLECTION_NOTIFICATION) {
      val info = GarbageCollectionNotificationInfo.from(n.getUserData.asInstanceOf[CompositeData])
      val after = info.getGcInfo.getMemoryUsageAfterGc.asScala.collect {
        case (pool, usage) if heapPools(pool) => usage.getUsed
      }.sum
      peak.accumulateAndGet(after, math.max)
    }

  def peakMb: Double = peak.get / (1024.0 * 1024.0)

  def close(): Unit = emitters.foreach(_.removeNotificationListener(this))
}
