package org.apache.spark

/** Waits until the session's listener bus has delivered every event
  * posted so far. The bus is `private[spark]`, so this one call lives in
  * Spark's package; the benchmark uses it before it reads task metrics.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
