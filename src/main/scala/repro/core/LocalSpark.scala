package repro.core

import org.apache.spark.sql.SparkSession

/** The one local SparkSession of the tests, benches and `jobs.Run`.
  * `SPARK_MASTER` (default `local[*]`) and `SPARK_SHUFFLE_PARTITIONS`
  * (default 64) configure it. Broadcast joins are disabled so joins
  * exercise the shuffle path at bench scale.
  */
object LocalSpark {
  def session(appName: String): SparkSession = {
    val s = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(appName)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }
}
