package repro.bench

import repro.SparkSpec
import repro.core.Tables

/** Every paper table over all its datasets, one test each: prints the
  * report and fails on any shape check that does not hold. One table:
  * `sbt "bench/testOnly repro.bench.TablesBench -- -z \"Table 5(a)\""`.
  */
class TablesBench extends SparkSpec {
  Tables.all.foreach { t =>
    test(t.name) {
      val report = t.run(spark, Nil)
      report.print()
      val failed = report.checks.filterNot(_.ok)
      assert(failed.isEmpty, failed.map(c => s"${c.name}: ${c.detail}").mkString("; "))
    }
  }
}
