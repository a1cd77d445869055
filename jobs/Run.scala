package repro.jobs

import repro.core.{LocalSpark, Tables}

/** Runs one paper table and prints its rows and check outcomes:
  *
  *   sbt "runMain repro.jobs.Run table5a D2 D4"
  *
  * The dataset names (D1–D10, Ds1–Ds7, DSM1–DSM5) restrict the table to
  * those datasets; without any, it runs all of them.
  */
object Run {
  def main(args: Array[String]): Unit = {
    val table = Tables.all.find(t => args.headOption.contains(t.id))
    val unknown = args.drop(1).filterNot(Tables.datasetNames.contains)
    if (table.isEmpty || unknown.nonEmpty) {
      System.err.println(s"usage: Run <${Tables.all.map(_.id).mkString("|")}> [dataset ...]" +
        (if (unknown.isEmpty) "" else s"\nunknown datasets: ${unknown.mkString(" ")}"))
      sys.exit(2)
    }
    val spark = LocalSpark.session(table.get.id)
    val report = table.get.run(spark, args.toSeq.drop(1))
    report.print()
    spark.stop()
  }
}
