package repro.core

import repro.SparkSpec
import repro.data.DatasetProfiles

/** Every table definition on one small input per dataset family, chosen
  * by name: D5 at `DatasetProfiles.benchScale`, Febrl Ds1 and DSM2. At the
  * default scale D5 is the smallest Clean-Clean dataset whose S-GTR-T5
  * recall@10 changes when its sources are embedded under other noise tags,
  * so the last test pins Table 5(a) to the harness's `#1/#2` vectors.
  */
class TablesSpec extends SparkSpec {

  private val names = Seq("D5", "Ds1", "DSM2")

  private lazy val reports: Map[String, Tables.Report] = Tables.all.map { t =>
    val r = t.run(spark, names)
    r.print()
    t.id -> r
  }.toMap

  test("every table runs on a small input and yields rows") {
    Tables.all.foreach(t => assert(reports(t.id).rows.size >= 2, t.id))
  }

  test("every row has the header's width") {
    for ((id, r) <- reports; row <- r.rows.tail)
      assert(row.size == r.rows.head.size, s"$id: $row vs ${r.rows.head}")
  }

  test("every check has a name and a detail") {
    for ((id, r) <- reports) {
      assert(r.checks.nonEmpty, id)
      r.checks.foreach(c => assert(c.name.nonEmpty && c.detail.nonEmpty, s"$id: $c"))
    }
  }

  test("Table 5(a)'s S5 recall@10 is the Figure 3 harness's (same #1/#2 vectors)") {
    val p = DatasetProfiles("D5").scaled(DatasetProfiles.benchScale)
    val r = reports("table5a")
    val s5Rec = r.rows(1)(r.rows.head.indexOf("S5 rec@10"))
    assert(s5Rec == Tab.f(Harness.runOne(spark, p, "S5", 10).recallAt(10)))
  }
}
