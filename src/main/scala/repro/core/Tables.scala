package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.baselines.{DeepBlocker, ZeroER}
import repro.blocking.BlockingMetrics
import repro.data.{DatasetProfiles, ERSynth, FebrlSynth, SupervisedSynth}
import repro.embed.{Family, ModelRegistry, ModelSpec, Vectorizer}
import repro.matching.supervised.SupervisedMatcher

/** Every paper table (and the effectiveness matrix behind Figures 3/4/8),
  * defined once. A definition runs its experiment over the named datasets
  * (none named = all of the table's datasets) and returns the printed rows
  * plus the paper-shape checks. `TablesBench` fails on any check that is
  * not ok; `jobs.Run` prints the outcomes. D1–D10 run at
  * `DatasetProfiles.benchScale`; Tables 2 and 3 are full size.
  */
object Tables {

  /** One shape check: what it claims, whether it holds, the numbers compared. */
  final case class Check(name: String, ok: Boolean, detail: String)

  /** A table's rows (the first is the header) and its shape checks. */
  final case class Report(title: String, rows: Seq[Seq[String]], checks: Seq[Check]) {
    def print(): Unit = {
      Tab.print(title, rows)
      checks.foreach(c => println(s"[${if (c.ok) "ok" else "FAILED"}] ${c.name}: ${c.detail}"))
    }
  }

  /** A table: its `jobs.Run` id, its test name and its definition. */
  final case class Table(id: String, name: String, run: (SparkSession, Seq[String]) => Report)

  val all: Seq[Table] = Seq(
    Table("table1", "Table 1: language model characteristics", (_, _) => table1()),
    Table("table2a", "Table 2(a): real datasets for Clean-Clean ER", table2a),
    Table("table2b", "Table 2(b): synthetic datasets for Dirty ER", table2b),
    Table("table3", "Table 3: supervised matching datasets", table3),
    Table("table4init", "Table 4: initialization time per model", (_, _) => table4Init()),
    Table("table4", "Table 4: transformation time per model and dataset", table4),
    Table("table5a", "Table 5(a): DeepBlocker vs S-GTR-T5 blocking time and recall", table5a),
    Table("table5b", "Table 5(b): ZeroER vs end-to-end S-GTR-T5", table5b),
    Table("table6", "Table 6: supervised matching times and F1", table6),
    Table("effectiveness", "Figures 3/4/8: blocking recall and UMC matching per model and dataset",
      effectiveness))

  /** Every dataset name a definition accepts. */
  val datasetNames: Seq[String] = DatasetProfiles.all.map(_.name) ++
    FebrlSynth.TableSizes.map(_._1) ++ SupervisedSynth.all.map(_.name)

  /** The items of `all` named in `names`, in paper order; all if none are named. */
  private def pick[A](all: Seq[A], names: Seq[String])(name: A => String): Seq[A] =
    if (names.isEmpty) all else all.filter(a => names.contains(name(a)))

  private def clean(names: Seq[String]) = pick(DatasetProfiles.all, names)(_.name)

  private def cached(df: DataFrame): DataFrame = { df.cache(); df.count(); df }

  private def codes(ms: Seq[ModelSpec]) = ms.map(_.code)

  /** A check that holds when every (ok, detail) item does. */
  private def every(name: String, items: Seq[(Boolean, String)]) =
    Check(name, items.forall(_._1), items.map(_._2).mkString(", "))

  private def vs(a: String, x: Double, b: String, y: Double) = s"$a ${Tab.f(x)} vs $b ${Tab.f(y)}"

  /** A check that model `a`'s value in `m` is below model `b`'s. */
  private def below(name: String, m: Map[String, Double], a: String, b: String) =
    Check(name, m(a) < m(b), vs(a, m(a), b, m(b)))

  /** Table 1: dimensionality, max sequence length, parameters and the ER
    * works using each of the 12 models. Pure registry metadata.
    */
  def table1(): Report = {
    val ms = ModelRegistry.all
    val rows = Seq(Seq("Model", "Code", "Dim.", "Seq.", "Param.", "Blocking", "Matching")) ++
      ms.map(m => Seq(m.name, m.code, m.dim.toString,
        if (m.seqLen == 0) "-" else m.seqLen.toString,
        if (m.paramsM == 0) "-" else s"${m.paramsM}M", m.blockingRefs, m.matchingRefs))
    def dims(d: Int) = ms.count(_.dim == d)
    Report("Table 1 (paper: 12 models, base versions)", rows, Seq(
      Check("12 models", ms.size == 12, s"${ms.size} models"),
      Check("8 models of 768 dims, 3 of 300, 1 of 384",
        dims(768) == 8 && dims(300) == 3 && dims(384) == 1,
        s"768: ${dims(768)}, 300: ${dims(300)}, 384: ${dims(384)}")))
  }

  /** Table 2(a): the Clean-Clean datasets at full size, with the measured
    * average sentence length in characters.
    */
  def table2a(spark: SparkSession, names: Seq[String]): Report = {
    val paperAvg = Map(
      "D1" -> 18.67, "D2" -> 198.64, "D3" -> 792.43, "D4" -> 133.29, "D5" -> 81.49,
      "D6" -> 71.48, "D7" -> 104.16, "D8" -> 103.35, "D9" -> 115.57, "D10" -> 54.04)
    val stats = clean(names).map(p => p -> ERSynth.stats(spark, p))
    val rows = stats.map { case (p, (v1, v2, a1, a2, d, avgLen)) =>
      Seq(p.name, v1.toString, v2.toString, a1.toString, a2.toString, d.toString,
        Tab.f(avgLen, 2), Tab.f(paperAvg(p.name), 2))
    }
    Report("Table 2(a) — Clean-Clean ER datasets (full size)",
      Seq("ds", "|V1|", "|V2|", "|A1|", "|A2|", "|D|", "|S|meas", "|S|paper") +: rows,
      Seq(every("|V1|/|V2|/|D| equal the profile's", stats.map { case (p, (v1, v2, _, _, d, _)) =>
        (v1 == p.v1 && v2 == p.v2 && d == p.dups, s"${p.name} $v1/$v2/$d vs ${p.v1}/${p.v2}/${p.dups}")
      })))
  }

  /** Table 2(b): the Febrl Dirty-ER datasets at full size. */
  def table2b(spark: SparkSession, names: Seq[String]): Report = {
    val paperD = Map(
      "Ds1" -> 8705L, "Ds2" -> 43071L, "Ds3" -> 85497L, "Ds4" -> 172403L,
      "Ds5" -> 257034L, "Ds6" -> 857538L, "Ds7" -> 1716102L)
    val measured = pick(FebrlSynth.TableSizes, names)(_._1).map { case (name, n) =>
      val d = FebrlSynth.duplicatePairs(spark, n).count()
      // sample sentence length on large sizes to keep the table fast
      val avgLen = FebrlSynth.entities(spark, math.min(n, 50_000L))
        .agg(avg(length(col("sentence")))).head().getDouble(0)
      (name, n, d, avgLen)
    }
    val rows = measured.map { case (name, n, d, avgLen) =>
      Seq(name, n.toString, d.toString, paperD(name).toString, Tab.f(avgLen, 2))
    }
    Report("Table 2(b) — Febrl Dirty-ER datasets (full size)",
      Seq("ds", "|V|", "|D|meas", "|D|paper", "|S|meas") +: rows,
      Seq(every("~0.86 duplicate pairs per entity (paper ~0.87)", measured.map { case (name, n, d, _) =>
        (math.abs(d.toDouble / n - 0.86) < 0.01, s"$name ${Tab.f(d.toDouble / n, 4)}")
      })))
  }

  /** Table 3: the supervised-matching datasets, generated and counted. */
  def table3(spark: SparkSession, names: Seq[String]): Report = {
    val paper = Map( // name -> (total, testing, dups, attrs)
      "DSM1" -> Seq(9575L, 1917L, 1028L, 3L), "DSM2" -> Seq(539L, 110L, 132L, 8L),
      "DSM3" -> Seq(12363L, 2474L, 2220L, 4L), "DSM4" -> Seq(28707L, 5743L, 5347L, 4L),
      "DSM5" -> Seq(10242L, 2050L, 962L, 5L))
    val counted = pick(SupervisedSynth.all, names)(_.name).map { p =>
      val df = SupervisedSynth.pairs(spark, p).cache()
      val c = Seq(df.count(), df.filter(col("split") === "test").count(),
        df.filter(col("label") === 1).count(), p.attrs.toLong)
      df.unpersist()
      (p, c)
    }
    val rows = counted.map { case (p, c) =>
      Seq(p.name, p.src1, p.src2, c(0).toString, c(1).toString, paper(p.name)(1).toString,
        c(2).toString, c(3).toString)
    }
    def check(name: String, i: Int)(ok: (Long, Seq[Long]) => Boolean) =
      every(name, counted.map { case (p, c) => (ok(c(i), paper(p.name)), s"${p.name} ${c(i)} vs ${paper(p.name)(i)}") })
    Report("Table 3 — supervised matching datasets",
      Seq("ds", "src1", "src2", "total", "test(meas)", "test(paper)", "dups", "attrs") +: rows, Seq(
        check("total pairs equal the paper's", 0)(_ == _(0)),
        check("testing pairs within 2% of the paper's total", 1)((got, w) => math.abs(got - w(1)) <= w(0) / 50),
        check("duplicates equal the paper's", 2)(_ == _(2)),
        check("attributes equal the paper's", 3)(_ == _(3))))
  }

  /** Table 4, Init row: building each model's tables/weights. Paper shape:
    * FastText by far the costliest (n-gram dictionary), Word2Vec second.
    */
  def table4Init(): Report = {
    val models = codes(ModelRegistry.all)
    val inits = models.map { c =>
      val t0 = System.nanoTime()
      val rt = Vectorizer.freshRuntime(c)
      (c, (System.nanoTime() - t0) / 1e6, rt.vocabTable.nonEmpty)
    }
    val ms = inits.map(i => i._1 -> i._2).toMap
    def avgOf(cs: Seq[String]) = cs.map(ms).sum / cs.size
    val (bert, sbert) = (avgOf(codes(ModelRegistry.bertModels)), avgOf(codes(ModelRegistry.sbertModels)))
    Report("Table 4 (Init row) — model initialization (ms)",
      Seq(models, models.map(c => Tab.f(ms(c), 1))), Seq(
        Check("every runtime has a vocabulary table", inits.forall(_._3),
          s"${inits.count(_._3)} of ${inits.size} runtimes"),
        below("FastText init slowest (n-gram dictionary)", ms, "WC", "FT"),
        below("Word2Vec init above GloVe", ms, "GE", "WC"),
        Check("SentenceBERT init above BERT init (larger models)", sbert > bert, vs("SBERT", sbert, "BERT", bert))))
  }

  /** Table 4, transform: vectorization time per model and dataset. Paper
    * shape: Word2Vec/GloVe fastest by an order of magnitude; DistilBERT
    * fastest BERT, XLNet slowest BERT; S-MiniLM fastest SentenceBERT,
    * S-GTR-T5 slowest overall.
    */
  def table4(spark: SparkSession, names: Seq[String]): Report = {
    val scale = DatasetProfiles.benchScale
    val models = codes(ModelRegistry.all)
    models.foreach(Vectorizer.runtime) // exclude init from transform timing
    val secs = clean(names).map(p0 =>
      p0.name -> models.map(c => Harness.vectorizationSecs(spark, p0.scaled(scale), c)))
    val total = models.zipWithIndex.map { case (c, i) => c -> secs.map(_._2(i)).sum }.toMap
    Report(s"Table 4 — vectorization time (s) at scale=$scale",
      (Seq("ds") ++ models) +: secs.map { case (n, s) => n +: s.map(Tab.f(_, 2)) } :+
        ("TOTAL" +: models.map(c => Tab.f(total(c), 2))), Seq(
        below("Word2Vec transform far below FastText", total, "WC", "FT"),
        below("GloVe transform far below FastText", total, "GE", "FT"),
        below("DistilBERT faster than BERT", total, "DT", "BT"),
        below("XLNet slowest BERT-family model", total, "BT", "XT"),
        below("S-MiniLM faster than S-MPNet", total, "SM", "ST"),
        below("S-MiniLM faster than S-GTR-T5, the heaviest SBERT", total, "SM", "S5")))
  }

  /** Table 5(a): blocking — DeepBlocker (Auto-Encoder + FastText) vs
    * S-GTR-T5 (vectorize + exact NNS), k ∈ {1, 5, 10}, with the recall of
    * Figure 3's SotA column. Paper shape: S-GTR-T5's time is ~flat in k;
    * DeepBlocker grows with k; S-GTR-T5's recall@10 is higher on the noisy
    * datasets and both are ~perfect on D1/D4.
    */
  def table5a(spark: SparkSession, names: Seq[String]): Report = {
    import spark.implicits._
    val scale = DatasetProfiles.benchScale
    val ks = Seq(1, 5, 10)
    val runs = clean(names).map { p0 =>
      val p = p0.scaled(scale)
      val s1 = cached(ERSynth.source(spark, p, 1))
      val s2 = cached(ERSynth.source(spark, p, 2))
      val gt = ERSynth.groundTruth(spark, p)
      val (q, i, side1Queries) = Harness.querySides(p, s1, s2)
      val db = ks.map(k => DeepBlocker.block(q, i, k, tag = s"t5a-${p0.name}-$k"))
      val dbCands = db.last.candidates.as[(Long, Long)]
        .map { case (a, b) => Harness.canon(side1Queries, a, b) }.toDF("id1", "id2")
      val dbRec10 = BlockingMetrics.recall(dbCands, gt)
      val s5 = ks.map(k => Harness.knn(p, s1, s2, gt, "S5", k))
      s1.unpersist(); s2.unpersist()
      (p0.name, db.map(_.secs), s5.map(r => r.vecSecs + r.blockSecs), dbRec10, s5.last.recallAt(10))
    }
    val rows = runs.map { case (n, dbT, s5T, dbRec, s5Rec) =>
      Seq(n) ++ dbT.map(Tab.f(_, 1)) ++ s5T.map(Tab.f(_, 1)) ++ Seq(Tab.f(dbRec), Tab.f(s5Rec))
    }
    val s5Wins = runs.count(r => r._5 > r._4 + 0.02)
    val bothHigh = runs.count(r => r._5 > 0.95 && r._4 > 0.95)
    Report(s"Table 5(a) — blocking: DeepBlocker vs S-GTR-T5 (scale=$scale)",
      (Seq("ds") ++ ks.map(k => s"DB t(k=$k)") ++ ks.map(k => s"S5 t(k=$k)") ++ Seq("DB rec@10", "S5 rec@10"))
        +: rows,
      Seq(Check("S-GTR-T5 recall@10 above DeepBlocker, or both ~perfect, on at least 6 datasets",
        s5Wins + bothHigh >= 6, s"S5 wins=$s5Wins bothHigh=$bothHigh of ${runs.size}")))
  }

  /** Table 5(b): unsupervised matching — ZeroER (t_p, t_m) vs the
    * end-to-end S-GTR-T5 pipeline (k=10 blocking + UMC at δ=0.5), with the
    * F1 of Figure 8(d). Paper shape: ZeroER exceeds the time budget on
    * several datasets ('-'); S-GTR-T5 finishes every dataset with matching
    * time in milliseconds.
    */
  def table5b(spark: SparkSession, names: Seq[String]): Report = {
    val scale = DatasetProfiles.benchScale
    val budget = sys.env.getOrElse("ZEROER_BUDGET_SEC", "30").toDouble
    val runs = clean(names).map { p0 =>
      val p = p0.scaled(scale)
      val s1 = cached(ERSynth.source(spark, p, 1))
      val s2 = cached(ERSynth.source(spark, p, 2))
      val gt = ERSynth.groundTruth(spark, p)
      val ze = ZeroER.run(s1, s2, gt, budgetSecs = budget)
      val s5 = Pipeline.runOnSources(spark, p, s1, s2, gt, "S5", k = 10, delta = 0.5)
      s1.unpersist(); s2.unpersist()
      (p0.name, ze, s5)
    }
    val rows = runs.map { case (n, ze, s5) =>
      Seq(n) ++ ze.fold(Seq("-", "-", "-"))(r => Seq(Tab.f(r.prepSecs, 1), Tab.f(r.matchSecs, 2), Tab.f(r.f1))) ++
        Seq(Tab.f(s5.prepSecs, 1), Tab.f(s5.matchSecs * 1000, 0), Tab.f(s5.f1))
    }
    val timeouts = runs.count(_._2.isEmpty)
    val notWorse = runs.count { case (_, ze, s5) => ze.forall(r => s5.f1 >= r.f1 - 0.03) }
    Report(s"Table 5(b) — ZeroER vs S-GTR-T5 (scale=$scale, budget=${budget}s)",
      Seq("ds", "ZE t_p", "ZE t_m", "ZE F1", "S5 t_p", "S5 t_m(ms)", "S5 F1") +: rows, Seq(
        Check("long-text datasets exceed ZeroER's budget", timeouts >= 1,
          s"ZeroER did not terminate on $timeouts/${runs.size} datasets (paper: 5/10)"),
        Check("S-GTR-T5 at least as good on most datasets", notWorse >= 6,
          s"S5 F1 >= ZeroER F1 - 0.03, or ZeroER '-', on $notWorse/${runs.size} datasets")))
  }

  /** Table 6: supervised matching — training (t_t) and testing (t_e) times
    * of the 10 supported models, the F1 behind Figure 11 and the
    * validation-selected epoch. Paper shape: XLNet slowest; S-MiniLM
    * fastest; S-DistilRoBERTa and DistilBERT ≈ half of RoBERTa; dynamic
    * models' F1 above the static models'.
    */
  def table6(spark: SparkSession, names: Seq[String]): Report = {
    val models = ModelRegistry.supervisedModels
    val dsms = pick(SupervisedSynth.all, names)(_.name)
    val results = models.map { m =>
      val rs = dsms.map(p => SupervisedMatcher.run(spark, p, m))
      val cells = Seq(m.code) ++ rs.flatMap(r => Seq(Tab.f(r.trainSecs, 1), Tab.f(r.testSecs, 2), Tab.f(r.f1))) ++
        rs.map(_.chosenEpoch.toString)
      println(cells.mkString("  "))
      (m.code, rs, cells)
    }
    val train = results.map { case (c, rs, _) => c -> rs.map(_.trainSecs).sum }.toMap
    val f1 = results.map { case (c, rs, _) => c -> rs.map(_.f1).sum / dsms.size }.toMap
    val dynamic = codes(models.filter(_.family != Family.Static))
    val dynF1 = dynamic.map(f1).sum / dynamic.size
    Report("Table 6 — supervised matching t_t / t_e / F1 per dataset, and the chosen epoch",
      (Seq("model") ++ dsms.flatMap(p => Seq(s"${p.name} t_t", "t_e", "F1")) ++ dsms.map(p => s"${p.name} epoch"))
        +: results.map(_._3), Seq(
        below("XLNet slowest", train, "BT", "XT"),
        below("S-MiniLM fastest SBERT", train, "SM", "ST"),
        below("DistilBERT below BERT", train, "DT", "BT"),
        below("S-DistilRoBERTa below S-MPNet", train, "SA", "ST"),
        Check("dynamic models' F1 above GloVe", dynF1 > f1("GE"), vs("dynamic avg", dynF1, "GE", f1("GE"))),
        Check("dynamic models' F1 above FastText", dynF1 > f1("FT"), vs("dynamic avg", dynF1, "FT", f1("FT"))),
        below("FastText above GloVe (char-level robustness)", f1, "GE", "FT")))
  }

  /** The effectiveness matrix behind Figures 3, 4 and 8: blocking recall at
    * k ∈ {1, 5, 10} and the UMC best-threshold δ/P/R/F1 of every model on
    * every dataset, the vectorize and k-NN seconds, and per-model averages
    * (Figures 4/9). The checks are the paper's family ordering.
    */
  def effectiveness(spark: SparkSession, names: Seq[String]): Report = {
    val scale = DatasetProfiles.benchScale
    val models = codes(ModelRegistry.all)
    val ps = clean(names)
    val runs = for (p0 <- ps; c <- models) yield {
      val r = Harness.runOne(spark, p0.scaled(scale), c)
      val (d, pr, re, f1, _) = r.umcBest()
      val row = Seq(p0.name, c, Tab.f(r.recallAt(1)), Tab.f(r.recallAt(5)), Tab.f(r.recallAt(10)),
        Tab.f(d, 2), Tab.f(pr), Tab.f(re), Tab.f(f1), Tab.f(r.vecSecs, 1), Tab.f(r.blockSecs, 1))
      println(row.mkString("  "))
      (c, r.recallAt(10), f1, row)
    }
    def mean(value: ((String, Double, Double, Seq[String])) => Double) =
      models.map(c => c -> runs.filter(_._1 == c).map(value).sum / ps.size).toMap
    val (rec, f1) = (mean(_._2), mean(_._3))
    val avgRows = models.map(c => Seq("avg", c, "-", "-", Tab.f(rec(c)), "-", "-", "-", Tab.f(f1(c)), "-", "-"))

    def avg(f: Family, m: Map[String, Double]) = {
      val cs = codes(ModelRegistry.ofFamily(f))
      cs.map(m).sum / cs.size
    }
    def above(name: String, m: Map[String, Double], a: Family, b: Family) =
      Check(name, avg(a, m) > avg(b, m), vs(a.toString, avg(a, m), b.toString, avg(b, m)))
    val bertRec = codes(ModelRegistry.bertModels).map(rec)
    Report(s"Figures 3/8 data, with per-model averages of Figures 4/9 (scale=$scale)",
      Seq("ds", "model", "rec@1", "rec@5", "rec@10", "delta", "P", "R", "F1", "vec s", "block s") +:
        (runs.map(_._4) ++ avgRows), Seq(
        above("SBERT > static on blocking recall", rec, Family.SBert, Family.Static),
        above("static > BERT on blocking recall", rec, Family.Static, Family.Bert),
        above("SBERT > static on UMC F1", f1, Family.SBert, Family.Static),
        above("static > BERT on UMC F1", f1, Family.Static, Family.Bert),
        Check("S-GTR-T5 at/near the top",
          rec("S5") == rec.values.max || f1("S5") == f1.values.max || rec("S5") >= rec.values.max - 0.02,
          s"${vs("S5 rec@10", rec("S5"), "max", rec.values.max)}; ${vs("S5 F1", f1("S5"), "max", f1.values.max)}"),
        Check("DistilBERT best BERT model", rec("DT") == bertRec.max, vs("DT rec@10", rec("DT"), "BERT max", bertRec.max)),
        Check("AlBERT/XLNet collapse", Seq("AT", "XT").forall(c => rec(c) <= bertRec.min + 1e-9 || rec(c) < 0.35),
          s"${vs("AT rec@10", rec("AT"), "XT", rec("XT"))}, BERT min ${Tab.f(bertRec.min)}")))
  }
}
