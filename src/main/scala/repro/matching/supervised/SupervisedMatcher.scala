package repro.matching.supervised

import org.apache.spark.sql.SparkSession
import repro.data.{DsmProfile, SupervisedSynth}
import repro.embed.{Family, ModelSpec, Vectorizer}
import repro.util.Det

/** Supervised matching harness (paper §4.3 / §5.3).
  *
  * BERT / SentenceBERT models run through the EMTransformer-lite path and
  * static models through the DeepMatcher-lite path; both share the same
  * pair-featurized logistic head (the paths differ in the simulated
  * encoder cost per example, reproducing Table 6's time shape: XLNet
  * slowest, S-MiniLM fastest, DistilBERT/S-DistilRoBERTa ≈ half of
  * RoBERTa, static models mid-pack).
  */
object SupervisedMatcher {

  final case class Result(modelCode: String, dataset: String, f1: Double,
                          trainSecs: Double, testSecs: Double, chosenEpoch: Int)

  /** Simulated per-example encoder units (multiply-adds) for fine-tuning.
    * layers × dim × 4 for transformers (fwd+bwd over Q/K/V/FFN), with an
    * extra factor for XLNet's permutation-LM overhead; a flat bi-LSTM +
    * HighwayNet cost for the static models' DeepMatcher path.
    */
  def encoderUnits(m: ModelSpec): Long = m.family match {
    case Family.Static => 17_000L
    case Family.Bert | Family.SBert =>
      val layers = math.max(1, math.round(m.layers * m.costFactor).toInt)
      val base = layers.toLong * m.dim * 4
      if (m.code == "XT") (base * 1.5).toLong else base
  }

  def run(spark: SparkSession, p: DsmProfile, model: ModelSpec,
          epochs: Int = 12, seed: Long = 7L): Result = {
    import spark.implicits._

    val pairsDf = SupervisedSynth.pairs(spark, p)
    val code = model.code
    val nameHash = Det.strHash(p.name)
    // Fine-tuning adapts the dynamic encoders to the task, suppressing part
    // of their representation noise; static embeddings are frozen.
    val sigmaScale = model.family match { case Family.Static => 1.0; case Family.Bert | Family.SBert => 0.4 }

    val t0 = System.nanoTime()
    // featurize on executors: embed both sentences, build pair features
    val feats = pairsDf
      .select("pairId", "sent1", "sent2", "label", "split")
      .as[(Long, String, String, Int, String)]
      .map { case (pid, s1, s2, y, split) =>
        val v1 = Vectorizer.embed(code, s1, Det.seed(nameHash, 1L, pid), sigmaScale)
        val v2 = Vectorizer.embed(code, s2, Det.seed(nameHash, 2L, pid), sigmaScale)
        (PairFeatures.features(v1, v2), y, split)
      }
      .collect()

    val train = feats.filter(_._3 == "train")
    val valid = feats.filter(_._3 == "valid")
    val test  = feats.filter(_._3 == "test")

    val units = encoderUnits(model)
    val trained = LogisticTrainer.train(
      train.map(_._1), train.map(_._2),
      valid.map(_._1), valid.map(_._2),
      epochs = epochs, seed = Det.seed(seed, Det.strHash(code)),
      epochCostUnitsPerExample = units)
    val tTrain = (System.nanoTime() - t0) / 1e9

    val t1 = System.nanoTime()
    val buf = Array.fill(4096)(0.5f)
    val preds = test.map { case (x, _, _) =>
      // prediction pays the encoder forward pass (≈ half of fwd+bwd)
      LogisticTrainer.simulatedEncoderWork(buf, units / 2)
      trained.predict(x)
    }
    val f1 = LogisticTrainer.f1Of(preds.toSeq, test.map(_._2).toSeq)
    val tTest = (System.nanoTime() - t1) / 1e9

    Result(code, p.name, f1, tTrain, tTest, trained.chosenEpoch)
  }
}
