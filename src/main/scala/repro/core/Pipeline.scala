package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.data.{CleanProfile, ERSynth}
import repro.matching.{MatchMetrics, UniqueMappingClustering}

/** The paper's end-to-end, parameter- and learning-free ER pipeline
  * (§5.2 "Comparison to SotA"): vectorize both sources with a language
  * model, block with exact NNS (k candidates per smaller-side entity),
  * score candidates with sim = 1/(1+dist), and match with Unique Mapping
  * Clustering at a fixed default threshold δ.
  */
object Pipeline {

  final case class Result(precision: Double, recall: Double, f1: Double,
                          prepSecs: Double, matchSecs: Double, nCandidates: Long)

  /** Run on a (possibly scaled) Clean-Clean profile. */
  def run(spark: SparkSession, p: CleanProfile, modelCode: String,
          k: Int = 10, delta: Double = 0.5): Result = {
    val s1 = ERSynth.source(spark, p, 1)
    val s2 = ERSynth.source(spark, p, 2)
    val gt = ERSynth.groundTruth(spark, p)
    runOnSources(spark, p, s1, s2, gt, modelCode, k, delta)
  }

  def runOnSources(spark: SparkSession, p: CleanProfile, s1: DataFrame, s2: DataFrame,
                   gt: DataFrame, modelCode: String, k: Int, delta: Double): Result = {
    val nn = Harness.knn(p, s1, s2, gt, modelCode, k)
    val t1 = System.nanoTime()
    val matches = UniqueMappingClustering.cluster(nn.scored, delta, nn.smallSize)
    val predicted = matches.map(m => nn.canon(m.id1, m.id2)).toSet
    val matchSecs = (System.nanoTime() - t1) / 1e9

    val (pr, re, f1) = MatchMetrics.prf(predicted, nn.gt)
    Result(pr, re, f1, nn.vecSecs + nn.blockSecs, matchSecs, nn.neighbours.length.toLong)
  }
}
