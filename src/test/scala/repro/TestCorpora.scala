package repro

import org.apache.spark.sql.SparkSession
import repro.core.PreparedCorpus
import repro.data.{DatasetSpec, Datasets}

/** Shared cache of prepared corpora for the test run (one JVM, sequential
  * suites): preparing a corpus runs the full Spark dataflow once per
  * (dataset, size) and is reused across suites.
  */
object TestCorpora {
  private val cache = scala.collection.concurrent.TrieMap.empty[(String, Long), PreparedCorpus]

  private def prepared(spark: SparkSession, spec: DatasetSpec, n: Long): PreparedCorpus =
    cache.getOrElseUpdate((spec.name, n), PreparedCorpus.prepare(spark, spec, Some(n)))

  /** Small corpora used by most unit suites (SF analogue: tiny). */
  def tweetsSmall(spark: SparkSession): PreparedCorpus =
    prepared(spark, Datasets.tweets, 800L)
  def directionsSmall(spark: SparkSession): PreparedCorpus =
    prepared(spark, Datasets.directions, 2000L)
  def musiciansSmall(spark: SparkSession): PreparedCorpus =
    prepared(spark, Datasets.musicians, 2000L)
  def causeEffectSmall(spark: SparkSession): PreparedCorpus =
    prepared(spark, Datasets.causeEffect, 1500L)
  def professionsSmall(spark: SparkSession): PreparedCorpus =
    prepared(spark, Datasets.professions, 4000L)
}
