package repro.weak

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestCorpora}
import repro.data.{CorpusGen, Datasets}

class RuleApplySpec extends SparkSpec {

  test("weak labels equal driver-side rule matching") {
    import repro.grammar.Heuristic
    import repro.text.Pipeline
    val rules = Seq("G:craving", "T:t=pizza")
    val parsed = rules.map(Heuristic.parse)
    val corpus = CorpusGen.corpus(spark, Datasets.tweets, Some(800L))
    val out = RuleApply.weakLabels(spark, corpus, rules).collect()
    for (r <- out) {
      val id = r.getAs[Long]("id")
      val p = Pipeline.parse(Datasets.tweets.sentence(id)._1)
      val expected = parsed.exists(_.matches(p))
      assert((r.getAs[Int]("weakLabel") == 1) === expected, s"id=$id")
    }
  }

  test("votes identify which rule fired") {
    val corpus = CorpusGen.corpus(spark, Datasets.tweets, Some(400L))
    val out = RuleApply.weakLabels(spark, corpus, Seq("G:craving", "G:ordered"))
      .filter(col("weakLabel") === 1).collect()
    assert(out.nonEmpty)
    for (r <- out) {
      val votes = r.getAs[scala.collection.Seq[Int]]("votes")
      val text = r.getAs[String]("text")
      assert(votes.contains(0) === text.contains("craving"))
      assert(votes.contains(1) === text.contains("ordered"))
    }
  }

  test("phrase-rule weak label counts match DuckDB LIKE semantics") {
    val corpus = CorpusGen.corpus(spark, Datasets.tweets, Some(500L)).toDF()
    val out = RuleApply.weakLabels(spark,
        CorpusGen.corpus(spark, Datasets.tweets, Some(500L)), Seq("G:craving"))
      .agg(sum(col("weakLabel")).cast("string") as "positives")
    Oracle.assertEquivalent(
      out,
      "SELECT CAST(COUNT(*) FILTER (WHERE text LIKE '%craving%') AS VARCHAR) AS positives FROM corpus",
      "corpus" -> corpus)
  }

  test("weak labels over tree rules match driver-side matching") {
    val prep = TestCorpora.professionsSmall(spark)
    // the most-covering indexed two-constraint tree rule, ties by repr
    val rule = prep.index.entries.values.filter(_.pattern.startsWith("T:C2("))
      .minBy(e => (-e.count, e.pattern)).pattern
    val corpus = CorpusGen.corpus(spark, Datasets.professions, Some(4000L))
    val got = RuleApply.weakLabels(spark, corpus, Seq(rule))
      .filter(col("weakLabel") === 1)
      .select("id").collect().map(_.getLong(0).toInt).sorted
    assert(got.toSeq === prep.index.ids(rule).toSeq, rule)
  }
}
