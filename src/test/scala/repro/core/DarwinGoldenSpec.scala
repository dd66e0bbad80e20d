package repro.core

import org.apache.spark.sql.SparkSession
import repro.{SparkSpec, TestCorpora}
import repro.data.Datasets

/** Golden traces: every strategy on every small corpus, plus the edge
  * inputs budget 0 and rule-less starts from 3 or 0 seed sentences, must
  * reproduce the query events and final rules in `darwin-golden.tsv`.
  *
  * Fixture lines are tab-separated, keyed by the case name:
  * `<case> event <query> <rule> <answer> <pSize> <recall>` for each
  * `QueryEvent` in order (recall as `Double.toString`, so it parses back
  * to the same double), then `<case> rules <rule>...` for the final rules.
  */
class DarwinGoldenSpec extends SparkSpec {
  import DarwinGoldenSpec._

  private lazy val golden: Map[String, (Vector[QueryEvent], Vector[String])] = {
    val src = scala.io.Source.fromResource("darwin-golden.tsv", getClass.getClassLoader)
    val lines = try src.getLines().map(_.split("\t", -1).toVector).toVector finally src.close()
    lines.groupBy(_.head).map { case (name, ls) =>
      val events = ls.collect { case Vector(_, "event", q, rule, answer, pSize, recall) =>
        QueryEvent(q.toInt, rule, answer.toBoolean, pSize.toInt, recall.toDouble)
      }
      val rules = ls.collectFirst { case _ +: "rules" +: rs => rs }
      assert(rules.isDefined, s"fixture has no rules line for $name")
      name -> (events, rules.get)
    }
  }

  for (c <- cases) test(s"golden trace: ${c.name}") {
    assert(golden.contains(c.name), s"no fixture lines for ${c.name}")
    val (trace, rules) = golden(c.name)
    val res = c.run(spark)
    assert(res.trace === trace)
    assert(res.rules === rules)
  }
}

object DarwinGoldenSpec {
  private final case class Case(name: String, run: SparkSession => DarwinResult)

  private val strategies: Seq[Strategy] = Seq(
    Strategy.LocalSearch, Strategy.UniversalSearch, Strategy.HybridSearch(),
    Strategy.HybridSearch(tau = 2), Strategy.HighP, Strategy.HighC)

  private def tag(s: Strategy): String = s match {
    case Strategy.HybridSearch(tau) => s"HS(tau=$tau)"
    case other                      => other.label
  }

  private def darwin(prep: PreparedCorpus) = new Darwin(prep, new ExactOracle(prep.gt))

  private val corpora: Seq[(String, SparkSession => PreparedCorpus, String)] = Seq(
    ("tweets", TestCorpora.tweetsSmall, Datasets.tweets.seedRule),
    ("directions", TestCorpora.directionsSmall, Datasets.directions.seedRule),
    ("musicians", TestCorpora.musiciansSmall, Datasets.musicians.seedRule),
    ("cause-effect", TestCorpora.causeEffectSmall, Datasets.causeEffect.seedRule),
    ("professions", TestCorpora.professionsSmall, Datasets.professions.seedRule),
  )

  private val cases: Seq[Case] =
    (for ((corpus, prep, seed) <- corpora; s <- strategies)
      yield Case(s"$corpus ${tag(s)} b=60", sp => darwin(prep(sp)).run(seed, 60, s))) ++
    (for (s <- strategies) yield Seq(
      Case(s"tweets ${tag(s)} b=0",
        sp => darwin(TestCorpora.tweetsSmall(sp)).run(Datasets.tweets.seedRule, 0, s)),
      Case(s"tweets ${tag(s)} b=60 from 3 positives", sp => {
        val prep = TestCorpora.tweetsSmall(sp)
        darwin(prep).runFromPositives(prep.positiveIds.take(3), 60, s)
      }),
      Case(s"tweets ${tag(s)} b=60 from 0 positives",
        sp => darwin(TestCorpora.tweetsSmall(sp)).runFromPositives(Array.empty[Int], 60, s)),
    )).flatten
}
