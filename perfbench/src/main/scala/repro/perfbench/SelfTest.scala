package repro.perfbench

import repro.core.{Darwin, ExactOracle, PreparedCorpus, Strategy}
import repro.data.Datasets
import repro.eval.Experiments

/** Self-test of the benchmark at tiny scale (about 2K sentences per
  * workload). Run with ``python3 perfbench/selftest.py``; exits non-zero
  * on the first failed assertion.
  */
object SelfTest {
  private def expect(ok: Boolean, what: => String): Unit =
    if (ok) println(s"ok   $what") else throw new AssertionError(what)

  def main(args: Array[String]): Unit = {
    val spark = Main.session()
    spark.sparkContext.setLogLevel("WARN")
    try {
      // The timing decorator changes neither answers nor traces.
      val tweets = PreparedCorpus.prepare(spark, Datasets.tweets)
      for (st <- Seq(Strategy.LocalSearch, Strategy.UniversalSearch, Strategy.HybridSearch(), Strategy.HighP)) {
        val bare    = Experiments.runDarwin(tweets, Datasets.tweets.seedRule, 150, st)
        val oracle  = new TimingOracle(new ExactOracle(tweets.gt))
        val wrapped = new Darwin(tweets, oracle).run(Datasets.tweets.seedRule, 150, st)
        expect(bare.trace == wrapped.trace && bare.rules == wrapped.rules,
               s"timed oracle leaves the tweets ${st.label} trace unchanged (${bare.queries} queries)")
        expect(oracle.calls.length == wrapped.queries, s"timed oracle logs every ${st.label} query")
      }

      // Every named metric is emitted, and no operation fails, at tiny
      // scale. (At 2K sentences some salted corpora do not index their seed
      // rule, so the pipeline uses 5K and the sweep the Table-1 corpora.)
      val tiny = Seq(Pipeline("pipeline-100k", 5000L, sample = 500) -> Seq(0L, 3L),
                     LoopSweep("loop-sweep", Some(2000L), sample = 500) -> Seq(0L))
      for ((w, seeds) <- tiny; trace <- Seq(false, true); seed <- seeds) {
        val report = Main.measure(spark, w, Opts(w.name, seed, 1, trace), 0.5)
        val want   = Json.metrics(trace).map(_.name)
        val what   = s"${w.name} seed=$seed trace=$trace"
        expect(want.forall(report.names.contains),
               s"$what emits every metric (missing: ${want.filterNot(report.names.contains).mkString(", ")})")
        expect(report.failed == 0, s"$what has no failures ${report.failureMessages.mkString("; ")}")
        val result = Json.mapper.readTree(report.resultLine(Json.metrics(trace)))
        expect(result.get("correct").asBoolean && result.get("metrics").size == want.length,
               s"$what result line")
      }

      // Check (e) trips on a seed rule that is not indexed.
      expect(Checks.seedIndexed(tweets, "G:no such phrase").isDefined,
             "check (e) trips on an unindexed seed rule")

      // Check (a) trips when a discovered rule is dropped before apply.
      val report = new Report
      val ctx    = new Ctx(spark, 0L, report, None)
      val spec   = Datasets.professions
      val prep   = PreparedCorpus.prepare(spark, spec, Some(2000L))
      val run    = Workload.darwin(ctx, prep, spec.seedRule, 100, Strategy.HybridSearch()).get
      val rules  = run.res.rules
      expect(rules.length >= 2, s"tiny professions discovers ${rules.length} rules")
      val apply = (rs: Seq[String]) =>
        repro.weak.RuleApply.weakLabels(spark, repro.data.CorpusGen.corpus(spark, spec, Some(2000L)), rs)
          .filter("weakLabel = 1").count()
      expect(Checks.weakCount(apply(rules), prep, rules).isEmpty, "check (a) passes on the discovered rules")
      expect(Checks.weakCount(apply(rules.dropRight(1)), prep, rules).isDefined,
             "check (a) trips when one discovered rule is dropped before apply")
      println("selftest passed")
    } finally spark.stop()
  }
}
