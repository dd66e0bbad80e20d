package repro.perfbench

import java.lang.management.ManagementFactory
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions.col
import repro.core._
import repro.data.{CorpusGen, DatasetSpec, Datasets}
import repro.eval.Metrics
import repro.index.HeuristicIndex
import repro.weak.{LabelModel, RuleApply}
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** What one run shares with the workload it runs. */
final class Ctx(val spark: SparkSession, val seed: Long, val report: Report,
                val jobs: Option[JobMetrics]) {
  val tally = new Tally
  def trace: Boolean = jobs.isDefined

  /** Attribute the Spark jobs of ``body`` to ``group`` when tracing. */
  def group[A](g: String)(body: => A): A = jobs.fold(body)(_.inGroup(g)(body))

  /** Seed 0 is the Table-1 corpus; seed k salts the generator's PRNG
    * through the dataset name.
    */
  def salted(spec: DatasetSpec): DatasetSpec =
    if (seed == 0) spec else spec.copy(name = s"${spec.name}~$seed")
}

/** One Darwin run as the annotator sees it. */
final case class LoopRun(dataset: String, strategy: String, loopS: Double,
                         res: DarwinResult, recall: Double, waits: Waits,
                         startWaitMs: Double)

sealed trait Workload {
  def name: String
  def run(ctx: Ctx): Unit
}

object Workload {
  val MB = 1e6

  def all: Seq[Workload] = Seq(Pipeline("pipeline-100k", 100000L), LoopSweep("loop-sweep"))

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(throw new IllegalArgumentException(
      s"unknown workload '$name' (known: ${all.map(_.name).mkString(", ")})"))

  /** Used heap after a full GC. Spark's ContextCleaner frees shuffle and
    * broadcast state only once a GC has found its handles unreachable, so
    * a second GC follows a short pause.
    */
  def usedHeapAfterGc(): Long = {
    System.gc()
    Thread.sleep(200)
    System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed
  }

  def gcSeconds(): Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).filter(_ >= 0).sum / 1e3

  /** Prepare a corpus: (corpus, wall time, MB of driver heap it retains).
    * Each prepare starts after the same full GCs, traced or not. Its Spark
    * jobs go to job group ``group``.
    */
  def prepare(ctx: Ctx, spec: DatasetSpec, n: Long,
              group: String): Option[(PreparedCorpus, Double, Double)] = {
    val before = usedHeapAfterGc()
    ctx.report.attempt(s"prepare ${spec.name}") {
      val (prep, s) = Layers.seconds(ctx.group(group) {
        PreparedCorpus.prepare(ctx.spark, spec, Some(n))
      })
      (prep, s, (usedHeapAfterGc() - before) / MB)
    }
  }

  /** Run Darwin with a timed exact oracle and check its trace. */
  def darwin(ctx: Ctx, prep: PreparedCorpus, seedRule: String, budget: Int,
             strategy: Strategy): Option[LoopRun] = {
    val run = ctx.report.attempt(s"darwin ${prep.name} ${strategy.label}") {
      val oracle = new TimingOracle(new ExactOracle(prep.gt))
      val t0  = System.nanoTime()
      val res = new Darwin(prep, oracle).run(seedRule, budget, strategy)
      val t1  = System.nanoTime()
      val calls = oracle.calls
      ctx.report.check(s"trace ${prep.name} ${strategy.label}")(Checks.trace(res, budget, calls.length))
      LoopRun(prep.name, strategy.label, (t1 - t0) / 1e9, res, prep.recall(res.positives),
              Waits.of(calls, t1), (calls.headOption.map(_.startNs).getOrElse(t1) - t0) / 1e6)
    }
    run.foreach { r =>
      ctx.report.note(f"run dataset=${r.dataset} strategy=${r.strategy} " +
        f"core.queries=${r.res.queries} core.accepts=${r.waits.yes.length} " +
        f"recall=${r.recall}%.4f loop_s=${r.loopS}%.3f")
    }
    run
  }

  /** Weak labels over the corpus and the label model, checked against the
    * index coverage of the rules; returns their wall times. The Spark jobs
    * of rule application go to job group ``group``.
    */
  def weakLabels(ctx: Ctx, spec: DatasetSpec, n: Long, prep: PreparedCorpus,
                 rules: Seq[String], group: String): Option[(Double, Double)] =
    ctx.report.attempt(s"weak labels ${prep.name}") {
      val (weak, applyS) = Layers.seconds(ctx.group(group) {
        RuleApply.weakLabels(ctx.spark, CorpusGen.corpus(ctx.spark, spec, Some(n)), rules)
          .filter(col("weakLabel") === 1).count()
      })
      val (_, lmS) = Layers.seconds(LabelModel.denoise(prep, rules.toVector.map(prep.index.ids)))
      ctx.report.check(s"weak count ${prep.name}")(Checks.weakCount(weak, prep, rules))
      (applyS, lmS)
    }

  /** The end classifier on a run's positives: (wall time, F1). */
  def finalClassifier(ctx: Ctx, prep: PreparedCorpus, run: LoopRun): Option[(Double, Double)] =
    ctx.report.attempt(s"final classifier ${prep.name} ${run.strategy}") {
      val (prf, s) = Layers.seconds(Metrics.classifierF1(prep, run.res.positives))
      (s, prf.f1)
    }

  /** Loop metrics shared by both kinds of workload; the per-layer ones
    * come from ``traced``.
    */
  def putLoop(ctx: Ctx, runs: Seq[LoopRun], traced: Seq[LoopRun]): Unit = {
    val r   = ctx.report
    val yes = runs.flatMap(_.waits.yes)
    if (yes.nonEmpty) {
      val level = Stats.tailLevel(yes.length)
      r.put("yes_wait_p50_ms", Stats.hd(yes, 0.5))
      r.put("yes_wait_tail_ms", Stats.hd(yes, level))
      r.note(f"yes_wait samples=${yes.length} tail=p${100 * level}%.1f")
    }
    if (runs.nonEmpty) r.put("recall", Stats.mean(runs.map(_.recall)))
    if (ctx.trace) {
      val t  = ctx.tally
      val no = traced.flatMap(_.waits.no)
      if (no.nonEmpty) {
        t.sum("core.no_wait_p50_ms", Stats.hd(no, 0.5))
        t.sum("core.no_wait_p90_ms", Stats.hd(no, 0.9))
      }
      traced.foreach { lr =>
        t.sum("core.queries", lr.res.queries)
        t.sum("core.accepts", lr.waits.yes.length)
        t.rate("core.oracle_us", lr.waits.insideUs.sum, lr.waits.insideUs.length)
        t.sum("core.start_wait_ms", lr.startWaitMs)
        t.sum("core.yes_wait_sum_ms", lr.waits.yes.sum)
        t.sum("core.no_wait_sum_ms", lr.waits.no.sum)
      }
    }
  }

  /** Traced-only probes of one prepared dataset: generation, a standalone
    * index build with prepare's arguments, and the per-layer probes.
    */
  def probe(ctx: Ctx, spec: DatasetSpec, n: Long, prep: PreparedCorpus,
            runs: Seq[LoopRun], sample: Int, statesPerRun: Int): Unit = {
    val t = ctx.tally
    ctx.report.attempt(s"probe ${spec.name}") {
      t.sum("data.generate_s", Layers.seconds(ctx.group(s"generate/${spec.name}") {
        CorpusGen.corpus(ctx.spark, spec, Some(n)).count()
      })._2)
      t.sum("index.build_s", Layers.seconds(ctx.group(s"index/${spec.name}") {
        HeuristicIndex.build(ctx.spark, CorpusGen.corpus(ctx.spark, spec, Some(n)))
      })._2)
      val hs    = runs.find(_.strategy == Strategy.HybridSearch().label).getOrElse(runs.head)
      val texts = Array.tabulate(math.min(sample.toLong, n).toInt)(i => spec.sentence(i.toLong)._1)
      Layers.perSentence(t, texts, hs.res.rules)
      Layers.index(t, prep, hs.res.positives)
      runs.foreach(lr => Layers.replay(t, prep, spec.seedRule, lr.res, statesPerRun))
    }
  }

  /** Listener totals of the traced run, read after the bus has drained,
    * for each dataset's standalone index build and for the job groups of
    * the prepare and the rule application to report.
    */
  def putJobs(ctx: Ctx, groups: Seq[(String, String, String)]): Unit = ctx.jobs.foreach { jm =>
    jm.drain()
    val t = ctx.tally
    for ((d, setupGroup, applyGroup) <- groups) {
      jm.total(s"index/$d").foreach { c =>
        t.sum("index.executor_cpu_s", c.cpuNs / 1e9)
        t.sum("index.executor_run_s", c.runMs / 1e3)
        t.sum("index.shuffle_write_mb", c.shuffleWrite / MB)
        t.sum("index.shuffle_read_mb", c.shuffleRead / MB)
        t.sum("index.spill_mb", c.diskSpill / MB)
      }
      val setup = jm.jobsOf(setupGroup)
      setup.lastOption.foreach(c => t.sum("prepare.features_s", c.wallS))
      t.sum("prepare.index_jobs_s", JobCost.coveredS(setup.dropRight(1)))
      jm.total(applyGroup).foreach(c => t.sum("weak.apply_executor_cpu_s", c.cpuNs / 1e9))
    }
  }
}

/** The §4.5 pipeline on the professions corpus at size ``n``: prepare →
  * Darwin(HS, budget 100) → weak labels, label model, end classifier.
  * Each of ``rounds`` corpora (the seed's corpus, then ``<name>.1``,
  * ``<name>.2``, … salted from it) is prepared and runs the loop and label
  * phases once; the phases report medians over the rounds. The rounds use
  * different corpora because one corpus in about six finds a third rule
  * (≈40% more loop time), so a median over several corpora moves only
  * when half of them do. Traced, it then probes the layers on the last
  * corpus.
  */
final case class Pipeline(name: String, n: Long, rounds: Int = 6,
                          sample: Int = 20000) extends Workload {
  val budget = 100

  def run(ctx: Ctx): Unit = {
    val base = ctx.salted(Datasets.professions)
    val r    = ctx.report
    final case class Round(loop: LoopRun, applyS: Double, lmS: Double, clfS: Double, f1: Double) {
      def labelS: Double = applyS + lmS + clfS
    }
    val setups = mutable.ArrayBuffer.empty[Double]
    val heaps  = mutable.ArrayBuffer.empty[Double]
    val done   = mutable.ArrayBuffer.empty[Round]
    var last   = Option.empty[(DatasetSpec, PreparedCorpus)]
    var failed = false
    for (j <- 0 until rounds if !failed) {
      val spec = if (j == 0) base else base.copy(name = s"${base.name}.$j")
      val round = Workload.prepare(ctx, spec, n, s"setup/${spec.name}").flatMap {
        case (prep, setupS, heapMb) =>
          setups += setupS
          heaps += heapMb
          last = Some(spec -> prep)
          r.note(f"prepare dataset=${prep.name} setup_s=$setupS%.3f heap_mb=$heapMb%.1f")
          r.check(s"seed indexed ${prep.name}")(Checks.seedIndexed(prep, spec.seedRule))
          r.check(s"postings ${prep.name}")(Checks.postings(prep, spec))
          for {
            loop          <- Workload.darwin(ctx, prep, spec.seedRule, budget, Strategy.HybridSearch())
            (applyS, lmS) <- Workload.weakLabels(ctx, spec, n, prep, loop.res.rules, s"apply/${spec.name}")
            (clfS, f1)    <- Workload.finalClassifier(ctx, prep, loop)
          } yield {
            r.check(s"recall ${prep.name}")(Checks.recall(prep.name, loop.recall, 0.6))
            r.note(f"label apply_s=$applyS%.3f label_model_s=$lmS%.3f final_clf_s=$clfS%.3f")
            Round(loop, applyS, lmS, clfS, f1)
          }
      }
      round.foreach(done += _)
      failed = round.isEmpty
    }
    if (done.isEmpty) return
    val phases = Seq(
      "setup_s" -> Stats.median(setups.toSeq),
      "loop_s"  -> Stats.median(done.map(_.loop.loopS).toSeq),
      "label_s" -> Stats.median(done.map(_.labelS).toSeq))
    phases.foreach { case (k, v) => r.put(k, v) }
    r.put("total_s", phases.map(_._2).sum)
    r.put("prepared_heap_mb", Stats.median(heaps.toSeq))
    r.put("f1", Stats.mean(done.map(_.f1).toSeq))
    Workload.putLoop(ctx, done.map(_.loop).toSeq, Seq(done.last.loop))
    if (ctx.trace) last.foreach { case (spec, prep) =>
      val t = ctx.tally
      phases.foreach { case (k, v) => t.sum(s"span.$k", v) }
      t.sum("weak.apply_s", done.last.applyS)
      t.sum("weak.label_model_ms", done.last.lmS * 1e3)
      t.sum("eval.final_clf_s", done.last.clfS)
      Workload.probe(ctx, spec, n, prep, Seq(done.last.loop), sample, Int.MaxValue)
      Workload.putJobs(ctx, Seq((spec.name, s"setup/${spec.name}", s"apply/${spec.name}")))
    }
  }
}

/** Fig. 9: four Table-1 datasets × {LS, US, HS, HighP} at budget 150, each
  * run followed by the end classifier. One pass is the unit of work.
  */
final case class LoopSweep(name: String, nOverride: Option[Long] = None, sample: Int = 5000)
    extends Workload {
  val budget = 150
  val specs: Seq[DatasetSpec] =
    Seq(Datasets.causeEffect, Datasets.musicians, Datasets.directions, Datasets.tweets)
  val strategies: Seq[Strategy] = Seq(Strategy.LocalSearch, Strategy.UniversalSearch,
                                      Strategy.HybridSearch(), Strategy.HighP)

  def run(ctx: Ctx): Unit = {
    val r = ctx.report
    var setupS, labelS = 0.0
    val heap = mutable.ArrayBuffer.empty[Double]
    val runs = mutable.ArrayBuffer.empty[LoopRun]
    val f1s  = mutable.ArrayBuffer.empty[Double]
    val hsRecall = mutable.LinkedHashMap.empty[String, Double]
    for (spec0 <- specs) {
      val spec = ctx.salted(spec0)
      val n    = nOverride.fold(spec.n)(math.min(_, spec.n))
      Workload.prepare(ctx, spec, n, s"setup/${spec.name}").foreach { case (prep, s, heapMb) =>
        setupS += s
        heap += heapMb
        r.check(s"seed indexed ${prep.name}")(Checks.seedIndexed(prep, spec.seedRule))
        r.check(s"postings ${prep.name}")(Checks.postings(prep, spec))
        val mine = strategies.flatMap { st =>
          val run = Workload.darwin(ctx, prep, spec.seedRule, budget, st)
          run.foreach { lr =>
            Workload.finalClassifier(ctx, prep, lr).foreach { case (s, f1) =>
              labelS += s
              f1s += f1
              ctx.tally.sum("eval.final_clf_s", s)
            }
            if (st == Strategy.HybridSearch()) hsRecall(spec.name) = lr.recall
          }
          run
        }
        runs ++= mine
        if (ctx.trace && mine.nonEmpty) {
          // the weak-label layer, probed on the HS rules of each dataset
          mine.find(_.strategy == Strategy.HybridSearch().label)
            .flatMap(lr => Workload.weakLabels(ctx, spec, n, prep, lr.res.rules, s"apply/${spec.name}"))
            .foreach { case (applyS, lmS) =>
              ctx.tally.sum("weak.apply_s", applyS)
              ctx.tally.sum("weak.label_model_ms", lmS * 1e3)
            }
          Workload.probe(ctx, spec, n, prep, mine, sample, statesPerRun = 3)
        }
      }
    }
    r.check("HS coverage")(Checks.hsCoverage(hsRecall.toMap))
    val phases = Seq("setup_s" -> setupS, "loop_s" -> runs.map(_.loopS).sum, "label_s" -> labelS)
    phases.foreach { case (k, v) => r.put(k, v); if (ctx.trace) ctx.tally.sum(s"span.$k", v) }
    r.put("total_s", phases.map(_._2).sum)
    if (heap.nonEmpty) r.put("prepared_heap_mb", heap.sum)
    if (f1s.nonEmpty) r.put("f1", Stats.mean(f1s.toSeq))
    Workload.putLoop(ctx, runs.toSeq, runs.toSeq)
    Workload.putJobs(ctx, specs.map(ctx.salted(_).name).map(d => (d, s"setup/$d", s"apply/$d")))
  }
}
