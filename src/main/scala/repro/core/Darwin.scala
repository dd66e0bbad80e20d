package repro.core

import scala.collection.mutable

/** Hierarchy-traversal strategy (paper §3.3–3.6 and the §4.3 baselines).
  *
  * All five run the one loop in [[Darwin]]; a strategy is the data that
  * loop reads: the candidate pools it draws from, in mode order; the key
  * that ranks a pool; whether a universal pick with avg benefit ≤
  * `minAvgBenefit` is dropped without a query; and τ, the number of
  * consecutive NO answers after which the loop moves to the next pool.
  */
sealed abstract class Strategy private[core] (
    val label: String,
    private[core] val pools: Vector[Strategy.Pool],
    private[core] val key: Strategy.Key,
    private[core] val benefitFilter: Boolean = false,
    private[core] val switchAfter: Int = Int.MaxValue)

object Strategy {
  private[core] sealed trait Pool
  /** Parents/children of answered rules (Alg. 3). */
  private[core] case object Local extends Pool
  /** Alg. 2 candidates over the current P, regenerated after every YES. */
  private[core] case object Universal extends Pool

  private[core] sealed trait Key
  /** Σ_{s ∈ C_r \ P} p_s, ties to more fresh sentences (§3.3). */
  private[core] case object Benefit extends Key
  /** Benefit per fresh sentence, ties to higher benefit. */
  private[core] case object AvgBenefit extends Key
  /** |C_r|. */
  private[core] case object Coverage extends Key

  /** Alg. 3: explore parents/children of confirmed rules. */
  case object LocalSearch extends Strategy("LS", Vector(Local), Benefit)
  /** Alg. 4: best global benefit, skipping rules with avg benefit ≤ 0.5. */
  case object UniversalSearch
      extends Strategy("US", Vector(Universal), Benefit, benefitFilter = true)
  /** Alg. 5: toggle between the two after τ consecutive failures. */
  final case class HybridSearch(tau: Int = 5)
      extends Strategy("HS", Vector(Universal, Local), Benefit,
                       benefitFilter = true, switchAfter = tau)
  /** §4.3 baseline: query the rule with highest expected precision. */
  case object HighP extends Strategy("HighP", Vector(Universal), AvgBenefit)
  /** §4.3 baseline: query the rule with highest coverage. */
  case object HighC extends Strategy("HighC", Vector(Universal), Coverage)
}

final case class DarwinConfig(
    k: Int = 10000,                                  // candidates per hierarchy generation (paper: 10K)
    minAvgBenefit: Double = 0.5,                     // Alg. 4/5 per-instance benefit cutoff
    maxAskedJaccard: Double = 0.8,                   // §3.2 diversity: skip near-duplicates of asked rules
    classifier: Classifier.Config = Classifier.Config(),
    seed: Long = 42,
)

/** One oracle interaction: the rule asked, the answer, and the state of
  * the discovered positive set afterwards.
  */
final case class QueryEvent(query: Int, rule: String, answer: Boolean,
                            pSize: Int, recall: Double)

final case class DarwinResult(
    rules: Vector[String],
    positives: java.util.BitSet,
    trace: Vector[QueryEvent],
    model: Model,
) {
  def queries: Int = trace.length
  /** recall after each query, prefixed with the post-seed state at x=0. */
  def recallCurve(seedRecall: Double): Vector[(Int, Double)] =
    (0, seedRecall) +: trace.map(e => (e.query, e.recall))
  def finalRecall: Double = trace.lastOption.map(_.recall).getOrElse(0.0)
}

/** The Darwin driver (paper Algorithm 1): seed → iterate (candidate
  * generation → hierarchy traversal → oracle query → score update).
  *
  * Implementation notes (see DESIGN.md "Paper deviations"):
  *  - Alg. 4 line 10 typo corrected to `R ← R ∪ {r}, P ← P ∪ C_r`;
  *  - the budget counts oracle queries only — the UniversalSearch
  *    `avgBenefit ≤ 0.5` skip removes the rule without consuming budget;
  *  - HybridSearch's failure counter resets on a YES (the paper's stated
  *    intent: switch after τ *unsuccessful* attempts);
  *  - a pick that is not filtered is marked asked even when it is
  *    redundant and so never reaches the oracle.
  */
final class Darwin(prep: PreparedCorpus, oracle: RuleOracle,
                   cfg: DarwinConfig = DarwinConfig()) {

  /** Run from a seed labeling rule (must be indexed — i.e. have corpus
    * support within the index bounds).
    */
  def run(seedRule: String, budget: Int, strategy: Strategy): DarwinResult = {
    require(prep.index.contains(seedRule),
            s"seed rule '$seedRule' not in index for ${prep.name}")
    runLoop(Some(seedRule), prep.index.ids(seedRule), budget, strategy)
  }

  /** Run from a couple of labeled positive sentences instead of a rule. */
  def runFromPositives(seedIds: Array[Int], budget: Int, strategy: Strategy): DarwinResult =
    runLoop(None, seedIds, budget, strategy)

  // ------------------------------------------------------------------

  private def runLoop(seedRule: Option[String], seedIds: Array[Int],
                      budget: Int, strategy: Strategy): DarwinResult = {
    val index = prep.index
    val n     = prep.n

    val P = new java.util.BitSet(n)
    seedIds.foreach(P.set)
    val R     = mutable.ArrayBuffer.empty[String]
    seedRule.foreach(R += _)
    val asked = mutable.HashSet.empty[String]
    seedRule.foreach(asked += _) // the seed is pre-verified; never re-ask
    val trace = Vector.newBuilder[QueryEvent]

    var retrains = 0
    var model  = Model(new Array[Double](0), 0.0)
    var scores = new Array[Double](n)
    def retrain(): Unit = {
      model = Classifier.trainOnPositives(prep.features, P, n,
                                          cfg.seed + retrains, cfg.classifier)
      scores = Classifier.scoreAll(prep.features, model)
      retrains += 1
    }
    retrain()

    // benefit(r) = Σ_{s ∈ C_r \ P} p_s  (§3.3). Memoized: P and the scores
    // only change on an accepted rule (the cache is cleared there), while
    // pick() re-evaluates the whole pool every iteration.
    val statsCache = mutable.HashMap.empty[String, (Double, Int)]
    def stats(p: String): (Double, Int) = statsCache.getOrElseUpdate(p, {
      val ids = index.ids(p)
      var benefit = 0.0; var fresh = 0; var i = 0
      while (i < ids.length) {
        if (!P.get(ids(i))) { benefit += scores(ids(i)); fresh += 1 }
        i += 1
      }
      (benefit, fresh)
    })
    def avgBenefit(p: String): Double = {
      val (b, f) = stats(p); if (f == 0) 0.0 else b / f
    }

    // §3.2 diversity constraint: never spend a query on a rule whose
    // coverage is nearly identical to one already answered — the oracle
    // would give the same answer ("avoid having to evaluate many similar
    // candidate heuristics").
    val askedCoverages = mutable.ArrayBuffer.empty[Array[Int]]
    def jaccard(a: Array[Int], b: Array[Int]): Double = {
      var i = 0; var j = 0; var inter = 0
      while (i < a.length && j < b.length) {
        if (a(i) == b(j)) { inter += 1; i += 1; j += 1 }
        else if (a(i) < b(j)) i += 1
        else j += 1
      }
      val union = a.length + b.length - inter
      if (union == 0) 0.0 else inter.toDouble / union
    }
    def redundant(p: String): Boolean = {
      val ids = index.ids(p)
      askedCoverages.exists(jaccard(ids, _) >= cfg.maxAskedJaccard)
    }

    def regen(): mutable.LinkedHashSet[String] =
      mutable.LinkedHashSet.from(
        CandidateGen.cleanup(index, P, CandidateGen.generate(index, P, cfg.k))
          .filterNot(asked))

    val key: String => (Double, Double) = strategy.key match {
      case Strategy.Benefit    => p => { val (b, f) = stats(p); (b, f.toDouble) }
      case Strategy.AvgBenefit => p => (avgBenefit(p), stats(p)._1)
      case Strategy.Coverage   => p => (index.count(p).toDouble, 0.0)
    }
    /** argmax over a candidate pool with deterministic tie-breaking. */
    def pick(pool: Iterable[String]): Option[String] =
      pool.foldLeft(Option.empty[(String, (Double, Double))]) { (best, p) =>
        val k = key(p)
        best match {
          case Some((bp, bk))
            if bk._1 > k._1 || (bk._1 == k._1 && (bk._2 > k._2 ||
              (bk._2 == k._2 && bp <= p))) => best
          case _ => Some((p, k))
        }
      }.map(_._1)

    def accept(r: String): Unit = {
      if (!R.contains(r)) R += r
      index.ids(r).foreach(P.set)
      retrain()
      statsCache.clear()
    }
    def askOracle(r: String): Boolean = {
      askedCoverages += index.ids(r)
      oracle.query(index.ids(r))
    }
    def record(r: String, answer: Boolean): Unit =
      trace += QueryEvent(oracle.queries, r, answer, P.cardinality(), prep.recall(P))

    val usesLocal     = strategy.pools.contains(Strategy.Local)
    val usesUniversal = strategy.pools.contains(Strategy.Universal)

    val local = mutable.LinkedHashSet.empty[String]
    def addLocalParents(r: String): Unit =
      index.parents(r).filterNot(asked).foreach(local += _)
    def addLocalChildren(r: String): Unit =
      index.children(r).filterNot(asked).foreach(local += _)
    if (usesLocal) seedRule match {
      // Alg. 3: the seed is pre-verified, so expand its neighborhood directly.
      case Some(r) => addLocalParents(r); addLocalChildren(r)
      // Rule-less start: anchor on the indexed rule with the highest
      // coverage over the seed positives (Alg. 2 would surface it first).
      case None => CandidateGen.generate(index, P, 1).foreach(local += _)
    }
    var universal =
      if (usesUniversal) regen() else mutable.LinkedHashSet.empty[String]

    // One loop for every strategy. `mode` indexes strategy.pools; τ
    // consecutive *oracle failures* move to the next pool (paper §3.6: the
    // number of unsuccessful attempts before the switch happens), and so
    // does an empty pool. The loop ends when every pool is empty in a row.
    var mode      = 0
    var attempt   = 0
    var exhausted = 0
    def nextMode(): Unit = { mode = (mode + 1) % strategy.pools.length; attempt = 0 }
    while (oracle.queries < budget && exhausted < strategy.pools.length) {
      if (attempt > strategy.switchAfter) nextMode()
      val inUniversal = strategy.pools(mode) == Strategy.Universal
      val pool = if (inUniversal) universal else local
      // §3.2 cleanup on the local pool: a rule whose coverage is inside P
      // cannot add positives, so drop it without spending a query. The
      // universal pool is rebuilt with that cleanup after every YES, the
      // only time P grows.
      if (!inUniversal) local.filterInPlace(p => stats(p)._2 > 0)
      if (pool.isEmpty) {
        nextMode(); exhausted += 1
      } else {
        exhausted = 0
        val r = pick(pool).get
        if (inUniversal && strategy.benefitFilter && avgBenefit(r) <= cfg.minAvgBenefit) {
          universal -= r // filtered: not asked, not an attempt, not a query
        } else {
          universal -= r; local -= r; asked += r
          if (!redundant(r)) {
            val yes = askOracle(r)
            if (yes) {
              attempt = 0
              accept(r)
              if (usesLocal) addLocalParents(r)
              if (usesUniversal) universal = regen()
            } else {
              attempt += 1
              if (usesLocal) addLocalChildren(r)
            }
            record(r, yes)
          }
        }
      }
    }

    DarwinResult(R.toVector, P, trace.result(), model)
  }
}
