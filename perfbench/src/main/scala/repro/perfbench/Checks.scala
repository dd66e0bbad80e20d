package repro.perfbench

import repro.core.{DarwinResult, PreparedCorpus}
import repro.data.{DatasetSpec, SplitMix}
import repro.grammar.Heuristic
import repro.text.Pipeline
import scala.collection.mutable

/** Output checks. Each returns the problem it found, if any. */
object Checks {
  /** Check (b) samples this many index entries, with this PRNG seed. */
  private val PostingSample = 200
  private val PostingSeed   = 7L

  /** (a) The weak-positive count of rule application equals the union of
    * the index coverage of the rules Darwin discovered.
    */
  def weakCount(applied: Long, prep: PreparedCorpus, rules: Seq[String]): Option[String] = {
    val union = new java.util.BitSet(prep.n)
    rules.foreach(r => prep.index.ids(r).foreach(union.set))
    val want = union.cardinality().toLong
    if (applied == want) None
    else Some(s"${prep.name}: rule application found $applied weak positives, index coverage union is $want")
  }

  /** (b) Postings are sound: on a fixed sample of index entries every
    * listed sentence matches the entry's heuristic when parsed afresh.
    * Each sentence is regenerated and parsed once.
    */
  def postings(prep: PreparedCorpus, spec: DatasetSpec): Option[String] = {
    val picks = prep.index.entries.keys.toArray.sorted
    val rng   = new SplitMix(PostingSeed)
    for (i <- 0 until math.min(PostingSample, picks.length)) { // partial Fisher–Yates
      val j = i + rng.nextInt(picks.length - i)
      val p = picks(i); picks(i) = picks(j); picks(j) = p
    }
    val byId  = mutable.LongMap.empty[mutable.ArrayBuffer[Heuristic]]
    for (p <- picks.take(PostingSample); h = Heuristic.parse(p); id <- prep.index.ids(p))
      byId.getOrElseUpdate(id.toLong, mutable.ArrayBuffer.empty) += h
    val bad = byId.iterator.flatMap { case (id, hs) =>
      val parsed = Pipeline.parse(spec.sentence(id)._1)
      hs.filterNot(_.matches(parsed)).map(h => s"${h.repr} lists sentence $id")
    }.take(3).toSeq
    if (bad.isEmpty) None else Some(s"${prep.name}: unsound postings: ${bad.mkString("; ")}")
  }

  /** (c) Queries stay within the budget, the oracle saw exactly the traced
    * queries, and |P| never shrinks along the trace.
    */
  def trace(res: DarwinResult, budget: Int, oracleCalls: Int): Option[String] = {
    val sizes = res.trace.map(_.pSize)
    if (res.queries > budget) Some(s"${res.queries} queries exceed budget $budget")
    else if (oracleCalls != res.queries) Some(s"oracle saw $oracleCalls queries, trace has ${res.queries}")
    else if (sizes.zip(sizes.drop(1)).exists { case (a, b) => b < a }) Some(s"|P| shrinks along the trace: $sizes")
    else None
  }

  /** (d) The bench gates: recall above ``min``. */
  def recall(what: String, recall: Double, min: Double): Option[String] =
    if (recall > min) None else Some(f"$what: recall $recall%.3f is not above $min")

  /** (d) Fig. 9 gate: HS reaches recall 0.8 on at least three datasets. */
  def hsCoverage(hsRecall: Map[String, Double]): Option[String] =
    if (hsRecall.count(_._2 >= 0.8) >= 3) None
    else Some(s"HS reaches recall 0.8 on fewer than 3 datasets: $hsRecall")

  /** (e) The seed rule is indexed in the (salted) corpus. */
  def seedIndexed(prep: PreparedCorpus, seedRule: String): Option[String] =
    if (prep.index.contains(seedRule)) None
    else Some(s"${prep.name}: seed rule '$seedRule' is not indexed")
}
