package repro.perfbench

import repro.core.RuleOracle
import scala.collection.mutable

/** One oracle call as seen from outside the Darwin loop. */
final case class OracleCall(startNs: Long, endNs: Long, answer: Boolean)

/** A [[RuleOracle]] decorator that records when each query is asked, when
  * it is answered and the answer, leaving the answers and the query count
  * exactly those of the wrapped oracle.
  */
final class TimingOracle(inner: RuleOracle) extends RuleOracle {
  private val log = mutable.ArrayBuffer.empty[OracleCall]

  def query(coverage: Array[Int]): Boolean = {
    val t0  = System.nanoTime()
    val ans = inner.query(coverage)
    log += OracleCall(t0, System.nanoTime(), ans)
    ans
  }

  def queries: Int = inner.queries
  def calls: Seq[OracleCall] = log.toSeq
}

/** The annotator's waits of one loop, in milliseconds. */
final case class Waits(yes: Seq[Double], no: Seq[Double], insideUs: Seq[Double])

object Waits {
  /** The wait after each answer lasts from the oracle's return to the next
    * oracle call, or to ``loopEndNs`` for the last answer.
    */
  def of(calls: Seq[OracleCall], loopEndNs: Long): Waits = {
    val next = calls.drop(1).map(_.startNs) :+ loopEndNs
    val waits = calls.zip(next).map { case (c, t) => (c.answer, (t - c.endNs) / 1e6) }
    Waits(waits.collect { case (true, w) => w }, waits.collect { case (false, w) => w },
          calls.map(c => (c.endNs - c.startNs) / 1e3))
  }
}
