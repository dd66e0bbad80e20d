package repro.perfbench

import com.fasterxml.jackson.databind.node.ObjectNode
import scala.collection.mutable

/** Order statistics used by every metric. */
object Stats {
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of an empty sample")
    val s = xs.sorted
    val m = s.length / 2
    if (s.length % 2 == 1) s(m) else (s(m - 1) + s(m)) / 2
  }

  def mean(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.length

  /** Harrell–Davis estimate of the ``p`` quantile: a Beta-weighted mean of
    * all order statistics. Unlike a single order statistic it stays put
    * when the sample has clusters, e.g. the first and the second YES wait
    * of every pipeline loop.
    */
  def hd(xs: Seq[Double], p: Double): Double = {
    require(xs.nonEmpty && p > 0 && p < 1, s"hd quantile $p of ${xs.length} samples")
    val s = xs.sorted.toArray
    val n = s.length
    val (a, b) = (p * (n + 1), (1 - p) * (n + 1))
    var prev, acc = 0.0
    for (i <- 1 to n) {
      val cur = org.apache.commons.math3.special.Beta.regularizedBeta(i.toDouble / n, a, b)
      acc += (cur - prev) * s(i - 1)
      prev = cur
    }
    acc
  }

  /** The tail level for ``n`` samples: the highest percentile with at
    * least ten samples beyond it, but never below p75. A pipeline run has
    * only about 20 YES waits, half of them second waits of a loop, so its
    * level is p75: the middle of the slower half.
    */
  def tailLevel(n: Int): Double = math.max(0.75, 1 - 10.0 / n)
}

/** Per-layer numbers pooled over the datasets and runs of a workload:
  * sums, per-item rates (Σ numerator / Σ items) and medians of samples.
  */
final class Tally {
  private val sums    = mutable.LinkedHashMap.empty[String, Double]
  private val rates   = mutable.LinkedHashMap.empty[String, (Double, Double)]
  private val samples = mutable.LinkedHashMap.empty[String, mutable.ArrayBuffer[Double]]

  def sum(name: String, v: Double): Unit = sums(name) = sums.getOrElse(name, 0.0) + v
  def rate(name: String, total: Double, items: Double): Unit = {
    val (t, i) = rates.getOrElse(name, (0.0, 0.0))
    rates(name) = (t + total, i + items)
  }
  def sample(name: String, v: Double): Unit =
    samples.getOrElseUpdate(name, mutable.ArrayBuffer.empty) += v

  def emit(report: Report): Unit = {
    sums.foreach { case (k, v) => report.put(k, v) }
    rates.foreach { case (k, (t, i)) => if (i > 0) report.put(k, t / i) }
    samples.foreach { case (k, xs) => report.put(k, Stats.median(xs.toSeq)) }
  }
}

/** Everything one benchmark run reports: named metrics, the operation
  * counts behind ``error_rate``, and free-form notes printed before the
  * result line.
  */
final class Report(quiet: Boolean = false) {
  private val metrics = mutable.LinkedHashMap.empty[String, Double]
  private val failures = mutable.ArrayBuffer.empty[String]
  private var ops = 0

  def put(name: String, value: Double): Unit = metrics(name) = value
  def get(name: String): Option[Double] = metrics.get(name)
  def names: Seq[String] = metrics.keys.toSeq

  def note(line: String): Unit = if (!quiet) println(line)

  /** Count one operation; it fails if ``body`` throws. */
  def attempt[A](what: String)(body: => A): Option[A] = {
    ops += 1
    try Some(body)
    catch {
      case scala.util.control.NonFatal(e) =>
        failures += s"$what: ${e.getClass.getSimpleName}: ${e.getMessage}"
        if (!quiet) { Console.err.println(s"[perfbench] $what failed"); e.printStackTrace() }
        None
    }
  }

  /** Count one output check; it fails if ``problem`` is defined. */
  def check(what: String)(problem: => Option[String]): Unit = {
    ops += 1
    val p = try problem catch {
      case scala.util.control.NonFatal(e) => Some(s"${e.getClass.getSimpleName}: ${e.getMessage}")
    }
    p.foreach(msg => failures += s"check $what: $msg")
  }

  def attempted: Int = ops
  def failed: Int = failures.length
  def failureMessages: Seq[String] = failures.toSeq

  /** The result line: exactly ``correct``, ``attempted``, ``failed`` and
    * ``metrics``, restricted to the (name, unit) pairs of ``defs`` in that
    * order.
    */
  def resultLine(defs: Seq[MetricDef]): String = {
    val ms = Json.mapper.createObjectNode()
    for (d <- defs; v <- metrics.get(d.name)) {
      require(!v.isNaN && !v.isInfinite, s"${d.name} is not a number: $v")
      ms.putObject(d.name).put("value", v).put("unit", d.unit)
    }
    val out = Json.mapper.createObjectNode()
      .put("correct", failed == 0 && ms.size == defs.length)
      .put("attempted", attempted)
      .put("failed", failed)
    out.set[ObjectNode]("metrics", ms)
    Json.mapper.writeValueAsString(out)
  }
}
