package repro.perfbench

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import scala.collection.mutable

/** Spark cost of one job: wall span and the task metrics of its stages. */
final case class JobCost(
    group: String,
    startMs: Long,
    endMs: Long,
    runMs: Long = 0,        // executorRunTime
    cpuNs: Long = 0,        // executorCpuTime
    shuffleWrite: Long = 0, // bytes
    shuffleRead: Long = 0,  // bytes
    memSpill: Long = 0,     // bytes
    diskSpill: Long = 0,    // bytes
) {
  def wallS: Double = (endMs - startMs) / 1e3
  def +(o: JobCost): JobCost = copy(
    startMs = math.min(startMs, o.startMs), endMs = math.max(endMs, o.endMs),
    runMs = runMs + o.runMs, cpuNs = cpuNs + o.cpuNs,
    shuffleWrite = shuffleWrite + o.shuffleWrite, shuffleRead = shuffleRead + o.shuffleRead,
    memSpill = memSpill + o.memSpill, diskSpill = diskSpill + o.diskSpill)
}

/** A listener that attributes each Spark job, and the task metrics of its
  * stages, to the job group the benchmark set around the call that ran it.
  * Jobs outside any group are ignored.
  */
final class JobMetrics(sc: SparkContext) extends SparkListener {
  private val stageJob = mutable.HashMap.empty[Int, Int]
  private val jobs     = mutable.LinkedHashMap.empty[Int, JobCost]
  private var fenceSeen = false

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id")))
      .foreach { g =>
        jobs(e.jobId) = JobCost(g, e.time, e.time)
        e.stageIds.foreach(stageJob(_) = e.jobId)
      }
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    for (j <- stageJob.get(e.stageInfo.stageId); c <- jobs.get(j)) {
      val m = e.stageInfo.taskMetrics
      if (m != null) jobs(j) = c.copy(
        runMs = c.runMs + m.executorRunTime,
        cpuNs = c.cpuNs + m.executorCpuTime,
        shuffleWrite = c.shuffleWrite + m.shuffleWriteMetrics.bytesWritten,
        shuffleRead = c.shuffleRead + m.shuffleReadMetrics.totalBytesRead,
        memSpill = c.memSpill + m.memoryBytesSpilled,
        diskSpill = c.diskSpill + m.diskBytesSpilled)
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobs.get(e.jobId).foreach { c =>
      jobs(e.jobId) = c.copy(endMs = e.time)
      if (c.group == JobMetrics.Fence) { fenceSeen = true; notifyAll() }
    }
  }

  /** Run ``body`` with its Spark jobs attributed to ``group``. */
  def inGroup[A](group: String)(body: => A): A = {
    sc.setJobGroup(group, group, interruptOnCancel = false)
    try body finally sc.clearJobGroup()
  }

  /** Block until every event posted before this call has been delivered:
    * the listener bus is ordered, so a tiny job's end arriving means all
    * earlier jobs and stages have been seen.
    */
  def drain(): Unit = {
    synchronized { fenceSeen = false }
    inGroup(JobMetrics.Fence)(sc.parallelize(Seq(1), 1).count())
    synchronized {
      val deadline = System.currentTimeMillis() + 30000
      while (!fenceSeen && System.currentTimeMillis() < deadline) wait(100)
      require(fenceSeen, "Spark listener bus did not drain within 30 s")
    }
  }

  /** Jobs of ``group`` in submission order. */
  def jobsOf(group: String): Seq[JobCost] = synchronized {
    jobs.values.filter(_.group == group).toSeq
  }

  def total(group: String): Option[JobCost] = jobsOf(group).reduceOption(_ + _)
}

object JobCost {
  /** Wall seconds covered by at least one of ``jobs`` (jobs may overlap). */
  def coveredS(jobs: Seq[JobCost]): Double = {
    var covered, end = 0L
    for (j <- jobs.sortBy(_.startMs)) {
      covered += math.max(0L, j.endMs - math.max(j.startMs, end))
      end = math.max(end, j.endMs)
    }
    covered / 1e3
  }
}

object JobMetrics {
  val Fence = "perfbench-fence"
}
