package repro.perfbench

import com.fasterxml.jackson.databind.ObjectMapper
import org.apache.spark.sql.SparkSession
import scala.jdk.CollectionConverters._

/** A metric as BENCHMARK.json defines it. */
final case class MetricDef(name: String, unit: String)

/** JSON in and out, with the Jackson that ships in Spark's jars. */
object Json {
  val mapper = new ObjectMapper()

  /** The metrics BENCHMARK.json lists under ``key`` (``end_to_end`` or
    * ``per_layer``), in its order. The file is read from the working
    * directory, the root of the checkout.
    */
  def metrics(key: String): Seq[MetricDef] =
    mapper.readTree(new java.io.File("BENCHMARK.json")).get(key).elements().asScala
      .map(m => MetricDef(m.get("name").asText, m.get("unit").asText)).toSeq

  def metrics(trace: Boolean): Seq[MetricDef] = metrics(if (trace) "per_layer" else "end_to_end")
}

final case class Opts(workload: String, seed: Long, seconds: Int, trace: Boolean)

object Opts {
  def parse(args: Array[String]): Opts = {
    val kv = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val o = Opts(need("workload"), need("seed").toLong, need("seconds").toInt,
                 need("trace") match {
                   case "0" => false
                   case "1" => true
                   case t   => throw new IllegalArgumentException(s"--trace must be 0 or 1, not $t")
                 })
    require(o.seed >= 0 && o.seconds >= 1, s"bad seed or seconds: $o")
    o
  }
}

/** Runs one workload and prints its metrics; the last line of standard
  * output is the JSON result.
  *
  *   Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  */
object Main {
  def session(): SparkSession = {
    val cores = Runtime.getRuntime.availableProcessors()
    val dir   = sys.props.getOrElse("perfbench.work", ".bench_build")
    SparkSession.builder
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", 64)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", s"$dir/spark-local")
      .config("spark.sql.warehouse.dir", s"$dir/spark-warehouse")
      .getOrCreate()
  }

  /** Start Spark and run the whole pipeline once on 20K sentences, so that
    * Spark code generation and JIT warm-up are not counted in any phase.
    * After a warm-up on 2K sentences, the first 100K prepare of a run
    * still took 5.1–5.4 s, against 3.3–4.3 s for the later ones.
    */
  def start(): (SparkSession, Double) = {
    val t0    = System.nanoTime()
    val spark = session()
    spark.sparkContext.setLogLevel("WARN")
    Pipeline("warm-up", 20000L, rounds = 1)
      .run(new Ctx(spark, 0L, new Report(quiet = true), None))
    (spark, (System.nanoTime() - t0) / 1e9)
  }

  def environment(spark: SparkSession, o: Opts): String = Json.mapper.writeValueAsString(
    Json.mapper.createObjectNode()
      .put("workload", o.workload)
      .put("seed", o.seed)
      .put("seconds", o.seconds)
      .put("trace", o.trace)
      .put("nproc", Runtime.getRuntime.availableProcessors())
      .put("driver_max_heap_mb", Runtime.getRuntime.maxMemory() / Workload.MB)
      .put("spark_master", spark.sparkContext.master)
      .put("spark_version", spark.version)
      .put("shuffle_partitions", spark.conf.get("spark.sql.shuffle.partitions"))
      .put("jvm", s"${sys.props("java.vm.name")} ${sys.props("java.runtime.version")}")
      .put("commit", sys.props.getOrElse("perfbench.commit", "unknown"))
      .put("source_sha256", sys.props.getOrElse("perfbench.source", "unknown")))

  /** Run ``o`` on a started session; returns the filled report. */
  def measure(spark: SparkSession, w: Workload, o: Opts, sessionS: Double): Report = {
    val report = new Report
    val jobs   = if (o.trace) Some(new JobMetrics(spark.sparkContext)) else None
    jobs.foreach(spark.sparkContext.addSparkListener)
    val ctx = new Ctx(spark, o.seed, report, jobs)
    val gc0 = Workload.gcSeconds()
    report.attempt(s"workload ${w.name}")(w.run(ctx))
    if (o.trace) {
      ctx.tally.sum("spark.session_s", sessionS)
      ctx.tally.sum("jvm.gc_s", Workload.gcSeconds() - gc0)
      ctx.tally.emit(report)
    }
    jobs.foreach(spark.sparkContext.removeSparkListener)
    report
  }

  def main(args: Array[String]): Unit = {
    val o = Opts.parse(args)
    val w = Workload.byName(o.workload)
    val (spark, sessionS) = start()
    try {
      println(s"environment ${environment(spark, o)}")
      val report = measure(spark, w, o, sessionS)
      val defs   = Json.metrics(o.trace)
      defs.filterNot(d => report.names.contains(d.name)).foreach(d => println(s"missing metric ${d.name}"))
      report.failureMessages.foreach(m => println(s"FAILED $m"))
      defs.foreach(d => report.get(d.name).foreach(v => println(f"metric ${d.name}%-32s $v ${d.unit}")))
      println(report.resultLine(defs))
    } finally spark.stop()
  }
}
