package repro.perfbench

import repro.core.{CandidateGen, Classifier, DarwinConfig, DarwinResult, PreparedCorpus}
import repro.grammar.{Heuristic, SketchConfig, SketchExtractor}
import repro.index.HeuristicIndex
import repro.text.{Embeddings, Pipeline}

/** Per-layer probes of the traced run. Each times calls into one layer's
  * public functions from outside, single-threaded on the driver.
  */
object Layers {
  /** Results are folded in here so the JIT cannot drop the timed calls. */
  @volatile var sink: Long = 0L

  def seconds[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val r  = body
    (r, (System.nanoTime() - t0) / 1e9)
  }

  /** Median wall time of three repetitions, in microseconds. */
  private def medianUs(body: => Unit): Double =
    Stats.median(Seq.fill(3)(seconds(body)._2 * 1e6))

  /** Parse, features, sketch extraction and rule matching per sentence on
    * a fixed sample; ``rules`` are the rules a Darwin run discovered.
    * Sketches use the default config, as ``PreparedCorpus.prepare`` does.
    */
  def perSentence(t: Tally, texts: Array[String], rules: Seq[String]): Unit = {
    val cfg    = SketchConfig()
    val parsed = texts.map(Pipeline.parse)
    t.rate("text.parse_us", medianUs(texts.foreach(s => sink += Pipeline.parse(s).length)), texts.length)
    t.rate("text.features_us",
      medianUs(parsed.foreach(p => sink += Embeddings.features(p.tokens, p.pos).length)), parsed.length)
    t.rate("grammar.sketch_us",
      medianUs(parsed.foreach(p => sink += SketchExtractor.patterns(p, cfg).length)), parsed.length)
    t.rate("grammar.patterns_per_sentence",
      parsed.iterator.map(SketchExtractor.patterns(_, cfg).length.toDouble).sum, parsed.length)
    val hs = rules.map(Heuristic.parse)
    t.rate("grammar.match_us",
      medianUs(parsed.foreach(p => hs.foreach(h => if (h.matches(p)) sink += 1))),
      parsed.length.toDouble * hs.length)
  }

  /** Index shape, reassembly from entries, and the navigation calls the
    * loop makes: ``parents`` and ``posCount`` once per entry.
    */
  def index(t: Tally, prep: PreparedCorpus, positives: java.util.BitSet): Unit = {
    val idx     = prep.index
    val entries = idx.entries
    val keys    = entries.keys.toArray
    t.sum("index.entries", entries.size.toDouble)
    t.sum("index.postings", entries.valuesIterator.map(_.count.toDouble).sum)
    t.sum("index.from_entries_s", seconds(HeuristicIndex.fromEntries(prep.n, entries))._2)
    t.rate("index.parents_us", medianUs(keys.foreach(k => sink += idx.parents(k).length)), keys.length)
    t.rate("index.pos_count_us", medianUs(keys.foreach(k => sink += idx.posCount(k, positives))), keys.length)
  }

  /** Replays the per-YES work of a Darwin run at up to ``maxStates`` of its
    * accepted-rule states (|P| after the seed and after each accepted
    * rule): retrain, the negative sampler alone (zero epochs), scoreAll,
    * and candidate regeneration with cleanup. It uses the default config,
    * as the benchmark's Darwin runs do.
    */
  def replay(t: Tally, prep: PreparedCorpus, seedRule: String, res: DarwinResult,
             maxStates: Int): Unit = {
    val cfg      = DarwinConfig()
    val accepted = res.trace.filter(_.answer).map(_.rule)
    val nStates  = accepted.length + 1
    val picks    = if (nStates <= maxStates) 0 until nStates
                   else (0 until maxStates).map(i => i * (nStates - 1) / (maxStates - 1)).distinct
    for (j <- picks) {
      val p = new java.util.BitSet(prep.n)
      (seedRule +: accepted.take(j)).foreach(r => prep.index.ids(r).foreach(p.set))
      val (model, retrainS) = seconds(
        Classifier.trainOnPositives(prep.features, p, prep.n, cfg.seed + j, cfg.classifier))
      t.sample("core.retrain_ms", retrainS * 1e3)
      t.sample("core.neg_sample_ms", 1e3 * seconds(Classifier.trainOnPositives(
        prep.features, p, prep.n, cfg.seed + j, cfg.classifier.copy(epochs = 0)))._2)
      t.sample("core.score_all_ms", 1e3 * seconds(Classifier.scoreAll(prep.features, model))._2)
      val (cands, regenS) = seconds(
        CandidateGen.cleanup(prep.index, p, CandidateGen.generate(prep.index, p, cfg.k)))
      t.sample("core.regen_ms", regenS * 1e3)
      t.sample("core.regen_candidates", cands.length.toDouble)
    }
  }
}
