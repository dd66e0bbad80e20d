"""Run-to-run spread of the benchmark, and the overhead of tracing.

    python3 perfbench/spread.py --workload <name> --seeds 1-10 [--seconds S] [--overhead]

Runs the workload once per seed, untraced, and prints for every end-to-end
metric its median and the distance between the first and third quartile
as a share of the median, next to the bound in BENCHMARK.json. With
--overhead it also makes one traced run per seed and compares the traced
phase spans (span.setup_s, span.loop_s, span.label_s) with the untraced
medians of setup_s, loop_s and label_s.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(spec: str) -> list:
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    last = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else ""
    if p.returncode != 0 or not last.startswith("{"):
        sys.exit(f"run failed (seed {seed}, trace {trace}):\n{p.stdout[-2000:]}\n{p.stderr[-2000:]}")
    res = json.loads(last)
    if not res["correct"]:
        print(f"seed {seed} trace {trace}: correct=false", file=sys.stderr)
    return {k: v["value"] for k, v in res["metrics"].items()}


def spread(xs: list) -> float:
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return (q3 - q1) / statistics.median(xs)


def main() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--overhead", action="store_true")
    a = ap.parse_args()
    ss = seeds(a.seeds)
    runs = []
    for s in ss:
        runs.append(run(a.workload, s, a.seconds, 0))
        print(f"seed {s}: " + " ".join(f"{k}={v:.4g}" for k, v in runs[-1].items()), flush=True)
    print(f"\n{a.workload}, {len(ss)} seeds")
    for m in bench["end_to_end"]:
        xs = [r[m["name"]] for r in runs]
        sp = spread(xs)
        flag = "" if sp < m["bound"] / 3 else ("  (above bound/3)" if sp <= m["bound"] else "  (ABOVE BOUND)")
        print(f"  {m['name']:<20} median {statistics.median(xs):<12.5g} spread {sp:.4f}"
              f"  bound {m['bound']}{flag}")
    if a.overhead:
        traced = [run(a.workload, s, a.seconds, 1) for s in ss]
        print("\ntracing overhead (traced span median vs untraced median)")
        for phase in ("setup_s", "loop_s", "label_s"):
            base = statistics.median(r[phase] for r in runs)
            span = statistics.median(r[f"span.{phase}"] for r in traced)
            print(f"  {phase:<8} untraced {base:.4g} s  traced {span:.4g} s  "
                  f"overhead {100 * (span / base - 1):+.1f}%")


if __name__ == "__main__":
    main()
