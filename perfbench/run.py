"""Darwin benchmark: runs one workload in a fresh JVM and prints its
metrics; the last line of standard output is the JSON result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of the repository. The first run compiles the program
from source (see build.py). Workloads and metrics are listed in
BENCHMARK.json and described in perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

HEAP = "2g"
TIMEOUT_S = 170
JVM_FLAGS = [
    "-Xss8m", "-XX:+UseG1GC", "-XX:-UsePerfData",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
] + [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")]


def commit() -> str:
    if not (build.ROOT / ".git").exists():
        return "unknown"
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=build.ROOT,
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def java_command(main: str, args: list, sha: str) -> list:
    work = build.BUILD
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    return ["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+AlwaysPreTouch"] + JVM_FLAGS + [
        f"-Djava.io.tmpdir={work / 'tmp'}",
        f"-Dlog4j2.configurationFile={build.ROOT / 'perfbench' / 'log4j2.properties'}",
        f"-Dperfbench.work={work}",
        f"-Dperfbench.commit={commit()}",
        f"-Dperfbench.source={sha}",
        "-cp", f"{build.CLASSES}{os.pathsep}{build.spark_jars() / '*'}",
        main] + args


def run_jvm(cmd: list, timeout: float) -> int:
    """Run ``cmd``, echo its output, and print its JSON result line last."""
    proc = subprocess.Popen(cmd, cwd=build.ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: timed out after {timeout:.0f} s", file=sys.stderr)
        return 124
    lines = out.splitlines()
    results = [l for l in lines if l.startswith('{"correct"')]
    for l in lines:
        if l not in results:
            print(l)
    if proc.returncode != 0 or not results:
        print(f"perfbench: JVM exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    print(results[-1], flush=True)
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    a = ap.parse_args()
    sha = build.build()
    return run_jvm(java_command("repro.perfbench.Main", [
        "--workload", a.workload, "--seed", str(a.seed),
        "--seconds", str(a.seconds), "--trace", a.trace], sha), TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
