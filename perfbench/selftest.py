"""Self-test of the benchmark at tiny scale (seconds to run).

    python3 perfbench/selftest.py

Checks that the timing oracle leaves Darwin's traces unchanged, that
every workload emits every metric BENCHMARK.json names at ~2K sentences, and that dropping a discovered rule
before rule application trips the weak-count check.
"""

import subprocess
import sys

sys.dont_write_bytecode = True
import run  # noqa: E402


def main() -> int:
    sha = run.build.build()
    cmd = run.java_command("repro.perfbench.SelfTest", [], sha)
    return subprocess.run(cmd, cwd=run.build.ROOT, timeout=600).returncode


if __name__ == "__main__":
    sys.exit(main())
