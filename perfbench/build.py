"""Build file of the benchmark: compiles the program (src/main/scala) and
the benchmark's own sources (perfbench/src/main/scala) with the Scala
compiler that ships in Spark's jars, into .bench_build/classes.

    python3 perfbench/build.py        # compile if any source changed

The compile is skipped when the SHA-256 of every source matches the last
build. Everything it writes stays under .bench_build/.
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
CLASSES = BUILD / "classes"
SOURCE_DIRS = [ROOT / "src" / "main" / "scala", ROOT / "perfbench" / "src" / "main" / "scala"]


def spark_jars() -> Path:
    return Path(os.environ.get("SPARK_HOME", "/opt/spark")) / "jars"


def sources() -> list:
    missing = [d for d in SOURCE_DIRS if not d.is_dir()]
    if missing:
        raise SystemExit(f"perfbench: source directory not found: {missing[0]}")
    return sorted(p for d in SOURCE_DIRS for p in d.rglob("*.scala"))


def digest(files) -> str:
    h = hashlib.sha256()
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


def build() -> str:
    """Compile if needed; returns the source digest."""
    files = sources()
    sha = digest(files)
    stamp = BUILD / "classes.sha256"
    if CLASSES.is_dir() and stamp.is_file() and stamp.read_text() == sha:
        return sha
    jars = spark_jars()
    if not jars.is_dir():
        raise SystemExit(f"perfbench: Spark jars not found at {jars} (set SPARK_HOME)")
    tmp = BUILD / "classes.tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    cmd = ["java", "-Xss8m", "-Xmx2g", "-cp", str(jars / "*"), "scala.tools.nsc.Main",
           "-usejavacp", "-nowarn", "-d", str(tmp)] + [str(f) for f in files]
    print(f"perfbench: compiling {len(files)} sources", file=sys.stderr)
    if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
        raise SystemExit("perfbench: compilation failed")
    shutil.rmtree(CLASSES, ignore_errors=True)
    tmp.rename(CLASSES)
    stamp.write_text(sha)
    return sha


if __name__ == "__main__":
    print(build())
