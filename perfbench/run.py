#!/usr/bin/env python3
"""Run one benchmark workload of the RAMBO/BIGSI reproduction.

    python3 perfbench/run.py --workload kmer-query --seed 1 --seconds 10 --trace 0

Builds the benchmark (the repository's main sources plus perfbench/src) with
sbt when the sources changed since the last build, then runs the workload in
one JVM. Everything it writes stays under perfbench/: sbt output in target/,
results, spans, Spark local files and FASTA inputs in out/. The last line of
standard output is the JSON result.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
CLASSPATH = os.path.join(HERE, "target", "classpath.txt")
STAMP = os.path.join(OUT, "build.stamp")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170

JAVA_OPTS = [
    "-Xms3g",
    "-Xmx3g",
    "-Xmn1g",
    "-XX:+UseParallelGC",
    "-XX:-UsePerfData",
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
]


def fail(msg):
    print(f"[perfbench] {msg}", file=sys.stderr)
    sys.exit(2)


def source_files():
    """Every file the build reads, in a stable order."""
    roots = [os.path.join(ROOT, "src", "main", "scala"), os.path.join(HERE, "src", "main")]
    files = [os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    for r in roots:
        for d, _, names in os.walk(r):
            files += [os.path.join(d, n) for n in names]
    return sorted(files)


def source_stamp():
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def build(stamp):
    if os.path.exists(CLASSPATH) and os.path.exists(STAMP):
        with open(STAMP) as fh:
            if fh.read().strip() == stamp:
                return
    if shutil.which("sbt") is None:
        fail("sbt not found on PATH")
    os.makedirs(OUT, exist_ok=True)
    sbt_opts = [o for o in os.environ.get("SBT_OPTS", "").split() if o]
    tmp = os.path.join(OUT, "tmp")
    sbt_opts += [f"-Dsbt.global.base={os.path.join(OUT, 'sbt-global')}",
                 f"-Dsbt.ivy.home={os.path.join(OUT, 'ivy')}",
                 "-Dsbt.server.autostart=false",
                 "-XX:-UsePerfData",
                 f"-Djava.io.tmpdir={tmp}",
                 f"-Djna.tmpdir={tmp}"]
    os.makedirs(tmp, exist_ok=True)
    # JAVA_TOOL_OPTIONS reaches the JVMs the sbt launcher script starts on its own.
    env = dict(os.environ, SBT_OPTS=" ".join(sbt_opts), JAVA_TOOL_OPTIONS="-XX:-UsePerfData")
    print("[perfbench] building with sbt", file=sys.stderr)
    # Own process group, so a timeout also stops the JVM the sbt script starts.
    proc = subprocess.Popen(["sbt", "--batch", "-Dsbt.log.noformat=true", "writeClasspath"],
                            cwd=HERE, env=env, stdout=sys.stderr, stderr=sys.stderr,
                            start_new_session=True)
    try:
        proc.wait(timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("sbt build timed out")
    if proc.returncode != 0 or not os.path.exists(CLASSPATH):
        fail(f"sbt build failed with code {proc.returncode}")
    with open(STAMP, "w") as fh:
        fh.write(stamp)


def commit_id(stamp):
    """The checkout's git commit; a hash of the sources when it is not a git work tree."""
    def git(*args):
        r = subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else None
    try:
        top = git("rev-parse", "--show-toplevel")
        if top and os.path.realpath(top) == os.path.realpath(ROOT):
            return git("rev-parse", "HEAD") or f"source-sha256:{stamp[:16]}"
    except (OSError, subprocess.TimeoutExpired):
        pass
    return f"source-sha256:{stamp[:16]}"


def check_result(line):
    """The result line must hold exactly the four contract keys."""
    res = json.loads(line)
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"unexpected keys {sorted(res)}")
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        raise ValueError("attempted must be a positive integer")
    for name, m in res["metrics"].items():
        if set(m) != {"value", "unit"} or not isinstance(m["value"], (int, float)):
            raise ValueError(f"bad metric {name}: {m}")
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["kmer-query", "build", "fasta-e2e"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    if not os.path.isdir(os.path.join(ROOT, "src", "main", "scala", "repro")):
        fail(f"no program sources under {os.path.join(ROOT, 'src', 'main', 'scala')}")

    stamp = source_stamp()
    build(stamp)
    with open(CLASSPATH) as fh:
        classpath = fh.read().strip()
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = (["java"] + JAVA_OPTS +
           [f"-Djava.io.tmpdir={tmp}",
            f"-Dlog4j2.configurationFile={os.path.join(HERE, 'log4j2.properties')}",
            "-cp", classpath, "repro.perfbench.Main",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--out-dir", OUT, "--commit", commit_id(stamp)])
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"workload {args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = out.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1):
        sys.stdout.write(out)
        fail(f"benchmark JVM exited with code {proc.returncode}")
    try:
        check_result(lines[-1])
    except (ValueError, IndexError) as e:
        sys.stdout.write(out)
        fail(f"malformed result line: {e}")
    sys.stdout.write(out if out.endswith("\n") else out + "\n")
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
