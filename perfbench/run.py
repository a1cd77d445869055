#!/usr/bin/env python3
"""Entity-resolution benchmark: builds the program from this checkout's
sources, then runs one workload in a JVM.

    python3 perfbench/run.py --workload clean-sweep-knn --seed 1 --seconds 15 --trace 0

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. A full record (environment,
every rep time, spans) goes to .bench_build/results/.

    python3 perfbench/run.py --all [--seed N] [--seconds S]

runs every workload untraced and traced and prints a summary with the
tracing overhead.

    python3 perfbench/run.py --test

runs the benchmark's own tests (seed determinism).

The build (sbt, offline) happens on the first run and again whenever a
source or build file changes; later runs start the JVM directly.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
import zipfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
ARCHIVE = os.path.join(BUILD_DIR, "classes.jsa")
WORKLOADS = ["clean-sweep-knn", "clean-e2e-s5", "dirty-lsh"]
JVM_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
# Local-mode executors share the driver heap. The parallel collector has no
# concurrent GC threads competing with the N task threads for N cores.
JVM_FLAGS = ["-Xmx2g", "-XX:+UseParallelGC", "-XX:-UsePerfData"]


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def sources():
    """Every file whose change requires a rebuild, in a stable order."""
    out = []
    for rel in ["build.sbt", "project/build.properties",
                "perfbench/build.sbt", "perfbench/project/build.properties"]:
        out.append(os.path.join(ROOT, rel))
    for rel in ["src/main", "jobs", "perfbench/src"]:
        for d, _, files in sorted(os.walk(os.path.join(ROOT, rel))):
            out.extend(os.path.join(d, f) for f in sorted(files))
    return out


def fingerprint():
    h = hashlib.sha256()
    for path in sources():
        h.update(path.encode())
        if os.path.isfile(path):
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def run_child(cmd, cwd, env, timeout, on_line):
    """Runs a child process, feeding each stdout line to `on_line`; kills
    it (and waits for it) on timeout or interrupt."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                            stderr=None, text=True, start_new_session=True)
    timer = None
    try:
        timer = threading.Timer(timeout, lambda: os.killpg(proc.pid, signal.SIGKILL))
        timer.start()
        for line in proc.stdout:
            on_line(line.rstrip("\n"))
        return proc.wait()
    finally:
        if timer:
            timer.cancel()
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def tool_env():
    env = dict(os.environ)
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["SBT_OPTS"] = (env.get("SBT_OPTS", "") + f" -Djava.io.tmpdir={tmp} -XX:-UsePerfData").strip()
    return env


def sbt(*tasks, timeout=BUILD_TIMEOUT_S, on_line=None):
    cmd = ["sbt", "--batch", "-Dsbt.server.autostart=false", "-Dsbt.log.noformat=true", *tasks]
    lines = []
    code = run_child(cmd, BENCH_DIR, tool_env(), timeout,
                     on_line or (lambda l: lines.append(l)))
    return code, lines


def pack(directory, jar):
    """Zips a class directory into a jar: the class-data archive accepts
    only jars on the class path."""
    with zipfile.ZipFile(jar, "w") as z:
        for d, _, files in sorted(os.walk(directory)):
            for f in sorted(files):
                path = os.path.join(d, f)
                z.write(path, os.path.relpath(path, directory))


def java(cp, *args, archive=None):
    flags = list(JVM_FLAGS)
    if archive:
        flags.append(archive)
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return ["java", *flags, f"-Djava.io.tmpdir={tmp}",
            f"-Dspark.local.dir={os.path.join(BUILD_DIR, 'spark-local')}",
            "-cp", cp, "perfbench.Main", *args]


def build():
    """Compiles the program and the benchmark if needed, packs the classes
    into jars and records a class-data archive; returns the class path."""
    key_path = os.path.join(BUILD_DIR, "build.key")
    cp_path = os.path.join(BUILD_DIR, "classpath")
    key = fingerprint()
    if os.path.isfile(cp_path) and os.path.isfile(key_path):
        with open(key_path) as f:
            if f.read() == key:
                with open(cp_path) as g:
                    return g.read().strip()
    print("run.py: building the program and the benchmark", file=sys.stderr)
    code, lines = sbt("compile", "export Runtime/fullClasspath")
    if code != 0 or not lines:
        sys.stderr.write("\n".join(lines[-40:]) + "\n")
        fail(f"build failed (sbt exit code {code})")
    jar_dir = os.path.join(BUILD_DIR, "jars")
    os.makedirs(jar_dir, exist_ok=True)
    entries = []
    for i, entry in enumerate(lines[-1].strip().split(os.pathsep)):
        if os.path.isdir(entry):
            jar = os.path.join(jar_dir, f"{i}.jar")
            pack(entry, jar)
            entry = jar
        entries.append(entry)
    cp = os.pathsep.join(entries)
    # A JVM loads Spark's classes in seconds; from the archive in a fraction.
    if os.path.exists(ARCHIVE):
        os.remove(ARCHIVE)
    code = run_child(java(cp, "--train", archive=f"-XX:ArchiveClassesAtExit={ARCHIVE}"),
                     ROOT, dict(os.environ), BUILD_TIMEOUT_S, lambda line: None)
    if code != 0:
        fail(f"the class-data training run failed (exit code {code})")
    with open(cp_path, "w") as f:
        f.write(cp)
    with open(key_path, "w") as f:
        f.write(key)
    return cp


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def valid_result(line, workload, trace):
    """The parsed result, or None and why not. A workload listed in
    BENCHMARK.json must print exactly its metric set; another one (dirty-lsh)
    prints that set plus the metrics of its own layers."""
    try:
        res = json.loads(line)
    except ValueError:
        return None, "the last line is not JSON"
    if not isinstance(res, dict) or set(res) != {"correct", "attempted", "failed", "metrics"}:
        return None, "the result object has the wrong keys"
    s = spec()
    want = {m["name"] for m in s["per_layer" if trace else "end_to_end"]}
    got = set(res["metrics"])
    listed = workload in {w["name"] for w in s["workloads"]}
    if want - got or (listed and got - want):
        return None, f"metrics differ from BENCHMARK.json: missing {sorted(want - got)}, extra {sorted(got - want)}"
    return res, None


def run_workload(cp, workload, seed, seconds, trace, echo=True):
    """Runs one workload; returns the result object, or exits non-zero."""
    out = os.path.join(BUILD_DIR, "results", f"{workload}-s{seed}-t{trace}.json")
    archive = f"-XX:SharedArchiveFile={ARCHIVE}" if os.path.exists(ARCHIVE) else None
    cmd = java(cp, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace), "--out", out, "--git-sha", git_sha(), archive=archive)
    held = []

    def on_line(line):
        # hold back the newest line: it is printed only if it is a valid result
        if held and echo:
            print(held[-1], flush=True)
        held[:] = [line]

    code = run_child(cmd, ROOT, dict(os.environ), JVM_TIMEOUT_S, on_line)
    if code != 0 or not held:
        fail(f"{workload} exited with code {code}")
    res, why = valid_result(held[-1], workload, trace)
    if res is None:
        fail(f"{workload}: {why}")
    if echo:
        print(held[-1], flush=True)
    return res


def record(workload, seed, trace):
    with open(os.path.join(BUILD_DIR, "results", f"{workload}-s{seed}-t{trace}.json")) as f:
        return json.load(f)


def summary(seed, seconds, cp):
    """Runs every workload untraced and traced; prints both metric sets, the
    tracing overhead and the cross-run checks. Returns True if all hold."""
    ok = True
    for w in WORKLOADS:
        plain = run_workload(cp, w, seed, seconds, 0, echo=False)
        traced = run_workload(cp, w, seed, seconds, 1, echo=False)
        print(f"\n== {w}  seed {seed}: {plain['attempted']} untraced reps ({plain['failed']} failed), "
              f"{traced['attempted']} traced reps ({traced['failed']} failed)")
        for name, m in list(plain["metrics"].items()) + list(traced["metrics"].items()):
            print(f"  {name:34s} {m['value']:16.6f} {m['unit']}")
        rep = plain["metrics"]["rep_s"]["value"]
        over = traced["metrics"]["trace.rep_s"]["value"] - rep
        print(f"  {'tracing overhead':34s} {over:16.6f} s ({100 * over / rep:+.1f}% of rep_s)")
        same = record(w, seed, 0)["reference"] == record(w, seed, 1)["reference"]
        print(f"  traced and untraced quality values and candidate counts agree: {same}")
        ok = ok and same and plain["correct"] and traced["correct"]
        layer = {k: m["value"] for k, m in traced["metrics"].items()}
        if w in ("clean-sweep-knn", "clean-e2e-s5"):
            knn, vec = layer["blocking.knn_s"], layer["embed.vectorize_s"]
            print(f"  blocking.knn_s / embed.vectorize_s = {knn / vec:.2f}")
    return ok


def main():
    # turn a termination request into an exception, so children are killed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    ap.add_argument("--test", action="store_true", help="run the benchmark's own tests")
    a = ap.parse_args()

    for rel in ["build.sbt", "src/main/scala", "BENCHMARK.json"]:
        if not os.path.exists(os.path.join(ROOT, rel)):
            fail(f"{rel} not found at {ROOT}: run from a full checkout of the repository")
    os.makedirs(BUILD_DIR, exist_ok=True)

    if a.test:
        code, _ = sbt("test", on_line=print)
        sys.exit(code)
    cp = build()
    if a.all:
        sys.exit(0 if summary(a.seed, a.seconds, cp) else 1)
    if not a.workload:
        fail("--workload, --all or --test is required")
    run_workload(cp, a.workload, a.seed, a.seconds, a.trace)


if __name__ == "__main__":
    main()
