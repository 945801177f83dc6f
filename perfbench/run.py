#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run it from the root of a checkout. It builds perfbench/ (and with it the
repository's libraries from src/) into .bench_build/perfbench, runs the
workload in a fresh scratch directory under .bench_scratch/, removes that
directory afterwards and checks that nothing else in the checkout changed.
The last line of standard output is one JSON object with the keys
"correct", "attempted", "failed" and "metrics"; a "host:" line before it
records the machine and the build. Workloads are described in
perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SCRATCH_ROOT = os.path.join(ROOT, ".bench_scratch")
BINARY = os.path.join(BUILD_DIR, "presp_perfbench")
WORKLOADS = ("flow-cold", "flow-edit", "wami", "fleet")
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170
# Paths the benchmark itself owns; every other file of the checkout must be
# left exactly as it was found.
OWN = {".bench_build", ".bench_scratch", ".git"}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def pool_threads():
    return min(4, os.cpu_count() or 1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no repository sources next to perfbench/ (expected src/)")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    make = ["cmake", "--build", BUILD_DIR, "--target", "presp_perfbench",
            "-j", str(pool_threads())]
    if subprocess.run(make, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def snapshot():
    """Every path of the checkout outside the benchmark's own directories,
    with its size and modification time."""
    state = {}
    for top, dirs, files in os.walk(ROOT):
        if top == ROOT:
            dirs[:] = [d for d in dirs if d not in OWN]
        for name in files:
            path = os.path.join(top, name)
            try:
                st = os.lstat(path)
            except FileNotFoundError:
                continue
            state[os.path.relpath(path, ROOT)] = (st.st_size, st.st_mtime_ns)
        for name in dirs:
            state[os.path.relpath(os.path.join(top, name), ROOT) + "/"] = None
    return state


def source_digest():
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def host_block():
    sha = None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            sha = out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    compiler = "unknown"
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_CXX_COMPILER:"):
                cxx = line.split("=", 1)[1].strip()
                out = subprocess.run([cxx, "--version"], capture_output=True,
                                     text=True)
                compiler = (out.stdout.splitlines() or [cxx])[0]
    return {
        "nproc": os.cpu_count(),
        "pool_threads": pool_threads(),
        "compiler": compiler,
        "build_type": BUILD_TYPE,
        "git_sha": sha,
        "source_sha256": source_digest(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest configuration (benchmark tests)")
    parser.add_argument("--sabotage", default="",
                        help="break one output on purpose (benchmark tests)")
    args = parser.parse_args()

    build()
    before = snapshot()
    scratch = os.path.join(SCRATCH_ROOT, "run-%d" % os.getpid())
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch]
    if args.tiny:
        cmd.append("--tiny")
    if args.sabotage:
        cmd += ["--sabotage", args.sabotage]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload did not finish within %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(SCRATCH_ROOT)
        except OSError:
            pass
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail("workload exited with code %d" % proc.returncode)
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    after = snapshot()
    changed = sorted(p for p in set(before) | set(after)
                     if before.get(p, "absent") != after.get(p, "absent"))
    if changed:
        print("perfbench: the run touched files outside its scratch "
              "directory: " + ", ".join(changed[:10]), file=sys.stderr)
        result["failed"] += 1
        result["correct"] = False

    print("host: " + json.dumps(host_block(), sort_keys=True))
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    main()
