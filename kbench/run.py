#!/usr/bin/env python3
"""Builds the kboost benchmark from source, then runs one workload.

    python3 kbench/run.py --workload serve_full --seed 1 --seconds 20 --trace 0
    python3 kbench/run.py --self-test

--self-test runs the benchmark's unit tests (kbench_test), then a tiny-scale
smoke of every workload, untraced and traced, checked against
BENCHMARK.json: the last line is the result object, every answer correct,
with exactly the declared end-to-end metrics untraced and the declared
per-layer metrics traced.

Run from the repository root. The build goes to $CARGO_TARGET_DIR when set,
else .bench_build; snapshots, span logs and result records go to
.bench_out. Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. Exits non-zero, printing no result, when the build
or the set-up fails.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def source_id():
    """git:<sha> in a git checkout, else a hash of the sources built."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        if out.returncode == 0:
            return "git:" + out.stdout.strip()
    digest = hashlib.sha256()
    for base in ("src", "kbench"):
        for dirpath, dirs, files in os.walk(os.path.join(ROOT, base)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def build(build_dir, target):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if (not os.path.exists(os.path.join(build_dir, "CMakeCache.txt"))
            and shutil.which("ninja")):
        configure += ["-G", "Ninja"]
    for cmd in (configure,
                ["cmake", "--build", build_dir, "--target", target,
                 "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, check=False).returncode:
            sys.exit("kbench: build failed: " + " ".join(cmd))
    return os.path.join(build_dir, target)


def check_contract(binary, out_dir):
    """Tiny runs of every workload must print what BENCHMARK.json declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {"0": {m["name"]: m["unit"] for m in bench["end_to_end"]},
                "1": {m["name"]: m["unit"] for m in bench["per_layer"]}}
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in ("0", "1"):
            out = subprocess.run(
                [binary, "--workload", workload, "--seed", "5", "--seconds",
                 "0.3", "--trace", trace, "--scale-factor", "0.1",
                 "--out-dir", out_dir],
                cwd=ROOT, capture_output=True, text=True, check=False,
                timeout=RUN_TIMEOUT_S)
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
            problems = []
            if out.returncode != 0:
                problems.append("exit %d" % out.returncode)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append("result keys %s" % sorted(result))
            if result.get("correct") is not True or result.get("failed"):
                problems.append("incorrect answers")
            if got != declared[trace]:
                problems.append("metrics differ from BENCHMARK.json: %s" %
                                sorted(set(got.items()) ^
                                       set(declared[trace].items())))
            if any(v["value"] == 0 for k, v in result.get("metrics", {}).items()
                   if trace == "0"):
                problems.append("an end-to-end metric reads 0")
            print("contract %-10s trace=%s: %s" %
                  (workload, trace, "; ".join(problems) or "ok"))
            ok = ok and not problems
    return ok


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or os.path.join(ROOT, ".bench_build"))
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    if sys.argv[1:] == ["--self-test"]:
        test = build(build_dir, "kbench_test")
        failed = subprocess.run([test], cwd=ROOT, check=False).returncode
        return failed or not check_contract(build(build_dir, "kbench"),
                                            out_dir)
    binary = build(build_dir, "kbench")
    cmd = [binary] + sys.argv[1:] + ["--source-id", source_id(),
                                     "--out-dir", out_dir]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              check=False).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("kbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
