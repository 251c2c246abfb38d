#!/usr/bin/env python3
"""Build and run the Set-I serving benchmark.

Usage, from the root of the repository:

    python3 strixbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds strixbench/ (a CMake package over ../src) into
$CARGO_TARGET_DIR/strixbench, default .bench_build/strixbench, then runs
the benchmark binary. Build output goes to stderr; the binary's stdout
passes through, so the last line is the result JSON. Each run also
leaves a full record (context, window detail, result) and, when traced,
a span file under .bench_build/results/ for compare.py.
"""

import hashlib
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def fail(msg, code=2):
    print(f"strixbench: {msg}", file=sys.stderr)
    sys.exit(code)


def parse(argv):
    args = {}
    it = iter(argv)
    for flag in it:
        if flag not in ("--workload", "--seed", "--seconds", "--trace"):
            fail(f"unknown flag {flag}")
        value = next(it, None)
        if value is None:
            fail(f"{flag} needs a value")
        args[flag[2:]] = value
    for key in ("workload", "seed", "seconds", "trace"):
        if key not in args:
            fail(f"missing --{key}")
    return args


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        if out.returncode == 0:
            return "git:" + out.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "strixbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree:" + digest.hexdigest()[:16]


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cfg = subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                              "-DCMAKE_BUILD_TYPE=Release"],
                             stdout=sys.stderr, stderr=sys.stderr,
                             check=False)
        if cfg.returncode != 0:
            fail("configure failed", 1)
    made = subprocess.run(["cmake", "--build", build_dir, "--target",
                           "strixbench", "-j", jobs],
                          stdout=sys.stderr, stderr=sys.stderr, check=False)
    if made.returncode != 0:
        fail("build failed", 1)
    return os.path.join(build_dir, "strixbench")


def main():
    args = parse(sys.argv[1:])
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to strixbench/")
    out_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                 ".bench_build"))
    binary = build(os.path.join(out_root, "strixbench"))
    results = os.path.join(out_root, "results")
    os.makedirs(results, exist_ok=True)
    tag = (f"{args['workload']}_s{args['seed']}_t{args['trace']}_"
           f"{time.time_ns()}")
    cmd = [binary, "--workload", args["workload"], "--seed", args["seed"],
           "--seconds", args["seconds"], "--trace", args["trace"],
           "--source-id", source_id(),
           "--record", os.path.join(results, tag + ".json")]
    if args["trace"] == "1":
        cmd += ["--spans", os.path.join(results, tag + ".spans.jsonl")]
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out", 3)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
