#!/usr/bin/env python3
"""Builds and runs the parparaw ledger benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Configures and builds perfbench/ (which compiles the library from src/)
into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is
unset, then runs the `ledger` binary with the given arguments. The traced
run also writes a Chrome trace to <build dir>/traces/. The binary's
standard output passes through unchanged; its last line is the result
JSON. Build output goes to <build dir>/build.log and, on failure, to
stderr; a failed build exits 2 without printing a result.
"""

import argparse
import fcntl
import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def run_logged(cmd, logfile):
    with open(logfile, "a") as out:
        out.write("$ " + " ".join(cmd) + "\n")
        out.flush()
        return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode


def build(out_dir):
    out_dir.mkdir(parents=True, exist_ok=True)
    logfile = out_dir / "build.log"
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    # One build at a time per build directory.
    with open(out_dir / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (out_dir / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out_dir),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(out_dir), "--target", "ledger",
                      "-j", jobs])
        for cmd in steps:
            if run_logged(cmd, logfile) != 0:
                tail = logfile.read_text(errors="replace").splitlines()[-40:]
                sys.stderr.write("\n".join(tail) + "\n")
                return None
    return out_dir / "ledger"


def source_id():
    """The git commit when run from a clone, else a digest of the sources."""
    if (ROOT / ".git").exists():
        try:
            head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, check=True)
            return head.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".h", ".cc", ".txt", ".py"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "tree-sha256:" + digest.hexdigest()[:16]


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="alter every reference to show the gate fails")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        log(f"library sources not found under {ROOT / 'src'}")
        return 2
    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        log(f"build failed; see {out_dir / 'build.log'}")
        return 2
    cmd = [str(binary), "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace,
           "--commit", source_id()]
    if args.trace == "1":
        traces = out_dir / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
