#!/usr/bin/env python3
"""Build and run the benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload ssb-local --seed 1 --seconds 10 --trace 0

Builds perfbench/ (and the library from src/) with CMake in Release mode
into the directory named by CARGO_TARGET_DIR, or .bench_build, then runs
the perfbench binary with the given arguments. The binary's last stdout
line is the JSON result. `--selftest` builds and runs the benchmark's own
tests instead. See perfbench/README.md.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def cmake(args, cwd):
    # Build chatter goes to stderr: stdout's last line must be the result.
    done = subprocess.run(["cmake", *args], cwd=cwd, stdout=sys.stderr,
                          stderr=sys.stderr)
    if done.returncode != 0:
        fail(f"cmake {' '.join(args)} failed")


def main():
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "service" / "database.h").is_file():
        fail(f"no costdb sources under {root / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")

    build_root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_root.is_absolute():
        build_root = root / build_root
    build = build_root / "perfbench"
    jobs = str(min(4, os.cpu_count() or 1))
    cmake(["-S", str(root / "perfbench"), "-B", str(build),
           "-DCMAKE_BUILD_TYPE=Release"], root)

    args = sys.argv[1:]
    if args == ["--selftest"]:
        cmake(["--build", str(build), "-j", jobs, "--target", "perfbench_test"],
              root)
        # The tests write their spill files under the build directory.
        sys.exit(subprocess.run([str(build / "perfbench_test")],
                                cwd=build).returncode)

    cmake(["--build", str(build), "-j", jobs, "--target", "perfbench"], root)

    # Object-store spill files and span dumps stay inside the checkout.
    scratch = build_root / "runs" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    command = [str(build / "perfbench"), *args,
               "--spill-dir", str(scratch / "spill")]
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        command += ["--trace-out", str(build_root / "spans.jsonl")]
    try:
        done = subprocess.run(command, cwd=root, timeout=RUN_TIMEOUT_S)
        code = done.returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        code = 3
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
