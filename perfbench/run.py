#!/usr/bin/env python3
"""Repo benchmark entry point.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
        --trace <0|1>

Builds the library and the measuring program (perfbench/CMakeLists.txt)
into .bench_build/, trains infer-batch's checkpoint in a separate
process (once per build), runs the workload, checks that the metrics it
reports are exactly the set BENCHMARK.json declares for the mode, and prints
the result JSON as the last line of standard output. Exits non-zero, without
a result line, when the checkout has no sources to build or the program
fails; exits 1 after the result line when a correctness check failed.

A copy of every result, with the run's host and build fingerprint, is kept
under .bench_build/results/ for perfbench/compare.py.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

BUILD_TIMEOUT_S = 840
CHECKPOINT_TIMEOUT_S = 60
RUN_DEADLINE_S = 170  # the whole run, build excluded


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run(cmd, timeout, **kwargs):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"timed out after {timeout:.0f} s: {' '.join(map(str, cmd))}")
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out, err


def build(root, build_dir):
    """Configures (once) and builds the measuring program; returns its path."""
    build_dir.mkdir(exist_ok=True)
    log_path = build_dir / "build.log"
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B",
                      str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            code, _, _ = run(step, max(1.0, deadline - time.monotonic()),
                             stdout=log, stderr=subprocess.STDOUT)
            if code != 0:
                tail = log_path.read_text(errors="replace").splitlines()[-40:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (see {log_path})")
    return build_dir / "perfbench"


def serving_checkpoint(binary, build_dir):
    """infer-batch's model, trained once per build of the program.

    Its training takes no seed (the same 16-epoch run every time), so it is
    cached under the hash of the binary that wrote it; a rebuilt program
    trains a fresh one. Written under a temporary name and renamed, so a
    killed run leaves no partial file behind.
    """
    with open(binary, "rb") as f:
        digest = hashlib.file_digest(f, "sha256").hexdigest()[:16]
    path = build_dir / "checkpoints" / f"model-{digest}.ckpt"
    if not path.exists():
        path.parent.mkdir(exist_ok=True)
        tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
        code, _, _ = run([str(binary), "--make-checkpoint", str(tmp)],
                         CHECKPOINT_TIMEOUT_S)
        if code != 0:
            tmp.unlink(missing_ok=True)
            fail(f"checkpoint training failed with exit code {code}")
        os.replace(tmp, path)
    return path


def expected_metrics(spec, trace):
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def validate(result, expected):
    """Problems with the result line's shape and metric set, if any."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    metrics = result["metrics"]
    missing = sorted(set(expected) - set(metrics))
    extra = sorted(set(metrics) - set(expected))
    if missing:
        problems.append(f"missing metrics {missing}")
    if extra:
        problems.append(f"undeclared metrics {extra}")
    for name, unit in expected.items():
        if name in metrics and metrics[name].get("unit") != unit:
            problems.append(f"{name}: unit {metrics[name].get('unit')!r}, "
                            f"declared {unit!r}")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    trace = args.trace == "1"

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("run from the repository root (no BENCHMARK.json here)")
    spec = json.loads(spec_path.read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    if not (root / "CMakeLists.txt").is_file() or \
            not (root / "src" / "CMakeLists.txt").is_file():
        fail("no program sources in this checkout (CMakeLists.txt, src/)")
    if shutil.which("cmake") is None:
        fail("cmake is not installed")

    build_dir = root / ".bench_build"
    binary = build(root, build_dir)
    start = time.monotonic()

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    trace_dir = build_dir / "trace"
    trace_dir.mkdir(exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", str(trace_dir)]
    if args.workload == "infer-batch":
        cmd += ["--checkpoint", str(serving_checkpoint(binary, build_dir))]
    remaining = RUN_DEADLINE_S - (time.monotonic() - start)
    code, out, _ = run(cmd, max(1.0, remaining), stdout=subprocess.PIPE,
                       text=True)

    lines = out.rstrip("\n").splitlines()
    if not lines:
        fail(f"the measuring program printed nothing (exit code {code})")
    print("\n".join(lines[:-1]))
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(lines[-1])
        fail(f"no result line (exit code {code})")
    problems = validate(result, expected_metrics(spec, trace))
    if problems:
        fail("result does not match BENCHMARK.json: " + "; ".join(problems))
    if code not in (0, 1):
        fail(f"the measuring program exited with code {code}")

    fingerprint = None
    for line in lines:
        if line.startswith("fingerprint: "):
            fingerprint = json.loads(line[len("fingerprint: "):])
    results_dir = build_dir / "results"
    results_dir.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": trace,
              "fingerprint": fingerprint, "result": result}
    (results_dir / f"{tag}.json").write_text(json.dumps(record, indent=1))

    print(lines[-1])
    sys.exit(0 if result["correct"] and code == 0 else 1)


if __name__ == "__main__":
    main()
