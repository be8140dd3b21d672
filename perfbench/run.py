#!/usr/bin/env python3
"""dee's end-to-end benchmark: build dee_perfbench, run one workload, report.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig5_grid --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke          # seconds-long self-test

The first call configures and builds perfbench/ (libdee plus dee_perfbench)
under $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is
unset. Build output goes to stderr; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics. Every run is
also appended, with a host fingerprint, to perfbench/trajectory.jsonl.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
WORKLOADS = ("fig5_grid", "paper_trace", "levo_sweep")
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build():
    """Configures (once) and builds dee_perfbench; returns its path."""
    out = build_dir()
    if not (ROOT / "src").is_dir():
        raise SystemExit("perfbench: no src/ tree next to perfbench/; "
                         "run from the root of a dee checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise SystemExit("perfbench: cmake configure failed")
    cmd = ["cmake", "--build", str(out), "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise SystemExit("perfbench: build failed")
    return out / "dee_perfbench"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_bench(binary, workload, seed, seconds, trace, extra=()):
    runs = build_dir() / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", str(runs),
           "--digests", str(HERE / "digests.json"), *extra]
    env = dict(os.environ, DEE_LOG_LEVEL="warn")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: dee_perfbench exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit("perfbench: dee_perfbench printed no result")
    return json.loads(lines[-1])


def metric_problems(result, expected):
    """Names in @expected missing from the result, non-finite, or with
    another unit."""
    problems = []
    got = result.get("metrics", {})
    for name, unit in expected.items():
        m = got.get(name)
        if m is None:
            problems.append(f"{name}: missing")
        elif not isinstance(m.get("value"), (int, float)) or \
                not math.isfinite(m["value"]):
            problems.append(f"{name}: value {m.get('value')!r}")
        elif m.get("unit") != unit:
            problems.append(f"{name}: unit {m.get('unit')!r} != {unit!r}")
    return problems


def source_rev():
    """The git revision, or a digest of the sources outside git."""
    try:
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0:
            return rev.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")) + sorted(HERE.glob("*")):
        if path.is_file():
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def host_fingerprint(detail):
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "compiler": detail.get("compiler"),
        "build_type": detail.get("build_type"),
        "rev": source_rev(),
    }


def append_trajectory(args, result):
    entry = {
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "host": host_fingerprint(result.get("detail", {})),
        **result,
    }
    with open(HERE / "trajectory.jsonl", "a", encoding="utf-8") as out:
        out.write(json.dumps(entry, sort_keys=True) + "\n")


def smoke(binary):
    """Every workload at a tiny scale, untraced and traced: every metric
    of BENCHMARK.json is emitted, finite and in its unit, the output
    checks pass, and the traced layer self-times add up to the wall."""
    failures = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run_bench(binary, workload, 0, 0, trace,
                                ("--smoke", "true"))
            where = f"{workload} --trace {trace}"
            failures += [f"{where}: {p}" for p in
                         metric_problems(result, expected_metrics(trace))]
            if not result["correct"] or result["failed"] != 0:
                failures.append(f"{where}: output checks failed: "
                                f"{result['detail'].get('failures')}")
            if trace:
                m = result["metrics"]
                parts = sum(v["value"] for k, v in m.items()
                            if k.startswith("self_ms."))
                wall = m["traced_wall_ms"]["value"]
                if abs(parts - wall) > 1e-6 * max(wall, 1.0):
                    failures.append(f"{where}: self times sum to {parts} "
                                    f"ms, traced wall is {wall} ms")
            log(f"smoke {where}: {result['attempted']} cells checked")
    for f in failures:
        log("SMOKE FAILED", f)
    log("smoke: ok" if not failures else f"smoke: {len(failures)} failures")
    return 0 if not failures else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, default="fig5_grid")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run the seconds-long self-test and exit")
    parser.add_argument("--write-digest", action="store_true",
                        help="pin this run's cells as the seed's digest")
    args = parser.parse_args()

    binary = build()
    if args.smoke:
        return smoke(binary)

    extra = ("--write-digest", str(HERE / "digests.json")) \
        if args.write_digest else ()
    result = run_bench(binary, args.workload, args.seed, args.seconds,
                        args.trace, extra)
    problems = metric_problems(result, expected_metrics(args.trace))
    if problems:
        raise SystemExit("perfbench: bad metrics: " + "; ".join(problems))
    append_trajectory(args, result)
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
