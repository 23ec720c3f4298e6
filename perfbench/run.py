#!/usr/bin/env python3
"""Trace-to-verdict benchmark: one run of one workload.

    python3 perfbench/run.py --workload campus-week --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds the tradeplot libraries and the
measuring program into .bench_build (CMake, Release), sets the workload up
in .bench_run/<workload> from --seed (simulated campus + honeynet traces,
one v3 columnar trace file, batch oracle), then measures it in a second
process so that peak_rss_mb covers ingest and detection only.

Prints the environment and the windows attempted/failed on the lines before
the last; the last line is one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics of
BENCHMARK.json, --trace 1 the per-layer ones. Exits non-zero, without a
result, if the program cannot be built or a run fails outright.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = ".bench_build"
WORK = ".bench_run"
STEP_TIMEOUT_S = 170
# The program runs on one thread unless TRADEPLOT_THREADS asks for more: on
# a shared VM the wall time of parallel sections follows the hypervisor's
# CPU steal, not the code, and the runs stop agreeing with each other.
STEP_ENV = dict(os.environ, TRADEPLOT_THREADS=os.environ.get("TRADEPLOT_THREADS", "1"))


def environment():
    return {
        "hardware_threads": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "TRADEPLOT_THREADS": STEP_ENV["TRADEPLOT_THREADS"],
    }


def steal_seconds():
    """CPU time the hypervisor gave to others (all CPUs), from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("perfbench: no tradeplot sources (src/CMakeLists.txt) to build")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    log_path = os.path.join(ROOT, BUILD, "build.log")
    os.makedirs(os.path.dirname(log_path), exist_ok=True)
    with open(log_path, "w") as log:
        for cmd in (["cmake", "-S", "perfbench", "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", BUILD, "-j", jobs]):
            if subprocess.run(cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                sys.stderr.write(open(log_path).read())
                raise SystemExit(f"perfbench: {' '.join(cmd)} failed")
    return os.path.join(BUILD, "perfbench")


def step(cmd):
    """Runs one perfbench step; returns its last stdout line as JSON."""
    proc = subprocess.run(cmd, cwd=ROOT, env=STEP_ENV, stdout=subprocess.PIPE,
                          timeout=STEP_TIMEOUT_S, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise SystemExit(f"perfbench: unknown workload {args.workload}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    binary = build()
    work = os.path.join(WORK, args.workload)
    shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)
    os.makedirs(os.path.join(ROOT, work))
    try:
        setup = step([binary, "setup", "--workload", args.workload, "--seed", str(args.seed),
                      "--dir", work])
        steal = steal_seconds()
        run = step([binary, "run", "--workload", args.workload, "--dir", work,
                    "--seconds", str(args.seconds), "--trace", str(args.trace)])
        steal = steal_seconds() - steal
    finally:
        shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)

    measured = dict(run["metrics"])
    measured.update(setup)
    metrics = {}
    for m in wanted:
        if m["name"] not in measured:
            raise SystemExit(f"perfbench: metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": measured[m["name"]], "unit": m["unit"]}

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "windows_attempted": run["attempted"], "windows_failed": run["failed"],
            "storm_windows": run["storm_windows"], "storm_below_floor": run["storm_below_floor"],
            "carriers": run["carriers"], "carriers_flagged": run["carriers_flagged"],
            "false_positives": run["false_positives"],
            "flows": setup["flows"], "rounds": run["metrics"].get("rounds"),
            "cpu_steal_s": round(steal, 2), **environment(), "notes": run["notes"]}
    print(json.dumps(info))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": run["correct"], "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
