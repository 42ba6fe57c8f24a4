#!/usr/bin/env python3
"""End-to-end benchmark command.

Run from the repository root:

  python3 e2ebench/run.py --workload W --seed N --seconds S --trace 0|1
      One run of one workload. Builds .bench_build/ (Release, io_uring) on
      first use, prepares the real workloads' backing file, runs sst_bench,
      checks its outputs, writes .bench_out/<workload>[.traced].seed<N>.json
      (the input of compare.py), prints
      `workload metric value unit` lines and, as the last line, one JSON
      object: {"correct", "attempted", "failed", "metrics"}. Untraced runs
      report BENCHMARK.json's end_to_end metrics, traced runs its per_layer
      metrics.

  python3 e2ebench/run.py [--seed N] [--seconds S]
      Every workload, untraced then traced, plus the tracing overhead.

  python3 e2ebench/run.py --smoke [--bench PATH]
      Schema smoke test: every workload untraced and traced on short
      windows; fails unless every metric BENCHMARK.json names is printed with
      its unit. Exits 77 (skipped) when the real workloads cannot run.
"""

import argparse
import fcntl
import json
import os
import platform
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
BACKING = "sst_e2e.img"
WORKLOADS = ["sim_staged", "sim_raw_rw", "real_sched", "real_raw"]
# Seed-1 model outputs compared exactly (sim workloads, full windows).
EXPECT_KEYS = {
    "sim_staged": ["total_mbps", "requests_completed", "p99_ms"],
    "sim_raw_rw": ["total_mbps", "requests_completed", "p99_ms", "write_mbps"],
}
RUN_TIMEOUT_S = 170
SKIPPED = 77


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail_setup(msg):
    """An unusable checkout: exit non-zero without printing a result."""
    log("run.py: " + msg)
    sys.exit(2)


def load_benchmark():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as err:
        fail_setup("cannot read %s: %s" % (path, err))


def build():
    """Configure (once) and build sst_bench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail_setup("no streamstore sources under %s/src" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release",
                   "-DSST_WITH_URING=ON"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=sys.stderr) != 0:
                fail_setup("cmake configure failed")
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = ["cmake", "--build", BUILD, "--target", "sst_bench", "-j", jobs]
        if subprocess.call(cmd, stdout=sys.stderr) != 0:
            fail_setup("build failed")
    return os.path.join(BUILD, "sst_bench")


def backing_file(bench, directory):
    """The real workloads' backing file, written on first use."""
    path = os.path.join(directory, BACKING)
    with open(os.path.join(directory, ".lock"), "a") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(path):
            log("run.py: preparing %s" % path)
            if subprocess.call([bench, "--prepare", path]) != 0:
                fail_setup("cannot prepare the backing file")
    return path


def threads_of(pid):
    try:
        with open("/proc/%d/status" % pid) as f:
            for line in f:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def run_bench(bench, workload, seed, seconds, trace, out_json, backing, smoke=False,
              trace_out=None):
    """Run sst_bench once, sampling its thread count at 10 Hz. Returns
    (exit code, report or None, peak threads)."""
    cmd = [bench, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", out_json]
    if backing:
        cmd += ["--file", backing]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    if smoke:
        cmd.append("--smoke")
    if os.path.exists(out_json):
        os.remove(out_json)
    proc = subprocess.Popen(cmd, stdout=sys.stderr)
    peak = 0
    deadline = time.monotonic() + RUN_TIMEOUT_S
    while proc.poll() is None:
        peak = max(peak, threads_of(proc.pid))
        if time.monotonic() > deadline:
            proc.kill()
            proc.wait()
            log("run.py: %s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
            break
        time.sleep(0.1)
    report = None
    if os.path.isfile(out_json):
        with open(out_json) as f:
            report = json.load(f)
    return proc.returncode, report, peak


def read_first_line(path, prefix):
    try:
        with open(path) as f:
            for line in f:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def fingerprint(report, peak_threads):
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        try:
            commit = subprocess.check_output(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                             stderr=subprocess.DEVNULL, text=True).strip()
        except subprocess.CalledProcessError:
            pass
    host = dict(report.get("host", {})) if report else {}
    host.update({
        "nproc": os.cpu_count(),
        "kernel": platform.release(),
        "cpu_model": read_first_line("/proc/cpuinfo", "model name"),
        "git_commit": commit,
        "peak_threads": peak_threads,
    })
    return host


def schema_errors(metrics, wanted):
    errors = []
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            errors.append("metric %s missing" % m["name"])
        elif got.get("unit") != m["unit"]:
            errors.append("metric %s has unit %s, BENCHMARK.json says %s"
                          % (m["name"], got.get("unit"), m["unit"]))
    return errors


def expect_errors(report, workload):
    """Seed-1 model outputs must match expect.json exactly."""
    with open(os.path.join(HERE, "expect.json")) as f:
        expect = json.load(f)[workload]
    return ["%s: %s = %r, expected %r" % (workload, key, report["model"][key], expect[key])
            for key in EXPECT_KEYS[workload] if report["model"][key] != expect[key]]


def one_run(args, bench_meta):
    if args.workload not in WORKLOADS:
        fail_setup("unknown workload %s (one of %s)" % (args.workload, ", ".join(WORKLOADS)))
    bench = build()
    real = args.workload.startswith("real_")
    backing = backing_file(bench, BUILD) if real else None
    os.makedirs(args.out, exist_ok=True)
    stem = "%s%s.seed%d" % (args.workload, ".traced" if args.trace else "", args.seed)
    out_json = os.path.join(args.out, stem + ".bench.json")
    trace_out = os.path.join(args.out, args.workload + ".trace.json") if args.trace else None
    code, report, peak = run_bench(bench, args.workload, args.seed, args.seconds, args.trace,
                                   out_json, backing, trace_out=trace_out)
    if report is None:
        fail_setup("sst_bench (exit %s) wrote no report" % code)

    problems = ["check %s failed: %s" % (c["name"], c["detail"])
                for c in report["checks"] if not c["ok"]]
    if code != 0 and not problems:
        problems.append("sst_bench exited with %d" % code)
    wanted = bench_meta["per_layer" if args.trace else "end_to_end"]
    problems += schema_errors(report["metrics"], wanted)
    checks_model = args.workload in EXPECT_KEYS and (args.trace == 0 or args.workload == "sim_staged")
    if args.seed == 1 and checks_model and report["reps"] > 0:
        problems += expect_errors(report, args.workload)
    host = fingerprint(report, peak)
    if peak > (os.cpu_count() or 1):
        log("run.py: warning: %d threads exceed the %d CPUs" % (peak, os.cpu_count()))
    for p in problems:
        log("run.py: " + p)

    metrics = {m["name"]: report["metrics"][m["name"]] for m in wanted
               if m["name"] in report["metrics"]}
    result = {"correct": not problems, "attempted": max(1, report["attempted"]),
              "failed": report["failed"], "metrics": metrics}
    record = dict(report, host=host, problems=problems, result=result)
    with open(os.path.join(args.out, stem + ".json"), "w") as f:
        json.dump(record, f, indent=2)
    os.remove(out_json)
    for name, m in metrics.items():
        print("%s %s %.10g %s" % (args.workload, name, m["value"], m["unit"]))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def all_runs(args, bench_meta):
    """Every workload, untraced then traced, in child processes."""
    status = 0
    rows = []
    for workload in WORKLOADS:
        got = {}
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--out", args.out]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            for line in lines[:-1]:
                print(line)
            if proc.returncode != 0 or not lines:
                status = 1
                continue
            got[trace] = json.loads(lines[-1])["metrics"]
        if 0 in got and 1 in got:
            for name, traced in (("req_per_s", "trace.req_per_s"),
                                 ("cpu_ns_per_req", "trace.cpu_ns_per_req")):
                base = got[0][name]["value"]
                rows.append((workload, name, got[1][traced]["value"] / base - 1.0))
    for workload, name, overhead in rows:
        print("%s tracing_overhead.%s %+.1f %%" % (workload, name, 100.0 * overhead))
    return status


def smoke(args, bench_meta):
    bench = args.bench or build()
    directory = os.path.dirname(os.path.abspath(bench))
    out_dir = os.path.join(directory, "smoke")
    os.makedirs(out_dir, exist_ok=True)
    failures, skipped = [], []
    for workload in WORKLOADS:
        backing = None
        for trace in (0, 1):
            if workload.startswith("real_") and backing is None and not skipped:
                backing = backing_file(bench, directory)
            out_json = os.path.join(out_dir, "%s.%d.json" % (workload, trace))
            code, report, _ = run_bench(bench, workload, 1, 1, trace, out_json, backing,
                                        smoke=True)
            if code == SKIPPED:
                skipped.append(workload)
                break
            wanted = bench_meta["per_layer" if trace else "end_to_end"]
            errors = [] if code == 0 else ["exit code %s" % code]
            if report is not None:
                errors += schema_errors(report["metrics"], wanted)
                for name, m in report["metrics"].items():
                    print("%s %s %.10g %s" % (workload, name, m["value"], m["unit"]))
            for e in errors:
                failures.append("%s trace=%d: %s" % (workload, trace, e))
    for f in failures:
        log("smoke: " + f)
    if failures:
        return 1
    if skipped:
        log("smoke: skipped %s (no io_uring backend)" % ", ".join(skipped))
        return SKIPPED
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=OUT)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--bench", help="prebuilt sst_bench (smoke test)")
    args = parser.parse_args()
    bench_meta = load_benchmark()
    if args.seconds is None:
        args.seconds = bench_meta["run_seconds"]
    if args.smoke:
        return smoke(args, bench_meta)
    if args.workload:
        return one_run(args, bench_meta)
    return all_runs(args, bench_meta)


if __name__ == "__main__":
    sys.exit(main())
