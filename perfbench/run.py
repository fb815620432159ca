#!/usr/bin/env python3
"""Fleet benchmark entry point: builds the simulator and runs a workload.

Run from the repository root:

  python3 perfbench/run.py --workload churn --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --workload all    # every workload, both modes
  python3 perfbench/run.py --record-references      # rewrite reference.json

The simulator libraries and perfbench/fleet_bench.cc are built (Release) into
.bench_build/ at the repository root on the first run; later runs rebuild only
what changed. Build output goes to .bench_build/build.log, and checkpoint and
trace files to .bench_build/run/.

fleet_bench makes one measurement per process and reports it as one JSON
line; this script repeats the measurements for --seconds, takes medians and
checks every fleet's outcome. For one workload, stdout ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}; --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones. See perfbench/README.md for
the definitions.
"""

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
RUN_DIR = os.path.join(BUILD_DIR, "run")
BINARY = os.path.join(BUILD_DIR, "fleet_bench")
REFERENCES = os.path.join(BENCH_DIR, "reference.json")
WORKLOADS = ("churn", "steady", "checkpoint")
# Host time of each round's set-up child. One construction takes 0.1-3 ms
# and moves with thread start-up, so the child repeats it for this long (and
# at least 25 times); setup_s is the median over every construction in the
# run.
SETUP_SECONDS = 0.02
# Seeds whose fingerprints --record-references stores.
RECORDED_SEEDS = range(0, 32)
# No single measurement takes more than a few seconds; a child that hangs is
# killed and counts as failed, so a run always ends within a few minutes.
CHILD_TIMEOUT_S = 30


def build():
    """Configures and builds fleet_bench; exits non-zero when that fails."""
    os.makedirs(RUN_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=log).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.exit("perfbench: build failed (see %s)" % log_path)


def child(workload, seed, task, seconds=None, path=None):
    """Runs one fleet_bench task in a fresh process; returns its report, or
    None when the process failed or printed no report."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--task", task]
    if seconds is not None:
        cmd += ["--seconds", "%g" % seconds]
    if path is not None:
        cmd += ["--path", path]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: %s %s timed out\n" % (workload, task))
        return None
    if proc.returncode != 0:
        sys.stderr.write("perfbench: %s %s exited with %d\n"
                         % (workload, task, proc.returncode))
        return None
    try:
        return json.loads(proc.stdout.strip().split("\n")[-1])
    except ValueError:
        sys.stderr.write("perfbench: %s %s printed no report\n"
                         % (workload, task))
        return None


class Checks:
    """Checked operations, and the fingerprint every fleet must end on: the
    recorded one for the workload and seed, or else the first one seen."""

    def __init__(self, reference):
        self.attempted = 0
        self.failed = 0
        self.reference = reference

    def record(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            sys.stderr.write("perfbench: check failed: %s\n" % what)

    def fleet(self, report, what):
        """A fleet must end on the reference fingerprint with every board's
        tenant hierarchy within the accounting bound."""
        if report is None:
            self.record(False, what + " (child failed)")
            return
        if self.reference is None:
            self.reference = report["fingerprint"]
        self.record(report["fingerprint"] == self.reference
                    and report["violations"] == 0,
                    "%s (fingerprint %s, expected %s, %d accounting-bound "
                    "violations)" % (what, report["fingerprint"],
                                     self.reference, report["violations"]))


def end_to_end(workload, seed, seconds, checks):
    """--trace 0: one checkpoint cut, then rounds of set-up, a fleet run and
    a checkpoint round trip until the time is up, so that every metric
    samples the host over the whole run."""
    deadline = time.monotonic() + 0.95 * seconds
    # A round trip restores the cut, saves every restored board and finishes
    # the run, which must end on the uninterrupted fingerprint.
    path = os.path.join(RUN_DIR, "%s-%d.ckpt" % (workload, os.getpid()))
    if os.path.exists(path):
        os.remove(path)
    checks.fleet(child(workload, seed, "run", path=path), "checkpointed run")
    written = os.path.exists(path)
    checks.record(written, "checkpoint written at the cut")
    snapshot_mb = os.path.getsize(path) / 1e6 if written else 0.0

    setup_s, rates, restore_s, save_s = [], [], [], []
    run_rss, trip_rss = [], []
    for i in itertools.count():
        if i >= 1 and time.monotonic() >= deadline:
            break
        s = child(workload, seed, "setup", seconds=SETUP_SECONDS)
        checks.record(s is not None, "fleet set-up")
        if s is not None:
            setup_s += s["setup_s"]
        r = child(workload, seed, "run")
        checks.fleet(r, "fleet run")
        if r is not None:
            rates.append(r["board_s"] / r["run_cpu_s"])
            run_rss.append(r["peak_rss_mb"])
        if written:
            t = child(workload, seed, "trip", path=path)
            checks.fleet(t, "restore, save and finish")
            if t is not None:
                restore_s.append(t["restore_s"])
                save_s.append(t["save_s"])
                trip_rss.append(t["peak_rss_mb"])
    if written:
        os.remove(path)

    def median(values):
        return statistics.median(values) if values else 0.0

    return {
        "sim_rate": (median(rates), "board-s/s"),
        "setup_s": (median(setup_s), "s"),
        # The larger of a fleet run's and a round trip's peak.
        "peak_rss_mb": (max(median(run_rss), median(trip_rss)), "MB"),
        "save_s": (median(save_s), "s"),
        "restore_s": (median(restore_s), "s"),
        "snapshot_mb": (snapshot_mb, "MB"),
    }


def layers(workload, seed, seconds, checks):
    """--trace 1: untraced fleet runs and traced replays in alternating pairs
    for the whole budget, so both sides of every comparison share the host's
    state of the moment. The first replay writes its spans."""
    deadline = time.monotonic() + 0.95 * seconds
    trace_path = os.path.join(RUN_DIR, "trace-%s-%d.json" % (workload, seed))
    pairs = []
    for attempts in itertools.count():
        if attempts >= 1 and time.monotonic() >= deadline:
            break
        run = child(workload, seed, "run")
        checks.fleet(run, "untraced fleet run")
        replay = child(workload, seed, "replay",
                       path=trace_path if attempts == 0 else None)
        checks.record(replay is not None, "traced replay")
        if run is not None and replay is not None:
            pairs.append((run, replay))
    if not pairs:
        return {}

    def median(f):
        return statistics.median(f(run, replay) for run, replay in pairs)

    def layer(name):
        return median(lambda run, replay: replay["metrics"][name]["value"])

    # Stationarity guard: a workload whose live population keeps climbing
    # measures its own overload, not the simulator. The population is a pure
    # function of the workload and board, so one replay's counts are exact.
    boards = len(pairs[0][0]["board_events"])
    live = pairs[0][1]["metrics"]
    mid = live["popgen.live_mid"]["value"]
    end = live["popgen.live_end"]["value"]
    checks.record(end <= 1.5 * mid + 2 * boards,
                  "live apps stay bounded (mid %d, end %d)" % (mid, end))

    # Per-board calls of the replay against the fleet's Run() in the same
    # pair. At 1 thread fleet.overhead_s is exactly the fleet's own work.
    def calls_s(replay):
        return replay["metrics"]["replay.calls_s"]["value"]

    metrics = {
        "fleet.overhead_s": (median(lambda run, replay: run["run_s"]
                                    - calls_s(replay) / run["threads"]), "s"),
        "fleet.speedup": (median(lambda run, replay: calls_s(replay)
                                 / run["run_s"]), "x"),
        "fleet.os_threads": (pairs[0][0]["os_threads"], "count"),
    }
    for name, metric in pairs[0][1]["metrics"].items():
        if not name.startswith("replay."):
            metrics[name] = (layer(name), metric["unit"])
    metrics["trace.overhead"] = (median(
        lambda run, replay:
        replay["metrics"]["replay.stepping_s"]["value"] / run["run_s"]), "x")
    match = attempts == len(pairs) and all(
        run["board_events"] == replay["board_events"]
        and run["board_spawned"] == replay["board_spawned"]
        for run, replay in pairs)
    metrics["trace.match"] = (1.0 if match else 0.0, "bool")
    return metrics


def load_references():
    if not os.path.exists(REFERENCES):
        return {}
    with open(REFERENCES) as f:
        return json.load(f)


def run_workload(workload, seed, seconds, trace, references):
    """Measures one workload; prints its table and returns the result."""
    checks = Checks(references.get(workload, {}).get(str(seed)))
    measure = layers if trace else end_to_end
    metrics = measure(workload, seed, seconds, checks)
    print("workload %s, seed %d, %d s, trace %d, fingerprint %s"
          % (workload, seed, seconds, trace, checks.reference))
    print("%-28s %16s  %s" % ("metric", "value", "unit"))
    for name, (value, unit) in metrics.items():
        print("%-28s %16.6g  %s" % (name, value, unit))
    return {
        "correct": checks.failed == 0 and checks.attempted > 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def record_references():
    references = {}
    for workload in WORKLOADS:
        references[workload] = {}
        for seed in RECORDED_SEEDS:
            report = child(workload, seed, "run")
            if report is None:
                sys.exit("perfbench: %s seed %d failed" % (workload, seed))
            references[workload][str(seed)] = report["fingerprint"]
            print(workload, seed, report["fingerprint"], flush=True)
    with open(REFERENCES, "w") as f:
        json.dump(references, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-references", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    build()
    if args.record_references:
        record_references()
        return

    references = load_references()
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds,
                              args.trace, references)
        print(json.dumps(result))
        return

    # Every workload, end to end and then traced; the last line sums up.
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run_workload(workload, args.seed, args.seconds, trace,
                                  references)
            print()
            summary["correct"] = summary["correct"] and result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                summary["metrics"][workload + "/" + name] = metric
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
