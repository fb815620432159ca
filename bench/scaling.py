#!/usr/bin/env python3
"""Thread-scaling curve of the fleet runtime.

Times examples/fleet_cli on a population-driven fleet (examples/population.csv,
200 ms telemetry retention, the default 10 ms epochs) for 64 boards x 10 s and
256 boards x 3 s, flat and with 4 sub-fleets, at 1, 2 and 4 threads. Every
row runs 5 times, the rows taking turns so that slow drift on the host
spreads over all of them. Each row reports the median and the minimum of wall
time and of the child's CPU time (user + system, from rusage), and its
wall-time speed-up over the same (boards, sub-fleets) group at 1 thread.

The fleet fingerprint must not depend on the thread count: the script exits
non-zero when it differs within one (boards, sub-fleets) group, or when a run
fails.

Run from the repository root after a Release build:

  cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build-release -j
  python3 bench/scaling.py --cli build-release/examples/fleet_cli \\
      --json BENCH_scaling.json

The whole curve takes about 3 minutes on 4 cores.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
POPULATION = os.path.join(ROOT, "examples", "population.csv")
RETENTION_MS = 200
# (boards, simulated seconds): about the same board-seconds each, so a group
# shows what the board count alone does to scaling.
FLEETS = ((64, 10), (256, 3))
SUBFLEETS = (1, 4)
THREADS = (1, 2, 4)
REPEATS = 5


def run_once(cli, boards, seconds, subfleets, threads):
    """Runs one fleet; returns (wall s, child CPU s, fingerprint)."""
    cmd = [cli, "--boards", str(boards), "--seconds", str(seconds),
           "--population", POPULATION, "--retention", str(RETENTION_MS),
           "--subfleets", str(subfleets), "--threads", str(threads)]
    # Runs are sequential, so the growth of RUSAGE_CHILDREN is this child's.
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0:
        sys.exit(f"scaling: {' '.join(cmd)} exited {proc.returncode}:\n"
                 f"{proc.stderr}")
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    for line in proc.stdout.splitlines():
        if line.startswith("fleet fingerprint:"):
            return wall, cpu, line.split()[-1]
    sys.exit(f"scaling: no fingerprint in the output of {' '.join(cmd)}")


def summary(values):
    return {"median": round(statistics.median(values), 4),
            "min": round(min(values), 4)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--cli", default="build-release/examples/fleet_cli",
                        help="fleet_cli binary of a Release build")
    parser.add_argument("--json", default="BENCH_scaling.json",
                        help="where to write the results")
    args = parser.parse_args()
    if not os.access(args.cli, os.X_OK):
        sys.exit(f"scaling: {args.cli} is not an executable; build it first")

    keys = [(b, s, sf, t) for b, s in FLEETS for sf in SUBFLEETS
            for t in THREADS]
    samples = {key: [] for key in keys}
    for repeat in range(REPEATS):
        for key in keys:
            samples[key].append(run_once(args.cli, *key))
            wall, cpu, fp = samples[key][-1]
            print(f"repeat {repeat + 1}/{REPEATS} boards={key[0]} "
                  f"subfleets={key[2]} threads={key[3]}: wall {wall:.2f} s, "
                  f"cpu {cpu:.2f} s, fingerprint {fp}", flush=True)

    mismatches = []
    for b, s in FLEETS:
        for sf in SUBFLEETS:
            group = {fp for t in THREADS for _, _, fp in samples[(b, s, sf, t)]}
            if len(group) != 1:
                mismatches.append(f"boards={b} subfleets={sf}: {sorted(group)}")

    rows = []
    for b, s, sf, t in keys:
        walls = [w for w, _, _ in samples[(b, s, sf, t)]]
        cpus = [c for _, c, _ in samples[(b, s, sf, t)]]
        base = [w for w, _, _ in samples[(b, s, sf, THREADS[0])]]
        rows.append({
            "boards": b, "seconds": s, "subfleets": sf, "threads": t,
            "repeats": len(walls),
            "wall_s": summary(walls),
            "cpu_s": summary(cpus),
            "speedup": {
                "median": round(statistics.median(base) /
                                statistics.median(walls), 3),
                "min": round(min(base) / min(walls), 3),
            },
            "fingerprint": samples[(b, s, sf, t)][0][2],
        })

    result = {
        "bench": "fleet thread scaling",
        "command": "fleet_cli --population examples/population.csv "
                   f"--retention {RETENTION_MS}",
        "epoch_ms": 10,
        "host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                 "system": platform.system()},
        "speedup_is": "wall time at 1 thread / wall time at this row's "
                      "threads, same boards and sub-fleets",
        "rows": rows,
    }
    with open(args.json, "w") as out:
        json.dump(result, out, indent=2)
        out.write("\n")
    print(f"scaling: wrote {args.json}")
    for row in rows:
        print(f"boards={row['boards']:>3} subfleets={row['subfleets']} "
              f"threads={row['threads']}: wall {row['wall_s']['median']:.2f} "
              f"s (min {row['wall_s']['min']:.2f}), cpu "
              f"{row['cpu_s']['median']:.2f} s, speed-up "
              f"{row['speedup']['median']:.2f}x (min "
              f"{row['speedup']['min']:.2f}x)")
    if mismatches:
        print("scaling: fingerprint differs across thread counts:\n  " +
              "\n  ".join(mismatches), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
