#!/usr/bin/env python3
"""Benchmark for the AutoScale serving and fleet simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call builds perfbench_child
(the library from src/ plus perfbench/child.cpp, Release) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later calls only
check that the build is current.

--trace 0 measures the untraced workload. For --seconds it alternates two
fresh child processes: `setup` (construction only) and `run` (the
library's serve::runServe / serve::runFleet entry call). It prints the
end-to-end metrics as medians over those runs. A seed stands for one run
of the workload file, or for several independent instances of it
(learner-fleet) whose runs take turns; the simulated metrics are totals
over the instances.

--trace 1 alternates untraced `run` children with `trace` children that
replay the same program through the public step API with spans around
each layer. It prints the per-layer metrics as medians.

Every child runs under a wall-clock watchdog. A killed child is a failed
run: its workload, seed and last progress line go to stderr, all of its
arrivals count as failed and as shed, and it is not retried. The last
line on stdout is one JSON object with correct, attempted, failed and
metrics. attempted counts the arrivals given to the run and trace
children; failed counts the arrivals of those that were killed or failed
an output check. Shed requests are modelled behaviour, not failures:
they are reported as shed_frac.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Policy, jobs, shards and metering each workload file runs with. jobs 0
# means one worker per hardware thread, the library's default. A seed
# stands for `instances` runs of the file, with instance seeds
# seed * instances + i; see instance_seeds.
WORKLOADS = {
    "fleet-diurnal": {"policy": "connected-edge", "jobs": 0, "shards": 4,
                      "metering": 0, "instances": 1},
    "learner-fleet": {"policy": "autoscale", "jobs": 1, "shards": 4,
                      "metering": 0, "instances": 8},
    "serve-overload": {"policy": "autoscale", "jobs": 1, "shards": 1,
                       "metering": 1, "instances": 1},
}

MIN_ROUNDS = {0: 3, 1: 2}
SETUPS_PER_RUN = 2
CHILD_TIMEOUT_S = 30.0
# Every invocation must end well inside three minutes.
TOTAL_BUDGET_S = 170.0

SIMULATED_KEYS = ("arrivals", "admitted", "served", "shed_deadline",
                  "shed_overflow", "shed_stale", "shed_churn", "degraded",
                  "qos_violations", "fault_fallbacks", "short_circuits",
                  "energy_j", "wasted_energy_j", "checksum",
                  "rng_fingerprint")


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; returns the binary path."""
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "perfbench_child", "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench_child")


def workload_file(name):
    return os.path.join(HERE, "workloads", name + ".scn")


def instance_seeds(seed, instances):
    """The seeds of the workload runs one benchmark seed stands for.

    One learner-fleet trajectory moves its simulated totals and its epoch
    count by up to a tenth from seed to seed; a seed that stands for
    several independent runs averages that out. One instance keeps the
    seed itself."""
    return [seed * instances + i for i in range(instances)]


def expected_arrivals(name):
    """devices x requests, read from the workload file."""
    text = open(workload_file(name)).read()
    population = re.search(r"^population\s*=\s*(\d+)", text, re.M)
    requests = re.search(r"^requests\s*=\s*(\d+)", text, re.M)
    return (int(population.group(1)) if population else 1) \
        * int(requests.group(1))


class Children:
    """Starts benchmark children under the watchdog and records failures."""

    def __init__(self, binary, workload, deadline):
        self.binary = binary
        self.workload = workload
        self.deadline = deadline

    def run(self, mode, seed):
        """Runs one child of one instance; returns its result, tagged
        with the instance seed, or None."""
        knobs = WORKLOADS[self.workload]
        command = [self.binary, mode,
                   "--scenario", workload_file(self.workload),
                   "--policy", knobs["policy"],
                   "--jobs", str(knobs["jobs"]),
                   "--shards", str(knobs["shards"]),
                   "--metering", str(knobs["metering"]),
                   "--seed", str(seed)]
        timeout = max(1.0, min(CHILD_TIMEOUT_S,
                               self.deadline - time.monotonic()))
        start = time.monotonic()
        child = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                                 stderr=subprocess.PIPE, text=True)
        try:
            out, err = child.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            child.kill()
            out, err = child.communicate()
            self.fail(mode, seed, "killed after %.1f s"
                      % (time.monotonic() - start), err)
            return None
        if child.returncode != 0:
            self.fail(mode, seed, "exit code %d" % child.returncode, err)
            return None
        try:
            result = json.loads(out.strip().splitlines()[-1])
        except (ValueError, IndexError):
            self.fail(mode, seed, "no result line", err)
            return None
        result["seed"] = seed
        return result

    def fail(self, mode, seed, why, stderr):
        progress = [line for line in stderr.splitlines()
                    if line.startswith("perfbench-progress")]
        last = progress[-1].split(" ", 1)[1] if progress else "none"
        tail = " | ".join(line for line in stderr.splitlines()[-3:]
                          if not line.startswith("perfbench-progress"))
        log("FAILED %s child: workload=%s seed=%d %s; last progress: %s%s"
            % (mode, self.workload, seed, why, last,
               "; stderr: " + tail if tail else ""))


def check_run(result, expected):
    """Output checks every run must pass; returns the failures."""
    problems = []
    shed = (result["shed_deadline"] + result["shed_overflow"]
            + result["shed_stale"] + result["shed_churn"])
    if result["devices"] * result["requests"] != expected:
        problems.append("devices x requests != %d" % expected)
    if result["arrivals"] != expected:
        problems.append("arrivals %d != devices x requests %d"
                        % (result["arrivals"], expected))
    if result["arrivals"] != result["served"] + shed:
        problems.append("arrivals != served + shed + shed_churn")
    if not result["finite"] or result["energy_j"] is None:
        problems.append("non-finite energy or latency")
    if result["served"] < 1:
        problems.append("nothing served")
    return problems


def median_of(results, value):
    return statistics.median(value(result) for result in results)


def metric_units(kind):
    """Metric name -> unit for one list of BENCHMARK.json."""
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    return {entry["name"]: entry["unit"] for entry in spec[kind]}


def measure(binary, args):
    """Alternates untraced runs with setup (--trace 0) or traced
    children (--trace 1) for --seconds; returns (correct, attempted,
    failed, metrics)."""
    started = time.monotonic()
    children = Children(binary, args.workload, started + TOTAL_BUDGET_S)
    expected = expected_arrivals(args.workload)
    seeds = instance_seeds(args.seed, WORKLOADS[args.workload]["instances"])
    second = "setup" if args.trace == 0 else "trace"
    runs, others = [], []
    attempted = failed = 0
    correct = True
    rounds = 0
    # Set-up is short and noisy, so each round pairs the untraced run
    # with several set-up children. Rounds take the instances in turn;
    # the untraced measurement runs every instance at least once.
    modes = ["run"] + [second] * (SETUPS_PER_RUN if args.trace == 0 else 1)
    min_rounds = MIN_ROUNDS[args.trace]
    if args.trace == 0:
        min_rounds = max(min_rounds, len(seeds))
    while True:
        seed = seeds[rounds % len(seeds)]
        for mode in modes:
            result = children.run(mode, seed)
            if mode == "setup":
                if result is not None:
                    others.append(result)
                continue
            attempted += expected
            if result is None:
                failed += expected
                continue
            problems = check_run(result, expected)
            if problems:
                log("%s child seed=%d failed checks: %s"
                    % (mode, seed, "; ".join(problems)))
                correct = False
                failed += expected
            else:
                (runs if mode == "run" else others).append(result)
        rounds += 1
        elapsed = time.monotonic() - started
        if rounds >= min_rounds and elapsed >= args.seconds:
            break
        if elapsed > TOTAL_BUDGET_S - CHILD_TIMEOUT_S:
            break

    if not runs or not others:
        return False, attempted, failed, {}
    # One seed, one program: every run and replay of an instance must
    # simulate the same thing, and the traced replay must end with
    # runFleet's checksum (runServe's rngFingerprint for a single device).
    reference = {}
    for result in runs + (others if args.trace == 1 else []):
        first = reference.setdefault(result["seed"], result)
        for key in SIMULATED_KEYS:
            if result[key] != first[key]:
                log("seed %d: runs disagree on %s" % (result["seed"], key))
                correct = False
    first = reference[runs[0]["seed"]]
    log("%d run(s), %d %s child(ren), %d instance(s); seed %d: %d epoch(s), "
        "checksum %s" % (len(runs), len(others), second, len(reference),
                         first["seed"], first["epochs"], first["checksum"]))
    if args.trace == 1:
        return correct, attempted, failed, per_layer(runs, others)

    # Simulated totals over the instances, each counted once.
    instances = list(reference.values())
    arrivals = sum(r["arrivals"] for r in instances)
    served = sum(r["served"] for r in instances)
    shed = sum(r["shed_deadline"] + r["shed_overflow"] + r["shed_stale"]
               + r["shed_churn"] for r in instances)
    lost = failed / attempted
    values = {
        "served_per_s": median_of(runs, lambda r: r["served"] / r["call_s"]),
        "arrivals_per_s": median_of(runs,
                                    lambda r: r["arrivals"] / r["call_s"]),
        "setup_s": median_of(others, lambda s: s["setup_s"]),
        "peak_rss_mb": median_of(runs,
                                 lambda r: r["peak_rss_bytes"] / 2.0 ** 20),
        # Arrivals of killed or failing runs all count as shed.
        "shed_frac": shed / arrivals * (1.0 - lost) + lost,
        "energy_per_served_mj": sum(r["energy_j"] for r in instances) * 1e3
        / served,
        "qos_violation_frac": sum(r["qos_violations"] for r in instances)
        / served,
    }
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in metric_units("end_to_end").items()}
    return correct, attempted, failed, metrics


def per_layer(runs, traces):
    metrics = {}
    for name, unit in metric_units("per_layer").items():
        if name == "obs.trace_overhead_frac":
            value = (median_of(traces, lambda t: t["trace.wall_s"])
                     / median_of(runs, lambda r: r["call_s"]) - 1.0)
        else:
            value = median_of(traces, lambda t, n=name: t[n])
        metrics[name] = {"value": value, "unit": unit}
    log("traced phases cover %.4f of the traced wall time"
        % metrics["fleet.phase_coverage_frac"]["value"])
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        log("build failed: %s" % error)
        return 1
    correct, attempted, failed, metrics = measure(binary, args)
    if not metrics:
        log("no run of workload %s completed" % args.workload)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
