#!/usr/bin/env python3
"""Measured miniwrf time-to-solution, with a per-layer trace.

Run from the root of the repository:

    python3 perfbench/run.py --workload conus_v1 --seed 1 --seconds 40 --trace 0

Builds the measuring program (perfbench/src) against the repository's
crates, then runs it in child processes:

* ``--trace 0``: untraced solutions of the run's scenarios, one fresh
  process each, round-robin for ``--seconds``, each followed by a few
  set-ups alone, so that set-up is sampled across the whole run; then
  one traced run of the first scenario as the correctness reference.
  Prints the end-to-end metrics.
* ``--trace 1``: one traced run of each scenario, timing the calls into
  every layer; then one untraced solution of each as the reference.
  Prints the per-layer metrics, or marks them stale.

Every solution's end-state digest must equal the traced run's of its
scenario, rank by rank, and every other solution's of its scenario; at
the committed seed the traced digests must also equal
perfbench/reference.json.
The second-to-last line of output is the full report (host facts, each
metric's measured/computed tag, digests); the last line is the result.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))

# End-to-end metrics: name -> unit.
END_TO_END = {
    "time_to_solution_s": "s",
    "steps_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "success_share": "ratio",
}

# Traced step wall over summed layer self times must reach this share,
# or the layer numbers are stale.
COVERAGE_BOUND = 0.95

# After each untraced solution, set-up alone is timed this many times
# per scenario (the host's speed drifts over tens of seconds, so set-up
# is sampled across the run rather than in one burst).
SETUPS_PER_SCENARIO = 2

# Scenarios a run solves (perfbench/src/workload.rs SCENARIOS), and how
# many of them an end-to-end run also traces as its correctness
# reference: the first, which at the committed seed is the committed
# case. Tracing all of them would double the cost of every run.
SCENARIOS = 5
REFERENCE_SCENARIOS = 1

# Seconds one run may take after the build.
BUDGET_S = 170.0


class Failure(Exception):
    """The measuring program could not run at all."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Builds the measuring program; returns (binary, target dir)."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        raise Failure("build failed")
    return os.path.join(target, "release", "perfbench"), target


def child(args, deadline, out_path):
    """Runs one child to completion or the deadline; a child still
    running when this process is told to stop is killed and reaped.

    Returns (exit code, its stdout lines, its peak RSS in MiB)."""
    with open(out_path, "w") as out:
        proc = subprocess.Popen(args, stdout=out, stderr=sys.stderr)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as f:
        lines = f.read().splitlines()
    return proc.returncode, lines, usage.ru_maxrss / 1024.0


def last_json(lines):
    for line in reversed(lines):
        try:
            return json.loads(line)
        except ValueError:
            continue
    return None


def host_facts(binary, target, deadline, work):
    """Host probe, measured once per build directory and cached there."""
    cache = os.path.join(target, "perfbench-host.json")
    if os.path.exists(cache):
        with open(cache) as f:
            return json.load(f)
    code, lines, _ = child([binary, "probe"], deadline, os.path.join(work, "probe.out"))
    facts = last_json(lines)
    if code != 0 or facts is None:
        raise Failure("host probe failed")
    facts = facts["host"]
    with open(cache, "w") as f:
        json.dump(facts, f)
    return facts


def reference_digests(workload, seed, steps):
    """Recorded per-scenario digests at the committed seed, if this is it."""
    with open(os.path.join(HERE, "reference.json")) as f:
        ref = json.load(f).get(workload)
    if ref and ref["seed"] == seed and ref["steps"] == steps:
        return ref["digests"]
    return None


def per_scenario(samples):
    """Mean over the run's scenarios of each scenario's median: repeats
    of one scenario damp noise, and a run that repeats some scenarios
    more often than others does not weight them more."""
    by = {}
    for scenario, value in samples:
        by.setdefault(scenario, []).append(value)
    return statistics.mean(statistics.median(v) for v in by.values())


def base_args(binary, cmd, a):
    args = [binary, cmd, "--workload", a.workload, "--seed", str(a.seed)]
    return args + (["--steps", str(a.steps)] if a.steps else [])


def solve(binary, a, seconds, deadline, work, setup_reps=0):
    """Untraced solutions, one fresh process each, round-robin over the
    scenarios until `seconds` have passed and each has run once, each
    followed by `setup_reps` set-ups per scenario. A child that fails
    becomes a failed solution.

    Returns (solutions, set-up samples)."""
    began = time.monotonic()
    sols, setup_samples = [], []
    while len(sols) < SCENARIOS or time.monotonic() - began < seconds:
        k = len(sols) % SCENARIOS
        args = base_args(binary, "solve", a) + ["--scenario", str(k), "--dir", work]
        code, lines, rss = child(args, deadline, os.path.join(work, "solve.out"))
        out = last_json(lines)
        if code != 0 or out is None:
            out = {"scenario": k, "error": f"untraced solution exited with {code}"}
        out["peak_rss_mib"] = rss
        sols.append(out)
        if setup_reps:
            setup_samples += setups(binary, a, setup_reps, deadline, work)
    return sols, setup_samples


def setups(binary, a, reps, deadline, work):
    code, lines, _ = child(base_args(binary, "setup", a) + ["--reps", str(reps)],
                           deadline, os.path.join(work, "setup.out"))
    out = last_json(lines)
    if code != 0 or out is None:
        raise Failure(f"set-up exited with {code}")
    return out["setups"]


def trace(binary, a, scenarios, deadline, work):
    args = base_args(binary, "trace", a) + ["--scenarios", str(scenarios), "--dir", work]
    code, lines, _ = child(args, deadline, os.path.join(work, "trace.out"))
    out = last_json(lines)
    if code != 0 or out is None:
        raise Failure(f"traced run exited with {code}")
    return out


def check(sols, trace_out, ref):
    """Compares every solution with the traced run of its scenario where
    there is one, and with the other solutions of its scenario; the traced
    digests also with the recorded ones at the committed seed.

    Returns (attempted, list of failure descriptions)."""
    failures = [f"traced run: {e}" for e in trace_out["errors"]]
    traced = trace_out["digests"]
    if ref is not None and traced != ref[:len(traced)]:
        failures.append(f"traced digests {traced} differ from the recorded {ref}")
    expected = dict(enumerate(traced))
    for s in sols:
        k = s["scenario"]
        if "error" in s:
            failures.append(f"scenario {k}: {s['error']}")
            continue
        want = expected.setdefault(k, s["digests"])
        if s["digests"] != want:
            failures.append(f"scenario {k}: untraced digests {s['digests']} differ from {want}")
    return len(sols), failures


def end_to_end(sols, setup_samples, steps, attempted, failures):
    ok = [s for s in sols if "error" not in s]
    return {
        "time_to_solution_s": per_scenario((s["scenario"], s["total_s"]) for s in ok),
        "steps_per_s": steps / per_scenario((s["scenario"], s["integrate_s"]) for s in ok),
        "setup_s": per_scenario(tuple(x) for x in setup_samples),
        # A process's memory depends on the grid, not on the scenario. About
        # one two-rank process in three loses an allocator-arena race between
        # its rank threads and peaks ~18 MiB higher; the smallest over the
        # run's solutions is the memory the workload needs.
        "peak_rss_mib": min(s["peak_rss_mib"] for s in ok),
        "success_share": (attempted - len(failures)) / attempted,
    }


def main():
    # Stop like an interrupt, so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["conus_v1", "supercell_v3_2rank"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    p.add_argument("--steps", type=int, default=0,
                   help="override the workload's step count (for quick checks)")
    a = p.parse_args()

    try:
        binary, target = build()
    except (Failure, OSError) as e:
        log(str(e))
        return 2
    deadline = time.monotonic() + BUDGET_S
    work = os.path.join(target, f"perfbench-work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        return measure(binary, target, a, deadline, work)
    except Failure as e:
        log(str(e))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(binary, target, a, deadline, work):
    host = host_facts(binary, target, deadline, work)
    if a.trace == 0:
        sols, setup_samples = solve(binary, a, a.seconds, deadline, work,
                                    SETUPS_PER_SCENARIO)
        trace_out = trace(binary, a, REFERENCE_SCENARIOS, deadline, work)
    else:
        trace_out = trace(binary, a, SCENARIOS, deadline, work)
        sols, _ = solve(binary, a, 0, deadline, work)
    steps = trace_out["steps"]
    ref = reference_digests(a.workload, a.seed, steps)
    attempted, failures = check(sols, trace_out, ref)
    report = {
        "workload": a.workload, "seed": a.seed, "steps": steps, "trace": a.trace,
        "host": host, "digests": trace_out["digests"], "reference_checked": ref is not None,
        "failed_runs": len(failures) / attempted, "failures": failures,
    }

    if a.trace == 0:
        tagged = {}
        if len(failures) < attempted:
            values = end_to_end(sols, setup_samples, steps, attempted, failures)
            tagged = {k: {"value": v, "unit": END_TO_END[k],
                          "tag": "computed" if k == "success_share" else "measured"}
                      for k, v in values.items()}
    else:
        tagged = dict(trace_out["metrics"])
        tagged.update(host)
        traced = tagged["trace.step_wall_s"]["value"]
        untraced = sum(s["integrate_s"] for s in sols if "error" not in s)
        tagged["trace.overhead"] = {"value": traced / untraced if untraced else None,
                                    "unit": "ratio", "tag": "computed"}
        coverage = tagged["trace.coverage"]["value"]
        if coverage is None or coverage < COVERAGE_BOUND:
            failures.append(f"trace coverage {coverage} below {COVERAGE_BOUND}")
        if failures:
            report["stale"] = "layer numbers withheld: the traced run is not the program's step"
            tagged = {}

    report["metrics"] = tagged
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in tagged.items()},
    }
    print(json.dumps({"report": report}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
