#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the tsan11rec CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The script builds the CLI, the
in-process probe (perfbench/probe.ml) and the reference program
(perfbench/calib.ml) into .bench_build, then:

  --trace 0  times the workload's CLI commands as child processes, one at a
             time, for --seconds seconds, each between two runs of the
             fixed reference program (perfbench/calib.ml), and reports the
             end-to-end metrics as multiples of the reference's wall time;
  --trace 1  runs a few CLI commands for their runtime counters, then the
             probe, which repeats the workload in-process inside spans, and
             reports the per-layer metrics (spans: .bench_work/NAME.trace.json).

Every run checks the CLI's semantic output against pinned facts of the
program and against the probe's in-process result for the same inputs. The
last stdout line is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md for the workloads and what each metric should move.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
WORK = ROOT / ".bench_work"
CLI = BUILD / "default" / "bin" / "tsan11rec_cli.exe"
PROBE = BUILD / "default" / "perfbench" / "probe.exe"
CALIB = BUILD / "default" / "perfbench" / "calib.exe"

CHILD_TIMEOUT_S = 150
# Set-up rounds before the first unit; one more precedes every unit.
SETUP_ROUNDS = 5
# Full and smoke sizes: hunt runs per command, check schedule budget.
# Full sizes keep one command near a second, so that the reference runs
# around it see the same host speed.
HUNT_RUNS = {False: 25_000, True: 2_000}
CHECK_RUNS = {False: 25, True: 4}
# Timed units, after the untimed warm-up unit.
MIN_UNITS = {False: 3, True: 1}
# Rounds of the reference program: about 0.23 s on the host of README.md.
REF_ROUNDS = 10

# Facts of ms-queue's exploration that hold for every schedule budget:
# the two races on the test counter and the full-depth schedule length.
MS_QUEUE_RACES = [
    "data race (write-read) on op_count: T1 vs T2",
    "data race (write-write) on op_count: T1 vs T2",
]
MS_QUEUE_DEPTH = 1338

GC_KEYS = ["minor_words", "promoted_words", "minor_collections", "major_collections"]


class Failure(Exception):
    pass


# ---- children ---------------------------------------------------------------


def child_env():
    env = dict(os.environ)
    # Runtime exit statistics on stderr; no GC parameter is changed.
    env["OCAMLRUNPARAM"] = "v=0x400"
    env.pop("T11R_JOBS", None)
    return env


def run_child(args, timeout=CHILD_TIMEOUT_S):
    """Run one CLI/probe child; return (exit code, stdout, gc stats, wall s)."""
    t0 = time.perf_counter()
    p = subprocess.run(
        args, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout
    )
    wall = time.perf_counter() - t0
    gc = {}
    for line in p.stderr.splitlines():
        m = re.match(r"^(\w+): ([0-9.]+)$", line)
        if m:
            gc[m.group(1)] = float(m.group(2))
    return p.returncode, p.stdout, gc, wall


# Every reference run's checksum (one value when it did the same work) and
# wall time.
CHECKSUMS = set()
REF_WALLS = []


def reference():
    """Run the reference program once; return its wall time."""
    rc, out, _, wall = run_child([str(CALIB), str(REF_ROUNDS)])
    m = re.match(r"^checksum (\d+)$", out.strip())
    if rc != 0 or not m:
        raise Failure(f"reference program exited {rc}")
    CHECKSUMS.add(m.group(1))
    REF_WALLS.append(wall)
    return wall


def timed(args):
    """Run one CLI child between two runs of the reference program.

    Returns the child's (exit code, stdout, gc stats, wall s) and its wall
    time divided by the mean of the reference runs just before and just
    after it. The host's speed drifts by up to 1.5x over minutes and by
    +-20% between commands; runs back to back see the same speed, so the
    ratio does not move with it. Consecutive commands share the reference
    run between them.
    """
    before = REF_WALLS[-1] if REF_WALLS else reference()
    rc, out, gc, wall = run_child(args)
    after = reference()
    return rc, out, gc, wall, wall / ((before + after) / 2)


def cli(*args):
    return [str(CLI), *map(str, args)]


def probe(*args):
    rc, out, _, _ = run_child([str(PROBE), *map(str, args)])
    if rc != 0:
        raise Failure(f"probe {' '.join(map(str, args))} exited {rc}")
    return json.loads(out.strip().splitlines()[-1])


# ---- parsing the CLI's reports ---------------------------------------------


def parse_hunt(out):
    m = re.search(r"^(\d+) runs \((\S+) strategy\): (\d+) racy \([^)]*\), (\d+) crashed$", out, re.M)
    d = re.search(r"^digest:\s+([0-9a-f]+)$", out, re.M)
    if not m or not d:
        raise Failure("hunt: summary line or digest missing")
    return {"runs": int(m.group(1)), "racy": int(m.group(3)), "crashed": int(m.group(4)), "digest": d.group(1)}


def parse_check(out):
    m = re.search(
        r"^(\d+) schedule\(s\) explored(.*); (\d+) racy, (\d+) deadlocking, "
        r"(\d+) crashing; depth <= (\d+)$",
        out,
        re.M,
    )
    if not m:
        raise Failure("check: summary line missing")
    outcomes, races = {}, []
    for line in out.splitlines()[1:]:
        o = re.match(r"^  outcome (\S+)\s+(\d+)$", line)
        if o:
            outcomes[o.group(1)] = int(o.group(2))
        elif line.startswith("  "):
            races.append(line.strip())
    return {
        "runs": int(m.group(1)),
        "complete": "exhausted" in m.group(2),
        "racy": int(m.group(3)),
        "deadlocks": int(m.group(4)),
        "crashes": int(m.group(5)),
        "max_depth": int(m.group(6)),
        "outcomes": outcomes,
        "races": races,
    }


def parse_outcome(out):
    """The record/replay report: outcome, ticks, demo bytes, desyncs, output."""
    field = lambda k: (re.search(rf"^{k}:\s+(.*)$", out, re.M) or [None, None])[1]
    demo = re.search(r"^demo:.* (\d+) bytes$", out, re.M)
    output = out.split("---- program output ----\n", 1)
    output = output[1].rstrip("\n") if len(output) == 2 else ""
    # record prints where the demo went after the program's output.
    output = re.sub(r"\n?recorded demo in .*$", "", output)
    return {
        "outcome": field("outcome"),
        "ticks": int(field("ticks").split()[0]) if field("ticks") else None,
        "demo_bytes": int(demo.group(1)) if demo else None,
        "desynced": "soft-desynchronised" in out or field("desyncs") is not None,
        "output": output,
    }


# ---- the oracle ------------------------------------------------------------


def mismatches(expected, actual, keys, what):
    """Names of the fields in [keys] on which [actual] differs from [expected]."""
    return [
        f"{what}.{k}: expected {expected.get(k)!r}, got {actual.get(k)!r}"
        for k in keys
        if expected.get(k) != actual.get(k)
    ]


# ---- workloads -------------------------------------------------------------
#
# A workload is a sequence of timed units, each one or two CLI commands on
# inputs derived from (seed, unit index). A unit returns its wall time, that
# time in reference runs (see timed; summed over the unit's commands), the
# number of program runs it completed, the failed operations among them, the
# children's gc stats and whatever the oracle compares.


class Hunt:
    name = "hunt-fig1"
    trace_units = 1

    def __init__(self, seed, smoke):
        self.seed, self.n = seed, HUNT_RUNS[smoke]

    def env_seed(self, k):
        return self.seed * 100 + k

    def unit(self, k):
        rc, out, gc, wall, rel = timed(
            cli("hunt", "fig1", "-s", "random", "--jobs", 1, "-n", self.n, "--env-seed", self.env_seed(k))
        )
        h = parse_hunt(out)
        if rc != (1 if h["racy"] or h["crashed"] else 0):
            raise Failure(f"hunt: exit code {rc} does not match its report")
        return {"wall": wall, "rel": rel, "runs": h["runs"], "failed": h["crashed"], "gc": [gc], "cli": h}

    def probe_args(self):
        return ["hunt", "--workload", "fig1", "--runs", self.n, "--env-seed", self.env_seed(0)]

    def oracle(self, u0, p):
        c = p["counts"]
        expected = dict(c, crashed=c["outcomes"].get("crashed", 0))
        errs = mismatches(expected, u0["cli"], ["runs", "racy", "crashed", "digest"], "hunt")
        if sum(c["outcomes"].values()) != self.n:
            errs.append("hunt: outcome histogram does not cover every run")
        if c["racy"] == 0:
            errs.append("hunt: fig1's weak-memory race was never exposed")
        # Timeouts and app errors do not reach the CLI's summary line.
        failed = self.n - c["outcomes"].get("completed", 0) - c["outcomes"].get("crashed", 0)
        return errs, failed


class Check:
    name = "check-ms-queue"
    trace_units = 1

    def __init__(self, seed, smoke):
        # `check` has no seed: exploration of a closed program is
        # deterministic, so every seed gives the same input.
        self.m = CHECK_RUNS[smoke]

    def unit(self, k):
        rc, out, gc, wall, rel = timed(cli("check", "ms-queue", "--jobs", 1, "--max-runs", self.m))
        c = parse_check(out)
        if rc != (1 if c["racy"] or c["deadlocks"] or c["crashes"] else 0):
            raise Failure(f"check: exit code {rc} does not match its report")
        failed = c["runs"] - c["outcomes"].get("completed", 0)
        return {"wall": wall, "rel": rel, "runs": c["runs"], "failed": failed, "gc": [gc], "cli": c}

    def probe_args(self):
        return ["check", "--workload", "ms-queue", "--max-runs", self.m]

    def oracle(self, u0, p):
        keys = ["runs", "complete", "racy", "deadlocks", "crashes", "outcomes", "races", "max_depth"]
        expected = dict(p["counts"], runs=self.m, races=MS_QUEUE_RACES, max_depth=MS_QUEUE_DEPTH)
        return mismatches(expected, u0["cli"], keys, "check"), 0


class RecordReplay:
    name = "record-replay-fluidanimate"
    trace_units = 3

    def __init__(self, seed, smoke):
        self.seed = seed
        self.dir = WORK / self.name

    def rec_seed(self, k):
        return self.seed * 1000 + k + 1

    def unit(self, k):
        i = self.rec_seed(k)
        demo = self.dir / f"demo-{k}"
        shutil.rmtree(demo, ignore_errors=True)
        rc1, out1, gc1, w1, rel1 = timed(
            cli("record", "fluidanimate", "-s", "queue", "--seed", i, "--env-seed", i, "--demo", demo)
        )
        # replay ignores META's strategy, so it is given the recording's.
        rc2, out2, gc2, w2, rel2 = timed(
            cli("replay", "fluidanimate", "-s", "queue", "--env-seed", i + 1000, "--demo", demo)
        )
        kb = sum(f.stat().st_size for f in demo.iterdir()) / 1000 if demo.is_dir() else 0.0
        shutil.rmtree(demo, ignore_errors=True)
        rec, rep = parse_outcome(out1), parse_outcome(out2)
        failed = int(rc1 != 0 or rec["outcome"] != "completed")
        failed += int(
            rc2 != 0 or rep["outcome"] != "completed" or rep["desynced"] or rep["output"] != rec["output"]
        )
        return {
            "wall": w1 + w2,
            "rel": rel1 + rel2,
            "record_s": w1,
            "replay_s": w2,
            "demo_kb": kb,
            "runs": 2,
            "failed": failed,
            "gc": [gc1, gc2],
            "cli": dict(rec, replay_outcome=rep["outcome"], replay_output=rep["output"]),
        }

    def probe_args(self):
        return ["rr", "--workload", "fluidanimate", "--seeds", self.rec_seed(0), "--dir", self.dir]

    def oracle(self, u0, p):
        c = p["counts"][0]
        expected = {
            "outcome": c["record_outcome"],
            "ticks": c["ticks"],
            "demo_bytes": c["demo_bytes"],
            "output": c["output"],
            "replay_outcome": c["replay_outcome"],
            "replay_output": c["replay_output"],
        }
        errs = mismatches(expected, u0["cli"], list(expected), "record-replay")
        if c["soft_desync"] or c["desyncs"] or c["replay_output"] != c["output"]:
            errs.append("record-replay: in-process replay desynchronised")
        return errs, 0


WORKLOADS = {w.name: w for w in (Hunt, Check, RecordReplay)}


# ---- metrics ---------------------------------------------------------------


def heap_mb(units):
    return max(g.get("top_heap_words", 0) for u in units for g in u["gc"]) * 8 / 1e6


def end_to_end(units, setup):
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_rel": (statistics.median(u["rel"] for u in units), "ratio"),
        "runs_per_ref": (statistics.median(u["runs"] / u["rel"] for u in units), "1/ref"),
        "peak_heap_mb": (heap_mb(units), "MB"),
    }


PER_LAYER_UNITS = {
    "cli.wall_s": "s",
    "ref.wall_s": "s",
    "campaign.call_s": "s",
    "campaign.pool_s": "s",
    "campaign.aggregate_s": "s",
    "campaign.digest_s": "s",
    "campaign.us_per_run": "us",
    "campaign.distinct_schedules": "count",
    "interp.run_us": "us",
    "interp.ns_per_tick": "ns",
    "systematic.explore_s": "s",
    "systematic.builds": "count",
    "systematic.max_depth": "count",
    "interp.guided_run_ms": "ms",
    "systematic.exec_est_s": "s",
    "systematic.analysis_est_s": "s",
    "systematic.analysis_ms_per_run": "ms",
    "interp.record_ms": "ms",
    "demo.save_ms": "ms",
    "interp.record_exec_ms": "ms",
    "interp.replay_ms": "ms",
    "demo.load_ms": "ms",
    "interp.replay_exec_ms": "ms",
    "demo.bytes": "count",
    "record_s": "s",
    "replay_s": "s",
    "demo_kb": "KB",
}


def per_layer(units, p, attempted, failed):
    # Layers the workload bypasses read 0: no call was made into them.
    out = {k: (0, u) for k, u in PER_LAYER_UNITS.items()}
    for k, v in p["layers"].items():
        out[k] = (v, PER_LAYER_UNITS[k])
    out["cli.wall_s"] = (statistics.median(u["wall"] for u in units), "s")
    out["ref.wall_s"] = (statistics.median(REF_WALLS), "s")
    if "record_s" in units[0]:
        for k, unit in [("record_s", "s"), ("replay_s", "s"), ("demo_kb", "KB")]:
            out[k] = (statistics.median(u[k] for u in units), unit)
    for k, v in p["metrics"].items():
        out[f"metrics.{k}"] = (v, "count")
    for k in GC_KEYS:
        out[f"gc.{k}"] = (statistics.median(sum(g.get(k, 0) for g in u["gc"]) for u in units), "count")
    out["gc.top_heap_mb"] = (heap_mb(units), "MB")
    out["trace.overhead_frac"] = (p["traced_s"] / p["untraced_s"] - 1, "ratio")
    out["failed_frac"] = (failed / attempted, "ratio")
    return out


# ---- driver ----------------------------------------------------------------


def build():
    for f in ["dune-project", "bin/tsan11rec_cli.ml", "lib", "perfbench/probe.ml", "perfbench/calib.ml"]:
        if not (ROOT / f).exists():
            sys.exit(f"perfbench: {ROOT} is not a tsan11rec source checkout ({f} missing)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    p = subprocess.run(
        ["dune", "build", "--root", str(ROOT), "--build-dir", str(BUILD),
         "bin/tsan11rec_cli.exe", "perfbench/probe.exe", "perfbench/calib.exe"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=850,
    )
    if p.returncode != 0:
        sys.stderr.write(p.stderr[-4000:])
        sys.exit(f"perfbench: build failed ({p.returncode})")


def setup(w):
    """One set-up round: a fresh work directory and the CLI's start-up path."""
    t0 = time.perf_counter()
    shutil.rmtree(WORK / w.name, ignore_errors=True)
    (WORK / w.name).mkdir(parents=True)
    rc, out, _, _ = run_child(cli("list"))
    if rc != 0 or "fluidanimate" not in out:
        raise Failure("list: workload registry missing")
    return time.perf_counter() - t0


def measure(args):
    w = WORKLOADS[args.workload](args.seed, args.smoke)
    setup_s = [setup(w) for _ in range(SETUP_ROUNDS)]
    if args.trace:
        # Runtime counters and the CLI side of the oracle need a few CLI
        # commands; the timings come from the probe.
        units = [w.unit(k) for k in range(1 if args.smoke else w.trace_units)]
        timed_units = units
    else:
        # Unit 0 warms the page cache and the allocator; it is checked by
        # the oracle but not timed.
        units = [w.unit(0)]
        t0 = time.perf_counter()
        while len(units) <= MIN_UNITS[args.smoke] or time.perf_counter() - t0 < args.seconds:
            setup_s.append(setup(w))
            units.append(w.unit(len(units)))
        timed_units = units[1:]
    if len(CHECKSUMS) != 1:
        raise Failure(f"reference program checksums differ: {sorted(CHECKSUMS)}")
    trace_file = WORK / f"{w.name}.trace.json"
    p = probe(*w.probe_args(), *(["--trace", trace_file] if args.trace else []))
    errs, failed = w.oracle(units[0], p)
    if args.trace:
        if not p["consistent"]:
            errs.append("probe: traced and untraced executions disagree")
        if not p["trace_valid"] or p["spans"] < 1:
            errs.append("probe: span file is not valid trace-event JSON")
    attempted = sum(u["runs"] for u in units)
    failed += sum(u["failed"] for u in units)
    if args.trace:
        metrics = per_layer(units, p, attempted, failed)
    else:
        metrics = end_to_end(timed_units, setup_s)
    print("unit walls (s): " + " ".join(f"{u['wall']:.3f}" for u in timed_units), file=sys.stderr)
    print("unit walls (ref): " + " ".join(f"{u['rel']:.3f}" for u in timed_units), file=sys.stderr)
    for e in errs:
        print(f"oracle: {e}", file=sys.stderr)
    return {
        "correct": not errs and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    args = ap.parse_args(argv)
    args.seed %= 1_000_000
    build()
    try:
        result = measure(args)
    except (Failure, subprocess.TimeoutExpired, ValueError, KeyError) as e:
        sys.exit(f"perfbench: {args.workload}: {e}")
    finally:
        shutil.rmtree(WORK / args.workload, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
