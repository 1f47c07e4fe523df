#!/usr/bin/env python3
"""Self-test of the perfbench benchmark.

    python3 perfbench/selftest.py

1. A smoke size of every workload, untraced and traced, prints a result
   line naming exactly the metrics and units BENCHMARK.json declares.
2. The oracle accepts the true expected values and rejects each workload's
   expected value after it is deliberately made wrong.
3. In a directory holding only BENCHMARK.json and perfbench/, the benchmark
   exits non-zero without printing a result.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
failures = []


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def smoke():
    for w in SPEC["workloads"]:
        for trace, key in [(0, "end_to_end"), (1, "per_layer")]:
            what = f"{w['name']} --trace {trace}"
            p = bench(run.ROOT, w["name"], trace)
            if p.returncode != 0:
                expect(False, f"{what}: exit {p.returncode}: {p.stderr.strip()[-300:]}")
                continue
            r = json.loads(p.stdout.strip().splitlines()[-1])
            expect(sorted(r) == ["attempted", "correct", "failed", "metrics"], f"{what}: result keys")
            expect(r["correct"] and r["failed"] == 0 and r["attempted"] >= 1, f"{what}: correct, nothing failed")
            declared = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            expect(got == declared, f"{what}: every {key} metric with its unit")
            if trace == 0:
                expect(all(v["value"] > 0 for v in r["metrics"].values()), f"{what}: no metric reads 0")


def oracle():
    run.build()
    wrong = {
        "hunt-fig1": lambda p: p["counts"].update(racy=p["counts"]["racy"] + 1),
        "check-ms-queue": lambda p: p["counts"]["outcomes"].update(completed=0),
        "record-replay-fluidanimate": lambda p: p["counts"][0].update(ticks=p["counts"][0]["ticks"] + 1),
    }
    for name, cls in run.WORKLOADS.items():
        w = cls(7, True)
        shutil.rmtree(run.WORK / name, ignore_errors=True)
        (run.WORK / name).mkdir(parents=True)
        u0 = w.unit(0)
        p = run.probe(*w.probe_args())
        errs, failed = w.oracle(u0, p)
        expect(not errs and failed == 0, f"{name}: oracle accepts the true values {errs}")
        bad = copy.deepcopy(p)
        wrong[name](bad)
        errs, _ = w.oracle(u0, bad)
        expect(bool(errs), f"{name}: oracle rejects a wrong expected value")
        if name == "check-ms-queue":
            saved, run.MS_QUEUE_DEPTH = run.MS_QUEUE_DEPTH, run.MS_QUEUE_DEPTH + 1
            errs, _ = w.oracle(u0, p)
            run.MS_QUEUE_DEPTH = saved
            expect(bool(errs), f"{name}: oracle rejects a wrong pinned depth")
        shutil.rmtree(run.WORK / name, ignore_errors=True)


def bare():
    d = run.WORK / "selftest-bare"
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", d)
    shutil.copytree(run.ROOT / "perfbench", d / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    p = bench(d, SPEC["workloads"][0]["name"], 0)
    expect(p.returncode != 0 and not p.stdout.strip(), "bare directory: non-zero exit, no result")
    shutil.rmtree(d, ignore_errors=True)


if __name__ == "__main__":
    smoke()
    oracle()
    bare()
    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)
