"""Self-test of the benchmark. Run from the checkout root:

    python3 perfbench/selftest.py

It runs every workload at minimal length, untraced and traced, and checks
the result line against BENCHMARK.json. It runs one frame-io operation
against a deliberately wrong expected verdict and requires it to count as
failed, checks how rescaled verify-small outcomes are classified (a scale
defect only when the unscaled draw passes), and requires run.py to refuse
a directory that holds no framemult source.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402  (sets the BLAS thread variables first)
import checks  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402

RUN = os.path.join(HERE, "run.py")


def run_bench(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=600)


def check_result_line(root: str, spec: dict, workload: str, trace: int) -> list[str]:
    done = run_bench(root, "--workload", workload, "--seed", "7", "--seconds", "1",
                     "--trace", str(trace))
    if done.returncode != 0:
        return [f"exit code {done.returncode}: {done.stderr.strip()[-500:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"correct={result.get('correct')} attempted={result.get('attempted')} "
                        f"failed={result.get('failed')}")
    wanted = {m["name"]: m for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result.get("metrics", {})
    if set(metrics) != set(wanted):
        problems.append(f"metric names differ: {sorted(set(metrics) ^ set(wanted))}")
    for name, entry in metrics.items():
        value = entry["value"]
        if name in wanted and entry["unit"] != wanted[name]["unit"]:
            problems.append(f"{name}: unit {entry['unit']}, BENCHMARK.json says {wanted[name]['unit']}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r}")
        elif not trace and value <= 0:
            problems.append(f"{name}: end-to-end value {value} is not positive")
    return problems


def check_wrong_expectation(root: str) -> list[str]:
    work = os.path.join(root, ".bench_work", f"selftest-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        with wl.Launcher(bench.child_env(root), root) as launcher:
            ctx = wl.Context(root=root, work=work, env=bench.child_env(root), seed=7,
                             launcher=launcher)
            wrong = dataclasses.replace(wl.WORKLOADS["frame-io"], expected_verdict="fail")
            wrong.prepare(ctx)
            ops = wrong.run(ctx, 0.0)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if [op.status for op in ops] != [checks.FAILED]:
        return [f"a wrong expected verdict gave statuses {[op.status for op in ops]}"]
    return []


def check_classification() -> list[str]:
    expected = checks.VERIFY_ALL
    cases = [
        (dict(expected, inverse_identity_all_input_duals=False), checks.DEFECT),
        (dict(expected, inverse_identity_all_input_duals=False,
              sampled_input_duals_match_inverse=False), checks.FAILED),
        (dict(expected, sampled_input_duals_match_inverse=False), checks.FAILED),
    ]
    problems = []
    for flags, want in cases:
        got = checks.classify("fail", flags, "pass", expected, tolerated=checks.SCALE_DEFECT)
        if got != want:
            problems.append(f"wrong flags {sorted(k for k, v in flags.items() if not v)}: {got}")
    if checks.classify("pass", dict(expected), "pass", expected) != checks.OK:
        problems.append("matching report not classified ok")

    # a tolerated finding is a scale defect only if the unscaled draw passes everything
    scaled = dict(expected, inverse_identity_all_input_duals=False)
    draw = (None, None, np.array([1.0, 2.0]), 1e6, 1e3, 0)
    bundle = worker.verify_bundle
    try:
        for unscaled, want in ((("pass", dict(expected)), checks.DEFECT),
                               (("fail", scaled), checks.FAILED)):
            worker.verify_bundle = lambda *args, result=unscaled: result
            got, _ = worker.judge_small(*draw, "fail", scaled, None)
            if got != want:
                problems.append(f"unscaled verdict {unscaled[0]}: {got}, expected {want}")
    finally:
        worker.verify_bundle = bundle
    return problems


def check_refuses_without_source(root: str) -> list[str]:
    bare = os.path.join(root, ".bench_work", f"bare-{os.getpid()}")
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        done = run_bench(bare, "--workload", "verify-small", "--seed", "1", "--seconds", "1",
                         "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        return [f"exit code {done.returncode} and output {done.stdout.strip()[-200:]!r}"]
    return []


def main() -> int:
    root = os.getcwd()
    spec = bench.load_spec()
    cases = [(f"{name} trace={trace}", lambda n=name, t=trace: check_result_line(root, spec, n, t))
             for name in wl.WORKLOADS for trace in (0, 1)]
    cases += [
        ("wrong expected verdict counts as failed", lambda: check_wrong_expectation(root)),
        ("scale-defect classification", check_classification),
        ("refuses a directory without the source", lambda: check_refuses_without_source(root)),
    ]
    failures = 0
    for label, case in cases:
        problems = case()
        failures += bool(problems)
        print(("FAIL " if problems else "ok   ") + label, flush=True)
        for problem in problems:
            print("     " + problem)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
