"""framemult benchmark: end-to-end timings per workload, per-layer numbers from a traced run.

Run from the root of a source checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload verify-large --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Workloads (see workloads.py): verify-large, verify-small, examples-sweep,
frame-io. BENCHMARK.json registers the first three; frame-io runs by name
and in `all`, but its median moves more between runs than a 0.25 bound
allows on a host whose CPU speed varies, so it is not gated.
Load is a closed loop from one process: the next operation starts
when the previous one has finished and been checked. BLAS runs one thread,
so an operation keeps to one CPU like the reference work below.

--trace 0 measures with the program untouched and reports the end-to-end
metrics: op_p50_s, ops_per_s, setup_s (fresh interpreter running
`import framemult.cli`, median of samples taken before and after the
operations), peak_rss_mb (median over operations of the working process's
peak RSS; children are started from launcher.py so that it is their own).
The three times are given at reference speed (calib.py): the run times a
fixed reference work right before and after each operation and each
set-up sample, and scales that sample by the reference's nominal over its
measured duration there, so that the host's changing speed does not move
them. The raw wall-clock median of the operations, op_p90_s
(verify-small only, where a run has at least 100 operations) and
fail_ratio are printed too.

--trace 1 runs untraced operations for half the time, then two identical
traced passes with every public framemult function and the numpy.linalg
factorizations wrapped in span recorders (tracer.py). It reports per-layer
self time, factorization counts, call counts, stage self times and waste
ratios, the tracing overhead, and fails the run unless the two passes make
exactly the same calls. Seconds are wall seconds per operation; counts are
totals over one pass (one CLI call, or the first 100 verify-small
multipliers); the check.* ratios are over the traced operations.

`--workload all` runs every workload both ways. Human-readable lines come
first; the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402  (after the thread settings)

import calib  # noqa: E402
import checks  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_REPEATS = 6           # fresh-interpreter imports before and again after the operations
TRACE_PASSES = 2
LAYERS = ("cli", "formats", "frames", "multipliers", "blockseq", "numerics")
STAGES = {
    "multipliers.build": ("multipliers.build",),
    "multipliers.invert": ("multipliers.invert",),
    "multipliers.induced_duals": ("multipliers.induced_duals",),
    "multipliers.certify_all_duals": ("multipliers.certify_minv1_all_duals",
                                      "multipliers.certify_minv2_all_duals"),
    "multipliers.sampled_dual_residuals": ("multipliers.sampled_dual_residuals",),
    "multipliers.uniqueness_kernel": ("multipliers.uniqueness_kernel",),
    "multipliers.check_prop_q": ("multipliers.check_prop_q",),
    "blockseq.system_frame_bounds": ("blockseq.system_frame_bounds",),
    "blockseq.run_example": ("blockseq.run_example",),
    "formats.frame_from_json": ("formats.frame_from_json",),
    "formats.frame_to_json": ("formats.frame_to_json",),
}
COUNTED = ("frames.canonical_dual", "frames.frame_bounds",
           "multipliers.induced_duals", "multipliers.invert")


class UsageError(Exception):
    pass


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.pop("PYTHONSTARTUP", None)
    return env


def check_import(ctx: wl.Context) -> None:
    """The children must import framemult from the checkout; this also warms the bytecode cache."""
    probe = "import framemult.cli, sys; sys.stdout.write(framemult.cli.__file__)"
    found = subprocess.run([sys.executable, "-c", probe], env=ctx.env, cwd=ctx.root,
                           capture_output=True, text=True, timeout=60)
    expected = os.path.join(ctx.root, "src", "framemult", "cli.py")
    if found.returncode != 0 or os.path.realpath(found.stdout) != os.path.realpath(expected):
        raise UsageError(f"framemult.cli did not import from {expected}: {found.stderr.strip()}")


def measure_setup(ctx: wl.Context) -> list[float]:
    """Seconds for a fresh interpreter to `import framemult.cli`, at reference speed."""
    argv = [sys.executable, "-c", "import framemult.cli"]
    samples = []
    before = calib.sample()
    for _ in range(SETUP_REPEATS):
        wall, code, _, _, stderr = wl.run_child(ctx, argv, "setup", timeout=60)
        if code != 0:
            raise UsageError(f"import framemult.cli failed: {stderr.strip()[-300:]}")
        after = calib.sample()
        samples.append(calib.at_reference_speed(wall, before, after))
        before = after
    return samples


def environment(root: str, seed: int, workload) -> dict:
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "framemult")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    git_sha = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            found = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                   capture_output=True, text=True, timeout=30)
            git_sha = found.stdout.strip() or None
        except OSError:  # no git on this machine
            pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
        "workload": workload.name,
        "shape": workload.shape,
    }


def quantile_summary(ops: list[wl.Op]) -> dict:
    times = [op.ref_s for op in ops]
    out = {"op_p50_s": statistics.median(times), "ops_per_s": len(times) / sum(times)}
    if len(times) >= 100:
        out["op_p90_s"] = statistics.quantiles(times, n=10)[-1]
    return out


def failure_counts(ops: list[wl.Op]) -> tuple[int, int]:
    return (sum(op.status == checks.FAILED for op in ops),
            sum(op.status == checks.DEFECT for op in ops))


def end_to_end(ctx: wl.Context, workload, seconds: float) -> tuple[dict, list[wl.Op], dict]:
    check_import(ctx)
    setup = measure_setup(ctx)
    workload.prepare(ctx)
    ops = workload.run(ctx, seconds)
    setup += measure_setup(ctx)
    failed, defect = failure_counts(ops)
    metrics = quantile_summary(ops)
    metrics["setup_s"] = statistics.median(setup)
    metrics["peak_rss_mb"] = statistics.median(op.rss_kb for op in ops) / 1024.0
    extra = {"op_p90_s": metrics.pop("op_p90_s", None),
             "op_p50_wall_s": statistics.median(op.wall_s for op in ops),
             "fail_ratio": (failed + defect) / len(ops),
             "scale_defect_ratio": defect / len(ops)}
    return metrics, ops, extra


EMPTY_SUMMARY = {"by_name": {}, "spans": 0, "blocks": 0}


def call_signature(summary: dict) -> tuple:
    return ({n: v["calls"] for n, v in summary["by_name"].items()},
            summary["spans"], summary["blocks"])


def layer_metrics(passes: list[wl.Traced]) -> dict:
    """Metrics from identical traced passes: seconds per operation, counts per pass."""
    summaries = [p.summary or EMPTY_SUMMARY for p in passes]
    count = passes[0].count
    first = summaries[0]

    def summed(summary, match, key):
        return sum(v[key] for n, v in summary["by_name"].items() if match(n))

    def seconds(match, key="self_s"):
        return statistics.fmean(summed(s, match, key) for s in summaries) / count

    def calls(match):
        return summed(first, match, "calls")

    is_factorization = lambda n: n.startswith("numerics.linalg.")
    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = seconds(lambda n, p=layer + ".": n.startswith(p))
    m["numerics.factorizations"] = calls(is_factorization)
    m["numerics.factorization_s"] = seconds(is_factorization, "total_s")
    for name in COUNTED:
        m[f"{name}.calls"] = calls(lambda n, x=name: n == x)
    m["blockseq.blocks_swept"] = first["blocks"]
    for stage, members in STAGES.items():
        m[f"{stage}.self_s"] = seconds(lambda n, x=members: n in x)
    m["frames.canonical_dual.per_op"] = m["frames.canonical_dual.calls"] / count
    m["multipliers.induced_duals.per_op"] = m["multipliers.induced_duals.calls"] / count
    m["numerics.factorizations.per_op"] = m["numerics.factorizations"] / count
    m["trace.spans"] = first["spans"]
    return m


def traced(ctx: wl.Context, workload, seconds: float) -> tuple[dict, list[wl.Op], bool]:
    check_import(ctx)
    workload.prepare(ctx)
    plain = workload.run(ctx, seconds / 2.0)
    passes = [workload.run_traced(ctx) for _ in range(TRACE_PASSES)]
    ops = plain + [op for p in passes for op in p.ops]
    repeat = (all(p.summary for p in passes)
              and all(call_signature(p.summary) == call_signature(passes[0].summary)
                      for p in passes))

    m = layer_metrics(passes)
    m["formats.bytes_in"], m["formats.bytes_out"] = workload.bytes_in_out(ctx)
    traced_p50 = statistics.median(op.wall_s for p in passes for op in p.ops)
    plain_p50 = statistics.median(op.wall_s for op in plain)
    m["trace.op_p50_s"] = traced_p50
    m["trace.untraced_op_p50_s"] = plain_p50
    m["trace.overhead_s"] = traced_p50 - plain_p50
    m["trace.counts_repeat"] = 1 if repeat else 0
    traced_ops = ops[len(plain):]
    failed, defect = failure_counts(traced_ops)
    m["check.fail_ratio"] = (failed + defect) / len(traced_ops)
    m["check.scale_defect_ratio"] = defect / len(traced_ops)
    return m, ops, repeat


def load_spec() -> dict:
    with open(os.path.join(os.path.dirname(wl.HERE), "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


UNITS = {"op_p50_s": "s", "op_p90_s": "s", "ops_per_s": "1/s", "setup_s": "s",
         "peak_rss_mb": "MB", "op_p50_wall_s": "s",
         "fail_ratio": "1", "scale_defect_ratio": "1"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.startswith("formats.bytes"):
        return "B"
    if name.endswith(".per_op"):
        return "calls/op"
    if name.startswith(("check.", "trace.counts")):
        return "1"
    return "count"


def run_workload(root: str, name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = wl.WORKLOADS[name]
    work = os.path.join(root, ".bench_work", f"{name}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        with wl.Launcher(child_env(root), root) as launcher:
            ctx = wl.Context(root=root, work=work, env=child_env(root), seed=seed,
                             launcher=launcher)
            env = environment(root, seed, workload)
            if trace:
                metrics, ops, repeat = traced(ctx, workload, seconds)
                units = {k: layer_unit(k) for k in metrics}
                extra = {}
            else:
                metrics, ops, extra = end_to_end(ctx, workload, seconds)
                units = {k: UNITS[k] for k in metrics}
                repeat = True
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed, _ = failure_counts(ops)
    details = sorted({op.detail for op in ops if op.status == checks.FAILED and op.detail})
    return {"workload": name, "trace": trace, "env": env, "metrics": metrics, "units": units,
            "extra": extra, "attempted": len(ops), "failed": failed,
            "correct": failed == 0 and repeat, "failures": details[:5]}


def print_result(result: dict) -> None:
    head = f"== {result['workload']} ({'traced' if result['trace'] else 'untraced'})"
    print(head, f"attempted={result['attempted']} failed={result['failed']}")
    print("env", json.dumps(result["env"], sort_keys=True))
    for key, value in result["metrics"].items():
        suffix = f" (n={result['attempted']})" if key == "op_p50_s" else ""
        print(f"{key} {value:.6g} {result['units'][key]}{suffix}")
    for key, value in result["extra"].items():
        if value is not None:
            print(f"{key} {value:.6g} {UNITS[key]}")
    for line in result["failures"]:
        print("failure:", line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "framemult", "cli.py")):
        print(f"error: no framemult source under {root}/src; run from the checkout root",
              file=sys.stderr)
        return 2
    spec = load_spec()

    if args.workload == "all":
        jobs = [(name, trace) for name in wl.WORKLOADS for trace in (False, True)]
    else:
        jobs = [(args.workload, bool(args.trace))]
    try:
        results = [run_workload(root, name, args.seed, args.seconds, trace)
                   for name, trace in jobs]
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for result in results:
        print_result(result)

    if len(results) == 1:
        result = results[0]
        wanted = [m["name"] for m in spec["per_layer" if result["trace"] else "end_to_end"]]
        metrics = {k: {"value": result["metrics"][k], "unit": result["units"][k]} for k in wanted}
    else:
        metrics = {f"{r['workload']}:{k}": {"value": v, "unit": r["units"][k]}
                   for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
