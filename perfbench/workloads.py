"""The four workloads: their inputs, one operation each, and its check.

Inputs are generated from the seed into the run's work directory; the
program sees only those files (CLI workloads) or the arrays handed to it
(verify-small). Every operation is checked with ``checks.classify``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import calib
import checks
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
LAUNCHER = os.path.join(HERE, "launcher.py")
OP_TIMEOUT_S = 120.0
REFERENCE_SHARE = 0.10      # reference work after each CLI call, as a share of its wall time
SMALL_TRACED_OPS = 100      # verify-small multipliers in one traced pass


class Launcher:
    """run.py's end of launcher.py, which starts every child of one run."""

    def __init__(self, env: dict, cwd: str) -> None:
        self.proc = subprocess.Popen([sys.executable, LAUNCHER], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, env=env, cwd=cwd, text=True)

    def run(self, argv: list[str], out_path: str, err_path: str,
            timeout: float) -> tuple[float, int, int]:
        """Wall seconds, exit code and peak RSS in KiB of one child."""
        request = {"argv": argv, "out": out_path, "err": err_path, "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"launcher exited with code {self.proc.wait()}")
        reply = json.loads(line)
        return reply["wall_s"], reply["code"], reply["maxrss_kb"]

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


@dataclass
class Context:
    root: str           # checkout root, cwd of every child process
    work: str           # scratch directory of this run, inside the checkout
    env: dict           # environment of every child process
    seed: int
    launcher: Launcher  # starts every child


@dataclass
class Op:
    wall_s: float
    status: str
    rss_kb: int = 0
    detail: str = ""
    ref_s: float = 0.0  # wall_s at reference speed (calib.py); 0 for traced operations


@dataclass
class Traced:
    ops: list[Op]
    summary: dict       # tracer.summarize of the pass
    count: int          # operations in the pass


def run_child(ctx: Context, argv: list[str], stem: str,
              timeout: float = OP_TIMEOUT_S) -> tuple[float, int, int, str, str]:
    """Run one child to completion: wall seconds, exit code, max RSS in KiB, stdout, stderr."""
    out_path = os.path.join(ctx.work, stem + ".out")
    err_path = os.path.join(ctx.work, stem + ".err")
    wall, code, maxrss = ctx.launcher.run(argv, out_path, err_path, timeout)
    with open(out_path, encoding="utf-8", errors="replace") as handle:
        stdout = handle.read()
    with open(err_path, encoding="utf-8", errors="replace") as handle:
        stderr = handle.read()
    return wall, code, maxrss, stdout, stderr


def _complex_pairs(values: np.ndarray) -> list:
    return np.stack([values.real, values.imag], axis=-1).tolist()


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)


def _gaussian_frame(rng, dim: int, size: int) -> np.ndarray:
    """Rows are the vectors: size x dim, standard complex Gaussian entries."""
    return (rng.standard_normal((size, dim)) + 1j * rng.standard_normal((size, dim))) / np.sqrt(2.0)


@dataclass
class CliWorkload:
    """A workload whose operation is one `framemult` invocation on fixed inputs."""

    name: str
    why: str
    shape: dict
    expected_verdict: str
    expected: dict[str, bool]
    args: list[str] = field(default_factory=list)
    inputs: list[str] = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)

    def prepare(self, ctx: Context) -> None:
        """Write the inputs and fill in ``args``."""

    def check_outputs(self, ctx: Context) -> str:
        """Check files the operation wrote; return a failure description or ''."""
        return ""

    def _judge(self, ctx: Context, code: int, stdout: str, stderr: str) -> tuple[str, str]:
        if code != 0:
            return checks.FAILED, f"exit code {code}: {stderr.strip()[-300:]}"
        if "Traceback" in stderr:
            return checks.FAILED, stderr.strip()[-300:]
        try:
            report = json.loads(stdout)
            status = checks.classify(report["verdict"], checks.asserted_flags(report["findings"]),
                                     self.expected_verdict, self.expected)
        except (ValueError, KeyError, TypeError) as exc:
            return checks.FAILED, f"unreadable report: {exc}"
        if status != checks.OK:
            return status, f"verdict {report['verdict']}, findings differ from expected"
        problem = self.check_outputs(ctx)
        return (checks.FAILED, problem) if problem else (checks.OK, "")

    def _clear_outputs(self, ctx: Context) -> None:
        for rel in self.outputs:
            path = os.path.join(ctx.root, rel)
            if os.path.exists(path):
                os.remove(path)

    def run(self, ctx: Context, seconds: float) -> list[Op]:
        """Closed loop: invoke the CLI again as soon as the previous call is checked
        and the reference work (calib.py) is timed."""
        argv = [sys.executable, "-m", "framemult.cli", *self.args]
        ops: list[Op] = []
        started = time.perf_counter()
        before = calib.sample()
        while not ops or time.perf_counter() - started < seconds:
            self._clear_outputs(ctx)
            wall, code, rss, stdout, stderr = run_child(ctx, argv, "op")
            after = calib.sample(REFERENCE_SHARE * wall)
            status, detail = self._judge(ctx, code, stdout, stderr)
            ops.append(Op(wall, status, rss, detail,
                          calib.at_reference_speed(wall, before, after)))
            before = after
        return ops

    def run_traced(self, ctx: Context) -> Traced:
        """One CLI invocation inside the span recorder."""
        spans = os.path.join(ctx.work, "spans.bin")
        argv = [sys.executable, WORKER, "cli", "--spans", spans, "--", *self.args]
        self._clear_outputs(ctx)
        wall, code, rss, stdout, stderr = run_child(ctx, argv, "traced")
        status, detail = self._judge(ctx, code, stdout, stderr)
        summary = tracer.summarize(spans) if os.path.exists(spans) else {}
        return Traced([Op(wall, status, rss, detail)], summary, 1)

    def bytes_in_out(self, ctx: Context) -> tuple[int, int]:
        """Bytes of the JSON documents one operation reads and writes."""
        size = lambda rel: os.path.getsize(os.path.join(ctx.root, rel))
        return sum(map(size, self.inputs)), sum(map(size, self.outputs))


class VerifyLarge(CliWorkload):
    def prepare(self, ctx: Context) -> None:
        rng = np.random.default_rng([ctx.seed, 1])
        dim, size = self.shape["d"], self.shape["N"]
        phi = _gaussian_frame(rng, dim, size)
        psi = _gaussian_frame(rng, dim, size)
        m = rng.uniform(0.5, 2.0, size) * np.exp(2j * np.pi * rng.uniform(size=size))
        docs = {"symbol": {"values": _complex_pairs(m)},
                "phi": {"dim": dim, "vectors": _complex_pairs(phi)},
                "psi": {"dim": dim, "vectors": _complex_pairs(psi)}}
        rel = os.path.relpath(ctx.work, ctx.root)
        paths = {key: os.path.join(rel, f"{key}.json") for key in docs}
        for key, doc in docs.items():
            _write_json(os.path.join(ctx.root, paths[key]), doc)
        self.inputs = list(paths.values())
        self.args = ["multiplier", "--symbol", paths["symbol"], "--phi", paths["phi"],
                     "--psi", paths["psi"], "--verify-all", "--seed", str(ctx.seed)]


class FrameIO(CliWorkload):
    def prepare(self, ctx: Context) -> None:
        rng = np.random.default_rng([ctx.seed, 2])
        dim, size = self.shape["d"], self.shape["N"]
        self._frame = _gaussian_frame(rng, dim, size)
        rel = os.path.relpath(ctx.work, ctx.root)
        frame_path = os.path.join(rel, "frame.json")
        dual_path = os.path.join(rel, "dual.json")
        _write_json(os.path.join(ctx.root, frame_path),
                    {"dim": dim, "vectors": _complex_pairs(self._frame)})
        syn = self._frame.T
        self._dual = np.linalg.solve(syn @ np.conj(syn.T), syn).T
        self.inputs, self.outputs = [frame_path], [dual_path]
        self.args = ["frame-info", frame_path, "--dual-out", dual_path]

    def check_outputs(self, ctx: Context) -> str:
        """The written dual must be the canonical dual, computed here independently."""
        try:
            with open(os.path.join(ctx.root, self.outputs[0]), encoding="utf-8") as handle:
                doc = json.load(handle)
            pairs = np.asarray(doc["vectors"], dtype=np.float64)
            dual = pairs[..., 0] + 1j * pairs[..., 1]
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return f"dual output unreadable: {exc}"
        if doc.get("dim") != self.shape["d"] or dual.shape != self._dual.shape:
            return f"dual output has shape {dual.shape}, expected {self._dual.shape}"
        error = np.linalg.norm(dual - self._dual) / np.linalg.norm(self._dual)
        return "" if error <= 1e-8 else f"dual output differs from the canonical dual by {error:.2e}"


class VerifySmall:
    """In-process stream of small rescaled multipliers, run by worker.py."""

    name = "verify-small"
    why = "small rescaled multipliers through the verify-all calls in process: call overhead, no file parsing"
    shape = {"d": "1..6", "N": "d..12", "frame_scale": "10^U(-8,8)", "symbol_scale": "10^U(-4,4)"}

    def prepare(self, ctx: Context) -> None:
        pass

    def _worker(self, ctx: Context, extra: list[str], timeout: float, stem: str):
        out = os.path.join(ctx.work, stem + ".json")
        argv = [sys.executable, WORKER, "small", "--seed", str(ctx.seed), "--out", out, *extra]
        wall, code, rss, _, stderr = run_child(ctx, argv, stem, timeout)
        if code != 0 or not os.path.exists(out):
            return [Op(wall, checks.FAILED, rss, f"worker exit {code}: {stderr.strip()[-300:]}")]
        with open(out, encoding="utf-8") as handle:
            result = json.load(handle)
        detail = "; ".join(result["errors"])
        rows = zip(result["times"], result["statuses"], result["ref_times"])
        return [Op(t, status, rss, detail if status == checks.FAILED else "", ref)
                for t, status, ref in rows]

    def run(self, ctx: Context, seconds: float) -> list[Op]:
        return self._worker(ctx, ["--seconds", str(seconds)], seconds + OP_TIMEOUT_S, "small")

    def run_traced(self, ctx: Context) -> Traced:
        spans = os.path.join(ctx.work, "spans.bin")
        ops = self._worker(ctx, ["--count", str(SMALL_TRACED_OPS), "--spans", spans],
                           OP_TIMEOUT_S, "traced")
        summary = tracer.summarize(spans) if os.path.exists(spans) else {}
        return Traced(ops, summary, SMALL_TRACED_OPS)

    def bytes_in_out(self, ctx: Context) -> tuple[int, int]:
        return 0, 0


WORKLOADS = {w.name: w for w in (
    VerifyLarge(
        name="verify-large",
        why="multiplier --verify-all at d=128, N=512: BLAS-sized numerics, the verification bundle, large-file parsing",
        shape={"d": 128, "N": 512},
        expected_verdict="pass", expected=checks.VERIFY_ALL),
    VerifySmall(),
    CliWorkload(
        name="examples-sweep",
        why="examples run --all at the default horizon 1000: blockseq sweeps over 1x3 blocks, no dense verification bundle",
        shape={"horizon": 1000},
        expected_verdict="flagged", expected=checks.EXAMPLES_ALL,
        args=["examples", "run", "--all"]),
    FrameIO(
        name="frame-io",
        why="frame-info --dual-out on a tall d=32, N=4096 frame: JSON parsing and writing dominate",
        shape={"d": 32, "N": 4096},
        expected_verdict="pass", expected=checks.FRAME_INFO_DUAL),
)}
