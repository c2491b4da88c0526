"""Child process that runs framemult in process for the benchmark.

    worker.py small --seed S --out RESULT [--seconds T | --count K] [--spans FILE]
        Stream of small multipliers through the --verify-all calls, in process.
    worker.py cli --spans FILE -- ARGS...
        One traced `framemult ARGS...` invocation.

With --spans, ``tracer.Recorder`` times the import of every framemult
module and wraps its public functions before any call is made; the spans
are written to FILE when the work is done.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

import calib
import checks
from tracer import Recorder

REFERENCE_EVERY_S = 0.4     # time the reference work this often between operations


def small_instance(seed: int, index: int):
    """Instance ``index`` of the verify-small stream for ``seed``.

    Drawn like the acceptance fuzz (d in 1..6, N in d..12, complex Gaussian
    frames, semi-normalized symbol, multiplier condition number <= 1e8).
    Returns the unscaled draw, the scales s = 10^U(-8,8) for both frames and
    t = 10^U(-4,4) for the symbol, and the sampling seed. Rescaling leaves
    every asserted finding mathematically true.
    """
    rng = np.random.default_rng([seed, index])
    while True:
        dim = int(rng.integers(1, 7))
        size = int(rng.integers(dim, 13))
        phi = (rng.standard_normal((size, dim)) + 1j * rng.standard_normal((size, dim))) / math.sqrt(2.0)
        psi = (rng.standard_normal((size, dim)) + 1j * rng.standard_normal((size, dim))) / math.sqrt(2.0)
        m = rng.uniform(0.5, 2.0, size) * np.exp(2j * np.pi * rng.uniform(size=size))
        matrix = phi.T @ (m[:, None] * np.conj(psi))
        if np.linalg.cond(matrix) <= 1e8:
            break
    s = 10.0 ** rng.uniform(-8.0, 8.0)
    t = 10.0 ** rng.uniform(-4.0, 4.0)
    return phi, psi, m, s, t, int(rng.integers(2 ** 31))


def verify_bundle(phi, psi, m, seed: int) -> tuple[str, dict[str, bool]]:
    """What `multiplier --verify-all` runs after parsing: the CLI's own bundle and verdict."""
    # main() has imported these already, after the traced run's import timer
    import framemult.cli as cli
    import framemult.frames as fr
    import framemult.multipliers as mp

    tol = cli.ToleranceConfig(rel_eps=cli.DEFAULT_REL_EPS, cond_max=cli.DEFAULT_COND_MAX)
    mult = mp.build(mp.Symbol(m), fr.FiniteFrame(phi), fr.FiniteFrame(psi))
    mp.invert(mult, tol)
    cli.condition_number(mult.matrix)  # the CLI's `invertible` finding
    findings: list[dict] = []
    cli._verify_bundle(mult, tol, seed, findings)
    return cli._verdict(findings), checks.asserted_flags(findings)


def expected_findings(m) -> dict[str, bool]:
    expected = checks.VERIFY_ALL
    moduli = np.abs(m)
    if np.ptp(moduli) <= 1e-9 * np.max(moduli):  # e.g. N = 1
        expected = dict(expected, constant_modulus_chain=True)
    return expected


def judge_small(phi, psi, m, s, t, dual_seed, verdict, flags, recorder) -> tuple[str, str]:
    """Status of one rescaled operation; the DEFECT verdict needs a clean run at s = t = 1."""
    expected = expected_findings(m)
    status = checks.classify(verdict, flags, "pass", expected, tolerated=checks.SCALE_DEFECT)
    if status == checks.DEFECT:
        if recorder is not None:
            recorder.current_op = -1  # spans of op -1 are left out of the summary
        try:
            status = checks.classify(*verify_bundle(phi, psi, m, dual_seed), "pass", expected)
        except Exception:  # the unscaled draw fails too: a failure, not the scale defect
            status = checks.FAILED
        status = checks.DEFECT if status == checks.OK else checks.FAILED
    if status != checks.FAILED:
        return status, ""
    wrong = sorted(n for n in expected.keys() | flags.keys() if flags.get(n) != expected.get(n))
    return status, f"findings differ from expected at s={s:.3g}, t={t:.3g}: {wrong}"


def run_small(args, recorder: Recorder | None) -> None:
    """Only the bundle is timed; drawing, checking, the s = t = 1 re-run and the
    reference work (calib.py) are not."""
    times, statuses, errors = [], [], []
    # op i lies between references[k] and references[k + 1], k = reference_index[i]
    references, reference_index = [], []
    started = time.perf_counter()
    next_reference = started
    index = 0
    while (index < args.count if args.count
           else index == 0 or time.perf_counter() - started < args.seconds):
        if recorder is None and time.perf_counter() >= next_reference:
            references.append(calib.reference())
            next_reference = time.perf_counter() + REFERENCE_EVERY_S
        reference_index.append(len(references) - 1)
        phi, psi, m, s, t, dual_seed = small_instance(args.seed, index)
        if recorder is not None:
            recorder.current_op = index
        t0 = time.perf_counter()
        try:
            verdict, flags = verify_bundle(phi * s, psi * s, m * t, dual_seed)
        except Exception as exc:  # any exception is a failed operation
            times.append(time.perf_counter() - t0)
            status, detail = checks.FAILED, f"{type(exc).__name__}: {exc}"
        else:
            times.append(time.perf_counter() - t0)
            status, detail = judge_small(phi, psi, m, s, t, dual_seed, verdict, flags, recorder)
        statuses.append(status)
        if detail:
            errors.append(f"op {index}: {detail}")
        index += 1
    ref_times = [0.0] * len(times)
    if recorder is None:
        references.append(calib.reference())
        ref_times = [calib.at_reference_speed(wall, references[k], references[k + 1])
                     for wall, k in zip(times, reference_index)]
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump({"times": times, "statuses": statuses, "errors": errors[:5],
                   "ref_times": ref_times}, handle)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    small = sub.add_parser("small")
    small.add_argument("--seed", type=int, required=True)
    small.add_argument("--seconds", type=float, default=0.0)
    small.add_argument("--count", type=int, default=0)
    small.add_argument("--spans", default=None)
    small.add_argument("--out", required=True)
    cli = sub.add_parser("cli")
    cli.add_argument("--spans", required=True)
    cli.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()

    recorder = None
    if args.spans:
        recorder = Recorder()
        recorder.time_imports()
    import framemult.cli  # the package loads here, after the import timer
    if recorder is not None:
        recorder.install()
    try:
        if args.mode == "small":
            run_small(args, recorder)
            return 0
        argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
        return framemult.cli.main(argv)
    finally:
        if recorder is not None:
            recorder.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
