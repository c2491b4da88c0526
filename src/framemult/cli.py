"""Command line interface emitting JSON reports.

Three subcommands: ``frame-info`` summarizes one frame file, ``multiplier``
builds a multiplier from three files and optionally runs the full
verification bundle, and ``examples`` lists or runs the prebuilt example
systems. Every run prints a single JSON report to stdout; reports carry no
timestamps and are serialized with sorted keys, so identical inputs (and
the same --seed where sampling is involved) give byte-identical output.

``multiplier --verify-all`` certifies each inverse identity for every dual
of its side and cross-checks each certificate on three random duals, whose
residuals are read off the certificate's affine defect. One generator,
seeded by --seed, draws the input side's duals and then the output side's.

Reports are strict JSON: a float that is not finite (NaN or an infinity,
e.g. the singular values of a matrix that left the double range) is
written as null.

Exit code 0 means the report was produced, whatever its verdict says;
exit code 2 is reserved for usage and input errors (unreadable or
malformed files, mismatched dimensions, symbol entries that are zero or
whose reciprocal overflows where a reciprocal is required, unknown
example names, an example name, --all or --horizon that the examples
action does not take, --verify-all without --seed, tolerances
ToleranceConfig rejects such as a --tol-rel outside (0, 1), output paths
that cannot be written, a report that cannot be written to stdout, such as
a pipe whose reader has gone, a full disk or a closed descriptor). Those
print one ``error:`` line to stderr and no report. Options argparse rejects
exit 2 with its usage message. A line stderr does not take is lost, and
the exit code stays. A written dual goes to its file a vector at a time,
so a write that fails midway (a full disk) exits 2 and leaves the part
already written in the file, which is then not a valid document.

Each command imports only the modules it runs. ``frames``,
``multipliers``, ``numerics``, ``errors`` and ``report`` load with this
module, since every command uses them. ``formats`` (and with it
``hashlib``) loads in ``frame-info`` and ``multiplier``, the commands that
read files, and ``blockseq`` in ``examples`` alone. Every run is a fresh
interpreter, and where bytecode is not cached (PYTHONDONTWRITEBYTECODE)
each imported module is compiled from source, so source size is start-up
time: a ``multiplier`` run does not compile ``blockseq``, and
``examples`` neither compiles ``formats`` nor loads the OpenSSL binding.

A process runs ``entry``, not ``main``: the ``framemult`` command and
``python -m framemult.cli`` both do. Run as ``__main__``, this module
switches the collector off before its first import, so importing numpy
and the package runs none of the 34 collections (about 4.5 ms) it did;
one may still run while the interpreter compiles this module's source.
``entry`` switches it off too, runs ``main``, then runs the atexit hooks,
flushes stdout and stderr and ends the process with ``os._exit``,
skipping the shutdown collections, the clearing of modules and the
finalizers of what the run left (about 7 ms). The installed script
imports this module before it calls ``entry``, so it still collects
during its imports. A plain import keeps the collector on, and ``main``
switches nothing off and ends nothing, because tests and the benchmark
worker call it in process. A run leaves the same cyclic garbage whatever
its work (its parser), so a process that never collects grows by no more
than that.
"""

import gc

if __name__ == "__main__":  # pragma: no cover - a process run collects nothing, imports included
    gc.disable()

import argparse
import atexit
import contextlib
import errno
import json
import math
import os
import sys

from . import frames
from . import multipliers as mp
from .errors import (
    DimensionMismatch,
    ImplicationViolated,
    NotAFrame,
    NotInvertible,
    ParseError,
    UnknownExample,
    ZeroSymbolEntry,
)
from .numerics import (
    DEFAULT_COND_MAX,
    DEFAULT_REL_EPS,
    ToleranceConfig,
    condition_number,  # noqa: F401 - perfbench/worker.py calls cli.condition_number
)
from .report import finding
from .report import verdict as _verdict

USAGE_ERROR = 2


class UsageError(Exception):
    """A bad option value or an unwritable output path; main exits 2."""


# ------------------------------------------------------------------ reporting


def _load(path: str, where: str, load, inputs: dict):
    """The object ``load`` reads from ``path``, recording its path and sha256 under ``where``."""
    obj, digest = load(path, where)
    inputs[where] = {"path": path, "sha256": digest}
    return obj


def _emit(args, command: str, inputs: dict, findings: list[dict]) -> int:
    report = {
        "command": command,
        "inputs": inputs,
        "tolerances": {"rel_eps": args.tol_rel, "cond_max": args.cond_max},
        "findings": findings,
        "verdict": _verdict(findings),
    }
    text = json.dumps(_finite_or_null(report), sort_keys=True, allow_nan=False,
                      indent=2 if args.pretty else None) + "\n"
    if args.out:
        _write_text(args.out, [text])
    failure = _write_stream(sys.stdout, text)
    if failure:
        raise UsageError(f"cannot write the report to stdout: {failure}")
    return 0


def _write_stream(stream, text: str) -> str | None:
    """Write ``text`` to a standard stream and flush it; the reason it failed, if it did.

    An empty ``text`` is not written, so it only flushes: an unbuffered
    stream that has dropped a failed write has nothing left to fail on,
    while a write of no bytes to a full device still fails. A stream that
    fails is closed: that drops what it still buffers, which the
    interpreter's flush at exit would try again and fail on, printing
    "Exception ignored" and exiting 120. A closed stream fails, as does
    None, the stream of a descriptor closed as the process started.
    """
    if stream is None or stream.closed:
        return os.strerror(errno.EBADF)
    try:
        if text:
            stream.write(text)
        stream.flush()
    except OSError as exc:
        with contextlib.suppress(OSError):
            stream.close()
        return exc.strerror or str(exc)


def _finite_or_null(obj):
    """``obj`` with every float that is not finite replaced by None, which JSON writes as null."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _finite_or_null(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(value) for value in obj]
    return obj


def _write_text(path: str, pieces) -> None:
    """Write the pieces of text one after another to a new file at ``path``."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(pieces)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _tolerances(args) -> ToleranceConfig:
    """The tolerance policy of the shared options, checked before any command runs."""
    try:
        return ToleranceConfig(rel_eps=args.tol_rel, cond_max=args.cond_max)
    except ValueError as exc:
        message = f"--tol-rel {args.tol_rel}, --cond-max {args.cond_max}: {exc}"
        raise UsageError(message) from None


# ------------------------------------------------------------------ frame-info


def cmd_frame_info(args) -> int:
    from . import formats

    tol = args.tol
    inputs: dict = {}
    frame = _load(args.frame, "frame", formats.load_frame_file, inputs)
    findings = [
        finding("dimensions", True, asserted=False,
                value={"dim": frame.dim, "size": frame.size}),
    ]
    spans = True
    try:
        lower, upper = frames.frame_bounds(frame, tol)
        findings.append(finding("frame_bounds", True, asserted=False, value=[lower, upper]))
    except NotAFrame as exc:
        spans = False
        findings.append(finding("frame_bounds", False, asserted=False, detail=str(exc)))
    findings.append(finding("riesz_basis", True, asserted=False,
                            value=frames.is_riesz_basis(frame, tol)))

    if args.dual_out:
        if spans:
            dual = frames.canonical_dual(frame, tol)
            _write_text(args.dual_out, formats.frame_text(dual))
            findings.append(finding("canonical_dual_written", True, value=args.dual_out))
            findings.append(finding("canonical_dual_reconstructs",
                                    frames.is_dual(dual, frame, tol)))
        else:
            findings.append(finding(
                "canonical_dual_written", False,
                detail="the vectors do not span, so there is no canonical dual",
            ))
    return _emit(args, "frame-info", inputs, findings)


# ------------------------------------------------------------------ multiplier


def _induced_dual_findings(mult: mp.Multiplier, tol: ToleranceConfig,
                           findings: list[dict]) -> None:
    duals = mp.induced_duals(mult, tol)
    findings.append(finding("induced_dual_of_input_side_is_dual",
                            frames.is_dual(duals.psi_dagger, mult.psi, tol)))
    findings.append(finding("induced_dual_of_output_side_is_dual",
                            frames.is_dual(duals.phi_dagger, mult.phi, tol)))


def _certified_and_sampled(certify, mult: mp.Multiplier, tol: ToleranceConfig,
                           rng) -> tuple[float, float]:
    """One side's certificate residual and the worst residual of three random duals of that side.

    The certificate, which holds an N x d slope, dies when this returns,
    before the other side is certified.
    """
    certificate = certify(mult, tol)
    return certificate.max_residual, mp.sampled_dual_residuals(certificate, 3, rng)


def _verify_bundle(mult: mp.Multiplier, tol: ToleranceConfig, seed: int,
                   findings: list[dict]) -> None:
    """The asserted verification chain for an invertible multiplier."""
    identity_tol = tol.rel_eps * mult.condition_number
    _induced_dual_findings(mult, tol, findings)

    rng = mp.sampling_generator(seed)
    cert1, worst1 = _certified_and_sampled(mp.certify_minv1_all_duals, mult, tol, rng)
    cert2, worst2 = _certified_and_sampled(mp.certify_minv2_all_duals, mult, tol, rng)
    findings.append(finding("inverse_identity_all_input_duals",
                            residual=cert1, tolerance=tol.rel_eps))
    findings.append(finding("inverse_identity_all_output_duals",
                            residual=cert2, tolerance=tol.rel_eps))
    findings.append(finding("sampled_input_duals_match_inverse",
                            residual=worst1, tolerance=identity_tol))
    findings.append(finding("sampled_output_duals_match_inverse",
                            residual=worst2, tolerance=identity_tol))

    kernel = mp.uniqueness_nullity(mult.symbol, tol)
    findings.append(finding("uniqueness_kernel_trivial", kernel == 0, value=kernel))

    eq1_residual = mp.verify_canonical_inversion(mult, tol)
    findings.append(finding("canonical_duals_invert", asserted=False,
                            residual=eq1_residual, tolerance=tol.rel_eps))

    # one report gives both equivalence findings; the chain's stays last
    try:
        report = mp.check_prop_q(mult, tol)
        criteria = finding("inversion_equivalence_criteria", True, value=report.as_dict())
        chain = report.constant_modulus_chain
        chain = None if chain is None else finding("constant_modulus_chain", True, value=chain)
    except ImplicationViolated as exc:
        criteria = finding("inversion_equivalence_criteria", False, detail=str(exc))
        chain = (finding("constant_modulus_chain", False, detail=str(exc))
                 if mult.symbol.has_constant_modulus(tol) else None)
    findings.append(criteria)

    findings.append(finding("weighted_canonical_shortcut", True, asserted=False,
                            value=mp.check_weighted_canonical(mult.phi, mult.symbol, tol)))
    if chain is not None:
        findings.append(chain)


def cmd_multiplier(args) -> int:
    from . import formats

    tol = args.tol
    if args.verify_all and args.seed is None:
        raise UsageError("--verify-all samples random duals and needs --seed")

    inputs: dict = {}
    symbol = _load(args.symbol, "symbol", formats.load_symbol_file, inputs)
    phi = _load(args.phi, "phi", formats.load_frame_file, inputs)
    psi = _load(args.psi, "psi", formats.load_frame_file, inputs)
    mult = mp.build(symbol, phi, psi)

    if args.seed is not None:
        inputs["seed"] = args.seed

    findings = [
        finding("dimensions", True, asserted=False,
                value={"dim": mult.dim, "size": mult.size}),
    ]

    wants_inverse = args.invert or args.induced_duals or args.verify_all
    invertible = True
    if wants_inverse:
        try:
            mp.invert(mult, tol)
            findings.append(finding("invertible", True, asserted=False,
                                    value={"condition": mult.condition_number}))
        except NotInvertible as exc:
            invertible = False
            findings.append(finding("invertible", False, asserted=args.expect_invertible,
                                    detail=str(exc),
                                    value={"sigma_min": exc.sigma_min,
                                           "sigma_max": exc.sigma_max}))

    if invertible and (args.induced_duals or args.verify_all):
        if args.verify_all:
            try:
                _verify_bundle(mult, tol, args.seed, findings)
            except NotAFrame as exc:
                findings.append(finding("verification_bundle", False,
                                        detail=f"one side is not a frame: {exc}"))
        else:
            _induced_dual_findings(mult, tol, findings)

    return _emit(args, "multiplier", inputs, findings)


# ------------------------------------------------------------------- examples


def cmd_examples(args) -> int:
    from . import blockseq

    tol = args.tol
    registry = blockseq.example_registry()

    if args.action == "list":
        if args.name or args.all or args.horizon is not None:
            raise UsageError("examples list takes no example name, no --all and no --horizon")
        findings = [
            finding(name, True, asserted=False,
                    value={"summary": entry.summary, "annotations": entry.annotations})
            for name, entry in sorted(registry.items())
        ]
        return _emit(args, "examples", {"action": "list"}, findings)

    if args.all == bool(args.name):
        raise UsageError("examples run takes exactly one of an example name and --all")
    names = sorted(registry) if args.all else [args.name]
    horizon = blockseq.SWEEP_HORIZON if args.horizon is None else args.horizon

    findings = [dict(check, name=f"{name}.{check['name']}")
                for name in names
                for check in blockseq.run_example(name, tol, horizon=horizon)]
    inputs = {"action": "run", "examples": names, "horizon": horizon}
    return _emit(args, "examples", inputs, findings)


# --------------------------------------------------------------------- parser


def _int_at_least(least: int):
    """An argparse type: an integer of at least ``least``."""
    def integer(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as "invalid integer value"
        if value < least:
            raise argparse.ArgumentTypeError(f"expected an integer of at least {least}, got {value}")
        return value
    return integer


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--tol-rel", type=float, default=DEFAULT_REL_EPS,
                        help="relative tolerance for residual checks, in (0, 1)")
    shared.add_argument("--cond-max", type=float, default=DEFAULT_COND_MAX,
                        help="condition-number ceiling for invertibility")
    shared.add_argument("--pretty", action="store_true",
                        help="indent the JSON report")
    shared.add_argument("--out", default=None,
                        help="also write the report to this path")

    parser = argparse.ArgumentParser(
        prog="framemult",
        description="frame multiplier toolbox for inversion and induced dual frames",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_info = sub.add_parser("frame-info", parents=[shared],
                            help="bounds and basis properties of a frame file")
    p_info.add_argument("frame", help="path to a frame JSON document")
    p_info.add_argument("--dual-out", default=None,
                        help="write the canonical dual frame to this path")
    p_info.set_defaults(handler=cmd_frame_info)

    p_mult = sub.add_parser("multiplier", parents=[shared],
                            help="build a multiplier and verify its inverse structure")
    p_mult.add_argument("--symbol", required=True, help="symbol JSON document")
    p_mult.add_argument("--phi", required=True, help="output-side frame JSON document")
    p_mult.add_argument("--psi", required=True, help="input-side frame JSON document")
    p_mult.add_argument("--invert", action="store_true",
                        help="report invertibility")
    p_mult.add_argument("--induced-duals", action="store_true",
                        help="check the two induced dual frames")
    p_mult.add_argument("--verify-all", action="store_true",
                        help="run the full assertion bundle (needs --seed)")
    p_mult.add_argument("--expect-invertible", action="store_true",
                        help="treat non-invertibility as a failure")
    p_mult.add_argument("--seed", type=_int_at_least(0), default=None,
                        help="seed for sampling random duals, a non-negative integer")
    p_mult.set_defaults(handler=cmd_multiplier)

    p_ex = sub.add_parser("examples", parents=[shared],
                          help="list or run the prebuilt example systems")
    p_ex.add_argument("action", choices=["list", "run"])
    p_ex.add_argument("name", nargs="?", default=None,
                      help="example name for the run action")
    p_ex.add_argument("--all", action="store_true", help="run every example")
    p_ex.add_argument("--horizon", type=_int_at_least(1), default=None,
                      help="per-block sweep depth for run")
    p_ex.set_defaults(handler=cmd_examples)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.tol = _tolerances(args)
        return args.handler(args)
    except (UsageError, ParseError, DimensionMismatch, ZeroSymbolEntry, UnknownExample) as exc:
        _write_stream(sys.stderr, f"error: {exc}\n")  # lost, not sent to stdout, if it fails
        return USAGE_ERROR


def entry(argv=None) -> int:
    """``main`` as a process runs it: the process ends here, with no collection and no teardown.

    The collector is off from here on. Once ``main`` is done, or argparse
    has exited, the atexit hooks run, stderr and stdout are flushed and
    ``os._exit`` ends the process with the exit code. A stdout that fails
    to flush what argparse printed to it (``--help`` into a full device or
    a pipe whose reader has gone) gets one ``error:`` line and exit 2, as a
    report does. Only an exception other than SystemExit still returns into
    the interpreter's exit, which prints its traceback. A stderr that
    cannot be written changes no exit code: one closed as the process
    started is replaced by the null device, since argparse prints to stdout
    where sys.stderr is None, and one that fails to flush is closed.
    """
    if sys.stderr is None:
        sys.stderr = open(os.devnull, "w", encoding="utf-8")
    gc.disable()
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse: a rejected option, or --help
        code = exc.code
    atexit._run_exitfuncs()  # CPython's; it clears the hooks, so the interpreter's exit runs none twice
    _write_stream(sys.stderr, "")  # argparse ignores a failed write of its usage message
    # a stdout already closed has failed and been reported, or was never open
    failure = sys.stdout is not None and not sys.stdout.closed and _write_stream(sys.stdout, "")
    if failure:
        _write_stream(sys.stderr, f"error: cannot write to stdout: {failure}\n")
        code = USAGE_ERROR
    os._exit(code)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(entry())
