"""The benchmark's operations, run in process and judged by its own checks.

The benchmark in ``perfbench/`` calls framemult by name: the in-process
``--verify-all`` bundle of ``worker.verify_bundle`` and the CLI commands of
its workloads. These tests run a small share of each workload through the
benchmark's own generators and ``checks.classify``, so a change that breaks
a name or a verdict the benchmark relies on fails here. The benchmark files
are imported, never changed.
"""

import inspect
import json
import os
import subprocess
import sys

import pytest

import framemult.cli as cli
import framemult.multipliers as mp
from framemult.cli import main
from framemult.frames import FiniteFrame
from framemult.numerics import frobenius

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)
sys.dont_write_bytecode, _writes_bytecode = True, sys.dont_write_bytecode  # no .pyc in perfbench/
import checks  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
sys.dont_write_bytecode = _writes_bytecode


@pytest.mark.parametrize("seed", [11, 54])
def test_verify_small_draws_check_ok(seed):
    # the rescaled draws the worker times, judged with no tolerated finding
    for index in range(100):
        phi, psi, m, s, t, dual_seed = worker.small_instance(seed, index)
        verdict, flags = worker.verify_bundle(phi * s, psi * s, m * t, dual_seed)
        status = checks.classify(verdict, flags, "pass", worker.expected_findings(m))
        assert status == checks.OK, (index, verdict, flags)


def _fresh(obj):
    """A copy of a multiplier, frame or symbol with every cache empty; anything else as is."""
    if isinstance(obj, mp.Multiplier):
        return mp.Multiplier(_fresh(obj.symbol), _fresh(obj.phi), _fresh(obj.psi))
    if isinstance(obj, FiniteFrame):
        return FiniteFrame(obj.synthesis.T)
    if isinstance(obj, mp.Symbol):
        return mp.Symbol(obj.values)
    return obj


class FreshPerCall:
    """A module whose functions are called with fresh copies of their arguments."""

    def __init__(self, module):
        self._module = module

    def __getattr__(self, name):
        value = getattr(self._module, name)
        if not inspect.isfunction(value):
            return value

        def call(*args, **kwargs):
            return value(*map(_fresh, args), **{key: _fresh(v) for key, v in kwargs.items()})

        return call


def _bundle_findings(phi, psi, m, seed):
    tol = cli.ToleranceConfig()
    mult = mp.build(mp.Symbol(m), FiniteFrame(phi), FiniteFrame(psi))
    mp.invert(mult, tol)
    findings = []
    cli._verify_bundle(mult, tol, seed, findings)
    return findings


def test_verify_small_findings_do_not_depend_on_cached_decisions_or_norms(monkeypatch):
    # the bundle on one multiplier, whose norms, spectra and residuals are
    # computed once, against the bundle with every call given fresh objects
    # that compute every one of them again, float for float
    draws = [worker.small_instance(11, index) for index in range(200)]
    cached = [_bundle_findings(phi * s, psi * s, m * t, seed)
              for phi, psi, m, s, t, seed in draws]
    monkeypatch.setattr(cli, "mp", FreshPerCall(cli.mp))
    monkeypatch.setattr(cli, "frames", FreshPerCall(cli.frames))
    forgetful = property(lambda obj: None, lambda obj, value: None)
    monkeypatch.setattr(mp.Multiplier, "_canonical_residual", forgetful)
    monkeypatch.setattr(mp.Multiplier, "_minv_norm",
                        lambda mult: frobenius(mult._inverse_matrix()))
    monkeypatch.setattr(FiniteFrame, "norm", property(lambda frame: frobenius(frame.synthesis)))
    for index, (phi, psi, m, s, t, seed) in enumerate(draws):
        assert repr(_bundle_findings(phi * s, psi * s, m * t, seed)) == repr(cached[index]), index


def run_json(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0 and "Traceback" not in captured.err, captured.err
    report = json.loads(captured.out)
    return report["verdict"], checks.asserted_flags(report["findings"])


def test_examples_sweep_checks_ok(capsys):
    verdict, flags = run_json(capsys, ["examples", "run", "--all", "--horizon", "50"])
    assert checks.classify(verdict, flags, "flagged", checks.EXAMPLES_ALL) == checks.OK


@pytest.mark.parametrize("seed", [1, 2])
def test_verify_large_inputs_check_ok(capsys, monkeypatch, tmp_path, seed):
    # VerifyLarge's own input files, at d = 8, N = 32 instead of 128 x 512
    work = tmp_path / "work"
    work.mkdir()
    large = workloads.WORKLOADS["verify-large"]
    small = workloads.VerifyLarge(name=large.name, why=large.why, shape={"d": 8, "N": 32},
                                  expected_verdict=large.expected_verdict,
                                  expected=large.expected)
    small.prepare(workloads.Context(root=str(tmp_path), work=str(work), env={}, seed=seed,
                                    launcher=None))
    monkeypatch.chdir(tmp_path)
    verdict, flags = run_json(capsys, small.args)
    assert checks.classify(verdict, flags, small.expected_verdict, small.expected) == checks.OK


def test_traced_examples_run_records_blockseq_spans(tmp_path):
    # examples-sweep's traced pass: the worker imports the CLI, then wraps
    # every package module, blockseq included, before the command loads it
    spans = str(tmp_path / "spans.bin")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")  # no .pyc in perfbench/
    result = subprocess.run([sys.executable, os.path.join(PERFBENCH, "worker.py"), "cli",
                             "--spans", spans, "--", "examples", "run", "--all"],
                            capture_output=True, text=True, env=env, cwd=str(tmp_path))
    assert result.returncode == 0 and "Traceback" not in result.stderr, result.stderr
    assert json.loads(result.stdout)["verdict"] == "flagged"
    summary = tracer.summarize(spans)
    assert summary["by_name"]["blockseq.run_example"]["calls"] == 4, summary["by_name"].keys()
