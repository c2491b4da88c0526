"""The package is what the CLI reaches.

The CLI case list below covers every command and branch. It runs in
process under ``sys.setprofile``, with the package imported afresh
inside the profile so that the code run at import counts as well. Every
function defined in the package must be entered, except the independent
routes the tests use as oracles and the one function the benchmark alone
calls. A function that nothing reaches any more is either connected to
the CLI or deleted; reference routes that only tests need live in
``oracles.py``.
"""

import atexit
import contextlib
import gc
import inspect
import io
import json
import os
import subprocess
import sys

import numpy as np

import framemult

PACKAGE_DIR = os.path.dirname(os.path.abspath(framemult.__file__))
# the oracle route, and numerics.condition_number, which perfbench/worker.py calls through cli
NOT_REACHED = {"multipliers.apply_termwise", "numerics.condition_number"}


def function_codes(code, module):
    """(module, name, first line) of every function, lambda and comprehension in ``code``.

    The first line tells apart functions of one name, such as methods of
    different classes.
    """
    for const in code.co_consts:
        if inspect.iscode(const):
            if const.co_flags & inspect.CO_NEWLOCALS:
                yield module, const.co_name, const.co_firstlineno
            yield from function_codes(const, module)


def defined_functions():
    found = set()
    for filename in sorted(os.listdir(PACKAGE_DIR)):
        if filename.endswith(".py"):
            path = os.path.join(PACKAGE_DIR, filename)
            with open(path, encoding="utf-8") as handle:
                code = compile(handle.read(), path, "exec")
            found.update(function_codes(code, filename[:-3]))
    return found


def pairs(values):
    return np.stack([values.real, values.imag], axis=-1).tolist()


def write(directory, name, doc, **dump_options):
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, **dump_options)
    return path


def cli_cases(directory):
    rng = np.random.default_rng(5)
    gaussian = lambda d, n: (rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))) / np.sqrt(2.0)
    phi = write(directory, "phi.json", {"dim": 3, "vectors": pairs(gaussian(3, 6))})
    psi = write(directory, "psi.json", {"dim": 3, "vectors": pairs(gaussian(3, 6))})
    square = write(directory, "square.json", {"dim": 3, "vectors": pairs(gaussian(3, 3))})
    flat = write(directory, "flat.json", {"dim": 3, "vectors": pairs(np.tile(gaussian(3, 1), (6, 1)))})
    moduli = rng.uniform(0.5, 2.0, 6)
    phases = np.exp(2j * np.pi * rng.uniform(size=6))
    symbols = [write(directory, "gaussian_symbol.json", {"values": pairs(moduli * phases)}),
               write(directory, "unimodular_symbol.json", {"values": pairs(phases)})]
    # keys reversed and indented, for the vector-by-vector decoder's whitespace and key order
    pretty = write(directory, "pretty.json", {"vectors": pairs(gaussian(3, 4)), "dim": 3}, indent=2)
    # documents the scanner refuses, each worded by a walk of its whole-document decode
    bad = write(directory, "bad.json", {"dim": 2, "vectors": [[[1, 0], [0, 1]], [[1, 0], ["x", 0]]]})
    extra = write(directory, "extra.json", {"dim": 3, "vectors": pairs(gaussian(3, 5)), "note": "x"})
    bad_symbol = write(directory, "bad_symbol.json", {"values": [[1, 0], [0, 1], [1]]})
    dual = os.path.join(directory, "dual.json")

    cases = [["examples", "list"], ["examples", "run", "--all", "--horizon", "50"],
             ["frame-info", bad], ["frame-info", extra, "--dual-out", dual],
             ["multiplier", "--symbol", bad_symbol, "--phi", phi, "--psi", psi]]
    cases += [["frame-info", frame, "--dual-out", dual] for frame in (phi, flat, square, pretty)]
    for symbol in symbols:
        sides = ["multiplier", "--symbol", symbol, "--phi", phi, "--psi", psi]
        cases += [sides + ["--verify-all", "--seed", "1"], sides + ["--invert", "--induced-duals"]]
    cases.append(["multiplier", "--symbol", symbols[0], "--phi", phi, "--psi", flat,
                  "--verify-all", "--seed", "1"])
    return cases


@contextlib.contextmanager
def fresh_package():
    """Import the package anew inside the block and put the loaded modules back after it."""
    ours = lambda name: name == "framemult" or name.startswith("framemult.")
    saved = {name: module for name, module in sys.modules.items() if ours(name)}
    for name in saved:
        del sys.modules[name]
    try:
        yield
    finally:
        for name in [name for name in sys.modules if ours(name)]:
            del sys.modules[name]
        sys.modules.update(saved)


def test_every_package_function_is_reached_by_the_cli(tmp_path, monkeypatch):
    cases = cli_cases(str(tmp_path))
    # the first case goes through the process entry, with the end of the process stubbed out
    monkeypatch.setattr(atexit, "_run_exitfuncs", lambda: None)
    monkeypatch.setattr(os, "_exit", lambda code: codes.append(code))
    entered = set()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(PACKAGE_DIR):
            module = os.path.splitext(os.path.basename(code.co_filename))[0]
            entered.add((module, code.co_name, code.co_firstlineno))

    codes = []
    with fresh_package():
        sys.setprofile(profile)
        try:
            import framemult.cli as cli

            for argv in cases:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    if argv is cases[0]:
                        cli.entry(argv)
                    else:
                        codes.append(cli.main(argv))
        finally:
            sys.setprofile(None)
            gc.enable()
    assert codes == [0] * 2 + [2] * 3 + [0] * (len(cases) - 5)
    missed = {f"{module}.{name}" for module, name, _ in defined_functions() - entered}
    assert missed == NOT_REACHED, sorted(missed ^ NOT_REACHED)


def test_importing_the_package_loads_no_submodule():
    probe = "import sys, framemult; print('framemult.frames' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(PACKAGE_DIR))
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env=env, check=True)
    assert result.stdout.strip() == "False"


# the CLI modules a fresh interpreter holds after `import framemult.cli` and
# one `cli.main(argv)`, with hashlib, which formats brings in, dataclasses
# and copy, which no command needs: a frozen dataclass generates its methods
# with exec at import, and scipy, sympy and mpmath, which may be installed
# next to numpy but are no dependency
FOREIGN = {"scipy", "sympy", "mpmath"}
WATCHED = ("hashlib", "dataclasses", "copy", *sorted(FOREIGN))
LOADED_PROBE = f"""
import contextlib, io, sys
import framemult.cli as cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(code, *sorted(n for n in sys.modules if n.startswith("framemult.") or n in {WATCHED!r}))
"""


def loaded_by(argv):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(PACKAGE_DIR))
    result = subprocess.run([sys.executable, "-c", LOADED_PROBE, *argv], capture_output=True,
                            text=True, env=env, check=True)
    code, *modules = result.stdout.split()
    return int(code), set(modules)


def test_each_cli_command_imports_only_the_modules_it_runs(tmp_path):
    directory = str(tmp_path)
    phi = write(directory, "phi.json", {"dim": 1, "vectors": [[[1.0, 0.0]], [[0.0, 1.0]]]})
    symbol = write(directory, "symbol.json", {"values": [[1.0, 0.0], [2.0, 0.0]]})
    multiplier = ["multiplier", "--symbol", symbol, "--phi", phi, "--psi", phi,
                  "--verify-all", "--seed", "1"]
    file_reading = {"framemult.formats", "hashlib"}
    never = {"dataclasses", "copy"} | FOREIGN  # code generating, or no dependency

    code, modules = loaded_by([])
    assert code == 0 and not modules & (file_reading | {"framemult.blockseq"} | never), modules
    code, modules = loaded_by(multiplier)
    assert code == 0 and "framemult.blockseq" not in modules and file_reading <= modules, modules
    assert not modules & never, modules
    code, modules = loaded_by(["frame-info", phi])
    assert code == 0 and file_reading <= modules and not modules & never, modules
    for examples in (["examples", "list"], ["examples", "run", "--all", "--horizon", "3"]):
        code, modules = loaded_by(examples)
        assert code == 0 and not modules & (file_reading | never), modules
        assert "framemult.blockseq" in modules, modules
