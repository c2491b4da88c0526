"""The process entry: what a CLI process runs, and how it ends.

``cli.entry`` runs ``main`` with the collector off and ends the process
itself, skipping the interpreter's teardown; run as ``__main__`` the
module switches the collector off before its first import. These tests
run real child processes: no run may collect on any way out of it, the
atexit hooks must still run, the installed command and ``python -m`` must
both take the entry, and the exit must lose nothing the process wrote.
"""

import contextlib
import gc
import io
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import framemult.cli as cli
import framemult.formats as formats
import framemult.multipliers as mp
from framemult.frames import FiniteFrame
from test_reachability import PACKAGE_DIR, cli_cases, pairs, write

REPO_DIR = os.path.dirname(os.path.dirname(PACKAGE_DIR))
# without PYTHONUNBUFFERED a child's stdout on a file or a pipe is
# block-buffered, as a user's is
CHILD_ENV = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
CHILD_ENV["PYTHONPATH"] = os.path.dirname(PACKAGE_DIR)

# an atexit hook reports how many collections ran from the start of the
# run, and the interpreter's teardown, where it runs, finalizes `mark`;
# cli.entry is imported first, with the collector on, while the installed
# command's entry imports cli, and numpy with it, after it switches the
# collector off
COLLECTION_PROBE = """
import atexit, gc, os, sys
class Mark:
    def __del__(self):
        os.write(2, b"teardown\\n")
mark = Mark()
collections = lambda: sum(stats["collections"] for stats in gc.get_stats())
how = sys.argv[1]
if how == "runpy":
    import runpy
    sys.argv[1:] = ["examples", "list"]
elif how == "script":  # the installed command's entry, which imports cli itself
    from framemult.script import entry
    assert "numpy" not in sys.modules
else:
    from framemult.cli import entry
    assert gc.isenabled()
gc.collect()
before = collections()
atexit.register(lambda: sys.stderr.write(f"collections {collections() - before}\\n"))
if how == "runpy":
    runpy.run_module("framemult.cli", run_name="__main__")
else:
    sys.exit(entry(sys.argv[2:]))
"""


@pytest.mark.parametrize("how, argv, exit_code", [
    ("runpy", [], 0),
    ("script", ["examples", "list"], 0),
    ("entry", ["examples", "list"], 0),
    ("entry", ["examples", "run"], 2),  # a UsageError
    ("entry", ["examples", "list", "--seed", "1"], 2),  # rejected by argparse
])
def test_no_way_out_of_a_process_run_collects_or_tears_down_and_atexit_hooks_still_run(
        how, argv, exit_code):
    result = subprocess.run([sys.executable, "-c", COLLECTION_PROBE, how, *argv],
                            capture_output=True, text=True, env=CHILD_ENV)
    assert result.returncode == exit_code, result.stderr
    assert result.stderr.splitlines()[-1] == "collections 0", result.stderr


def test_a_run_with_the_collector_off_leaves_no_garbage_that_grows_with_the_work(tmp_path):
    # a command leaves the same cyclic garbage whatever the size of its work
    # (none, now that the parser is built once), so a process that never
    # collects holds no more than a fixed amount of it; a multiplier does not
    # refer to its adjoint, so no multiplier, frame, symbol or induced duals
    # is part of it
    rng = np.random.default_rng(3)
    runs = [["examples", "run", "--all", "--horizon", "1000"],
            ["examples", "run", "--all", "--horizon", "100000"]]
    for dim, size in ((6, 24), (24, 96)):
        gaussian = lambda: pairs(rng.standard_normal((size, dim)) + 1j * rng.standard_normal((size, dim)))
        sides = [write(str(tmp_path), f"{name}{dim}.json", {"dim": dim, "vectors": gaussian()})
                 for name in ("phi", "psi")]
        moduli, phases = rng.uniform(0.5, 2.0, size), np.exp(2j * np.pi * rng.uniform(size=size))
        symbol = write(str(tmp_path), f"symbol{dim}.json", {"values": pairs(moduli * phases)})
        runs.append(["multiplier", "--symbol", symbol, "--phi", sides[0], "--psi", sides[1],
                     "--verify-all", "--seed", "1"])
    for argv in runs[::2]:  # the modules each command imports, loaded before counting
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
    gc.collect()
    found = []
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)  # what a collection finds stays in gc.garbage
    try:
        for argv in runs:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0
            found.append(gc.collect())
        kinds = (mp.Multiplier, mp.InducedDuals, mp.Symbol, FiniteFrame)
        held = sorted(type(obj).__name__ for obj in gc.garbage if isinstance(obj, kinds))
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert found[0] == found[1] and found[2] == found[3] and max(found) < 500, found
    assert held == []


def test_the_installed_command_and_the_main_block_run_the_same_function():
    # the installed command runs script.entry, which ends in cli.entry; the
    # main block of cli runs cli.entry
    import framemult.script as script

    with open(os.path.join(REPO_DIR, "pyproject.toml"), encoding="utf-8") as handle:
        pyproject = handle.read()
    with open(cli.__file__, encoding="utf-8") as handle:
        source = handle.read()
    installed = re.search(r'^\[project\.scripts\]\nframemult = "framemult\.script:(\w+)"$',
                          pyproject, re.MULTILINE)
    main_block = re.search(r'^if __name__ == "__main__":.*\n    sys\.exit\((\w+)\(\)\)$',
                           source, re.MULTILINE)
    assert installed and main_block
    assert installed[1] == main_block[1] == "entry"
    ran = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "environ", os.environ.copy())
        patch.setattr(cli, "entry", lambda argv=None: ran.append(argv) or 0)
        try:
            assert script.entry(["examples", "list"]) == 0
        finally:
            gc.enable()
    assert ran == [["examples", "list"]]


# records the BLAS thread variables when numpy is first imported, and what the
# process's environment holds at its exit; the way in is argv[1]
BLAS_PROBE = """
import atexit, importlib.abc, os, sys
NAMES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
seen = []
class Watch(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path, target=None):
        if name == "numpy" and not seen:
            seen.append({n: os.environ.get(n) for n in NAMES})
sys.meta_path.insert(0, Watch())
atexit.register(lambda: sys.stderr.write(repr([seen, {n: os.environ.get(n) for n in NAMES}]) + "\\n"))
how, sys.argv[1:] = sys.argv[1], ["examples", "list"]
if how == "main block":
    import runpy
    runpy.run_module("framemult.cli", run_name="__main__")
elif how == "installed":
    from framemult.script import entry
    sys.exit(entry())
else:
    import framemult.cli
"""


@pytest.mark.parametrize("how", ["main block", "installed", "import"])
@pytest.mark.parametrize("callers", [{}, {"OPENBLAS_NUM_THREADS": "2"}])
def test_a_cli_process_pins_one_blas_thread_before_numpy_loads_unless_its_caller_set_one(
        how, callers):
    # a process started without the variables has each set to 1 before numpy
    # loads, by the main block of cli or by the installed command's entry; a
    # variable the caller set keeps its value; a plain import sets nothing
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {name: value for name, value in CHILD_ENV.items() if name not in names}
    env.update(callers)
    result = subprocess.run([sys.executable, "-c", BLAS_PROBE, how], capture_output=True,
                            text=True, env=env)
    assert result.returncode == 0, result.stderr
    at_numpy, at_exit = eval(result.stderr.splitlines()[-1])
    expected = {name: callers.get(name, None if how == "import" else "1") for name in names}
    assert at_numpy == [expected] and at_exit == expected


def take(path):
    """The bytes of the file at ``path``, which is removed; None where there is no file."""
    if not os.path.exists(path):
        return None
    with open(path, "rb") as handle:
        data = handle.read()
    os.remove(path)
    return data


def overlap_files(directory):
    """A symbol and frame files above formats.OVERLAP_MIN_BYTES: valid, refused by the scanner, not JSON."""
    rng = np.random.default_rng(35)
    dim, size = 48, 192
    gaussian = lambda: pairs(rng.standard_normal((size, dim)) + 1j * rng.standard_normal((size, dim)))
    phases = np.exp(2j * np.pi * rng.uniform(size=size))
    files = {"symbol": write(directory, "big_symbol.json", {"values": pairs(rng.uniform(0.5, 2.0, size) * phases)}),
             "phi": write(directory, "big_phi.json", {"dim": dim, "vectors": gaussian()}),
             "psi": write(directory, "big_psi.json", {"dim": dim, "vectors": gaussian()})}
    refused = {"dim": dim, "vectors": gaussian()}
    refused["vectors"][-1][-1] = ["x", 0]
    files["refused"] = write(directory, "big_refused.json", refused)
    with open(files["phi"], encoding="utf-8") as handle:
        text = handle.read()
    files["not_json"] = os.path.join(directory, "big_not_json.json")
    with open(files["not_json"], "w", encoding="utf-8") as handle:
        handle.write(text[:-10])
    for name in ("phi", "psi", "refused", "not_json"):
        assert os.path.getsize(files[name]) >= formats.OVERLAP_MIN_BYTES
    return files


def test_a_cli_process_writes_what_main_writes_in_process(tmp_path, monkeypatch):
    # stdout is a regular file, so it is block-buffered, as for a user who
    # sends a report to a file; --out goes into each run. A process run
    # decodes the large frame files of the last two cases in two processes,
    # while in process the second is decoded after the first
    directory = str(tmp_path)
    out, stdout_path = os.path.join(directory, "out.json"), os.path.join(directory, "stdout")
    big = overlap_files(directory)
    sides = ["multiplier", "--symbol", big["symbol"], "--phi", big["phi"], "--psi"]
    monkeypatch.setattr(formats, "OVERLAP_MIN_BYTES", 1 << 62)
    for argv in cli_cases(directory) + [sides + [big["psi"], "--verify-all", "--seed", "1"],
                                        sides + [big["refused"], "--invert"]]:
        dual = argv[argv.index("--dual-out") + 1] if "--dual-out" in argv else None
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        dual_in_process = dual and take(dual)

        with open(stdout_path, "wb") as handle:
            result = subprocess.run([sys.executable, "-m", "framemult.cli", *argv, "--out", out],
                                    stdout=handle, stderr=subprocess.PIPE, env=CHILD_ENV)
        report = take(stdout_path)
        assert (result.returncode, result.stderr) == (code, stderr.getvalue().encode()), argv
        assert report == stdout.getvalue().encode(), argv
        if dual:
            assert take(dual) == dual_in_process, argv
        assert take(out) == (report if code == 0 else None), argv


# runs each case of argv[1] through cli.main in a process of one OS thread:
# `serial` raises formats.OVERLAP_MIN_BYTES out of reach, `force` forks a
# child for any second frame file, `crash` kills the child as it starts
# decoding; `build` is "off" (multipliers.BUILD_CHILD_MIN_TERMS out of
# reach), "plain" (off, and multipliers.prepare_verification does nothing:
# the route of a build without `meanwhile`), "force" (a build child for any
# shape), "crash" (a forced build child killed as it starts) or "short" (a
# forced build child that sends half the matrix's bytes). Records the forks, whether a child is left
# after the run, which process opened each input file, the events of the
# run (forks, factorizations, the build and the taking of each child's
# result) and the sha256 of the built matrix. A run that raises gives its
# traceback in place of an exit code. A child that returns from cli.main
# writes to stderr
OVERLAP_PROBE = """
import contextlib, hashlib, io, json, os, signal, sys, traceback, warnings
from framemult.script import one_blas_thread
one_blas_thread()
import numpy as np
import framemult.cli as cli
import framemult.formats as formats
import framemult.multipliers as mp
import framemult.overlap as overlap

cases, log_path = json.loads(sys.argv[1]), sys.argv[2]
log = os.open(log_path, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
watched = {arg for case in cases for arg in case["argv"] if arg.endswith(".json")}
sys.addaudithook(lambda event, args: event == "open" and args[0] in watched
                 and os.write(log, f"{os.getpid()} {args[0]}\\n".encode()))
events = []
os.register_at_fork(after_in_parent=lambda: events.append("fork"))
parent, decode, pays, least = os.getpid(), formats.load_frame_file, formats._overlap_pays, formats.OVERLAP_MIN_BYTES
termwise, build, result, prepare = mp._termwise_matrices, mp.build, overlap.Child.result, mp.prepare_verification

def crash_in_child(path, where):
    if os.getpid() != parent:
        os.kill(os.getpid(), signal.SIGKILL)
    return decode(path, where)

def failing_build_child(*arrays):
    if os.getpid() != parent:
        if case["build"] == "crash":
            os.kill(os.getpid(), signal.SIGKILL)
        return termwise(*arrays).astype(np.complex64)
    return termwise(*arrays)

def recorded_build(*args):
    events.append("build")
    mult = build(*args)
    matrices.append(hashlib.sha256(mult.matrix.tobytes()).hexdigest())
    events.append("built")
    return mult

def recorded_result(child):
    events.append("result")
    return result(child)

for name in ("svd", "eigvalsh", "solve", "inv", "pinv"):
    def counted(a, *args, _name=name, _original=getattr(np.linalg, name), **kwargs):
        events.append([_name, int(np.prod(np.shape(a)[:-2], dtype=int))])
        return _original(a, *args, **kwargs)
    setattr(np.linalg, name, counted)
mp.build, overlap.Child.result = recorded_build, recorded_result

results = []
for case in cases:
    formats.OVERLAP_MIN_BYTES = 1 << 62 if case["serial"] else least
    formats._overlap_pays = (lambda path: True) if case["force"] and not case["serial"] else pays
    formats.load_frame_file = crash_in_child if case["crash"] else decode
    mp.BUILD_CHILD_MIN_TERMS = 1 << 62 if case["build"] in ("off", "plain") else 0
    mp.prepare_verification = (lambda *args: None) if case["build"] == "plain" else prepare
    mp._termwise_matrices = failing_build_child if case["build"] in ("crash", "short") else termwise
    os.ftruncate(log, 0)
    events.clear()
    matrices = []
    stdout, stderr = io.StringIO(), io.StringIO()
    # a fresh record of the warnings shown, as each run is a process of its own
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), warnings.catch_warnings():
        try:
            code = cli.main(case["argv"])
        except Exception:
            code = traceback.format_exc()
    if os.getpid() != parent:
        os.write(2, b"a child returned from cli.main\\n")
        os._exit(1)
    try:
        os.waitpid(-1, os.WNOHANG)
        left = True
    except ChildProcessError:
        left = False
    with open(log_path, encoding="utf-8") as handle:
        opened = sorted((int(pid) == parent, path) for pid, path in map(str.split, handle))
    results.append([code, stdout.getvalue(), stderr.getvalue(), events.count("fork"), left, opened,
                    list(events), matrices])
print(json.dumps(results))
"""


def overlap_runs(directory, cases):
    """[code, stdout, stderr, forks, child left, [(opened by the parent, path)]] of each case."""
    env = dict(CHILD_ENV, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    result = subprocess.run([sys.executable, "-c", OVERLAP_PROBE, json.dumps(cases),
                             os.path.join(directory, "opened.log")],
                            capture_output=True, text=True, env=env)
    assert (result.returncode, result.stderr) == (0, "")
    return json.loads(result.stdout)


def can_overlap():
    """Whether this host lets a process of one thread fork a child to decode a file."""
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) > 1 and os.path.isdir("/proc/self/task"))


def test_the_overlapped_decode_gives_the_serial_errors_in_their_order_and_leaves_no_child(tmp_path):
    # each run goes once with a child for a large second frame file and once
    # with the size out of reach; the same code, stdout and stderr both ways,
    # the symbol's error before phi's before psi's, and no child left after
    # any run. A child that fails to open, fails to decode or dies leaves the
    # decode to this process
    directory = str(tmp_path)
    big = overlap_files(directory)
    bad_symbol = write(directory, "bad_symbol.json", {"values": [[1, 0], [0]]})
    missing = os.path.join(directory, "missing.json")
    runs = [  # symbol, phi, psi, force a child, crash it, the error's source
        (big["symbol"], big["phi"], big["psi"], False, False, None),
        (big["symbol"], big["not_json"], big["refused"], False, False, "phi"),
        (big["symbol"], big["phi"], big["refused"], False, False, "psi"),
        (big["symbol"], big["phi"], big["not_json"], False, False, "psi"),
        (big["symbol"], big["refused"], big["psi"], False, False, "phi"),
        (big["symbol"], big["phi"], missing, False, False, "psi"),
        (big["symbol"], big["phi"], missing, True, False, "psi"),
        (big["symbol"], big["phi"], big["psi"], False, True, None),
        (bad_symbol, big["phi"], big["psi"], False, False, "symbol"),
    ]
    cases = []
    for symbol, phi, psi, force, crash, _ in runs:
        argv = ["multiplier", "--symbol", symbol, "--phi", phi, "--psi", psi, "--verify-all", "--seed", "1"]
        cases += [{"argv": argv, "serial": serial, "force": force, "crash": crash, "build": "off"}
                  for serial in (False, True)]
    results = overlap_runs(directory, cases)
    forked = can_overlap()
    for (symbol, phi, psi, force, crash, source), overlapped, serial in zip(runs, results[::2], results[1::2]):
        assert overlapped[:3] == serial[:3], (phi, psi)
        code, stdout, stderr = serial[:3]
        if source:
            assert (code, stdout) == (2, "") and re.match(rf"error: {source}[:.]", stderr), stderr
        else:
            assert code == 0 and json.loads(stdout)["verdict"] == "pass" and stderr == ""
        child = forked and symbol != bad_symbol and (psi != missing or force)
        assert (overlapped[3], serial[3]) == (int(child), 0), (phi, psi)
        assert not overlapped[4] and not serial[4], (phi, psi)
        if child and not source and not crash:  # psi opened by the child alone
            assert overlapped[5] == sorted([[True, symbol], [True, phi], [False, psi]])


def build_files(directory):
    """A symbol and (3, 6) frames: Gaussian, of rank one, not spanning, scaled by 1e-160 and by 1e160."""
    rng = np.random.default_rng(36)
    gaussian = lambda: rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    phi, psi = gaussian(), gaussian()
    phases = np.exp(2j * np.pi * rng.uniform(size=6))
    frames = {"phi": phi, "psi": psi, "flat": np.tile(phi[:1], (6, 1)),
              # a synthesis condition of 1e5, so that tol.spans fails while M is invertible
              "thin": psi * [1.0, 1.0, 1e-5],
              "tiny_phi": phi * 1e-160, "tiny_psi": psi * 1e-160, "huge_psi": psi * 1e160}
    files = {name: write(directory, f"{name}.json", {"dim": 3, "vectors": pairs(frame)})
             for name, frame in frames.items()}
    files["symbol"] = write(directory, "symbol.json", {"values": pairs(rng.uniform(0.5, 2.0, 6) * phases)})
    return files


def build_case(files, phi, psi, seed, build):
    argv = ["multiplier", "--symbol", files["symbol"], "--phi", files[phi], "--psi", files[psi],
            "--verify-all", "--seed", str(seed)]
    return {"argv": argv, "serial": True, "force": False, "crash": False, "build": build}


def test_the_overlapped_build_gives_the_serial_reports_and_errors_and_leaves_no_child(tmp_path):
    # each run goes three ways: with a forked child building the matrix,
    # whatever its shape, while the process prepares the bundle; with the
    # child out of reach; and as a build without `meanwhile`, neither child
    # nor preparation. The same exit code (or traceback), stdout, stderr and
    # matrix all three ways, one fork where the host allows one, and no child
    # left after any run. The cases: a valid multiplier at seeds 1-3, a
    # singular M, that one with a Psi whose norm overflows (a warning the
    # bundle never reaches), an invertible M with a side that does not span,
    # and each side scaled by 1e-160, whose canonical dual is not finite:
    # Psi's, or Phi's once Psi's is solved for. Those two end in the
    # ValueError and the overflow warning of the bundle
    directory = str(tmp_path)
    files = build_files(directory)
    runs = [("phi", "psi", 1, "pass"), ("phi", "psi", 2, "pass"), ("phi", "psi", 3, "pass"),
            ("flat", "psi", 1, "invertible"), ("flat", "huge_psi", 1, "invertible"),
            ("phi", "thin", 1, "verification_bundle"),
            ("phi", "tiny_psi", 1, "ValueError"), ("tiny_phi", "psi", 1, "ValueError")]
    ways = ("force", "off", "plain")
    results = overlap_runs(directory, [build_case(files, phi, psi, seed, build)
                                       for phi, psi, seed, _ in runs for build in ways])
    forked = can_overlap()
    for k, (phi, psi, seed, outcome) in enumerate(runs):
        overlapped, serial, plain = results[len(ways) * k:len(ways) * (k + 1)]
        assert overlapped[:3] == serial[:3] == plain[:3], (phi, psi, seed)
        assert overlapped[7] == serial[7] == plain[7] and len(plain[7]) == 1, (phi, psi, seed)
        code, stdout, stderr = plain[:3]
        if outcome == "ValueError":
            assert code.endswith("ValueError: frame vectors must have finite entries\n"), code
            assert "RuntimeWarning: overflow encountered in dot" in stderr and stdout == ""
        else:
            findings = {f["name"]: f for f in json.loads(stdout)["findings"]}
            assert code == 0 and stderr == ""
            assert json.loads(stdout)["verdict"] == "pass" if outcome == "pass" else not findings[outcome]["ok"]
        assert [result[3] for result in (overlapped, serial, plain)] == [int(forked), 0, 0], (phi, psi, seed)
        assert not any(result[4] for result in (overlapped, serial, plain)), (phi, psi, seed)


def test_a_build_child_that_dies_or_sends_too_little_leaves_the_matrix_to_the_process(tmp_path):
    # a build child killed as it starts, or one that sends half the
    # matrix's bytes: the process builds the matrix itself, bit for bit the
    # matrix of a run without a child, with the same report, and reaps it
    files = build_files(str(tmp_path))
    results = overlap_runs(str(tmp_path), [build_case(files, "phi", "psi", 1, build)
                                           for build in ("off", "force", "crash", "short")])
    alone = results[0]
    assert alone[0] == 0 and alone[3] == 0
    for result in results[1:]:
        assert result[:3] == alone[:3] and result[7] == alone[7]
        assert result[3] == int(can_overlap()) and not result[4]


def test_an_overlapped_build_computes_each_derived_object_once(tmp_path):
    # the counts of test_cli's test_verify_bundle_computes_each_derived_object_once
    # in a CLI run with a build child: the bounds and canonical duals of Phi
    # and Psi are one eigvalsh and one solve of both, made by the process
    # while the child builds the matrix and reused by the bundle, which then
    # makes one SVD and one inverse
    files = build_files(str(tmp_path))
    [result] = overlap_runs(str(tmp_path), [build_case(files, "phi", "psi", 3, "force")])
    assert result[0] == 0 and json.loads(result[1])["verdict"] == "pass"
    events = result[6]
    start, end = events.index("build"), events.index("built")
    forks = ["fork"] if can_overlap() else []
    assert events[start + 1:end] == forks + [["eigvalsh", 2], ["solve", 2], "result"]
    assert [event for event in events[end:] if event != "result"] == ["built", ["svd", 1], ["inv", 1]]


@contextlib.contextmanager
def pipe_without_reader():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        yield write_end
    finally:
        os.close(write_end)


def full_device():
    if not os.path.exists("/dev/full"):
        pytest.skip("needs /dev/full")
    return open("/dev/full", "wb")


CLOSED = "closed"


@contextlib.contextmanager
def closed_descriptor():
    yield CLOSED


def run_child(flags, argv, stdout, stderr):
    """The CLI in a child process; a stream given as CLOSED is closed in it, as the shell's ``>&-`` does."""
    closing = [fd for fd, sink in ((1, stdout), (2, stderr)) if sink is CLOSED]
    return subprocess.run([sys.executable, *flags, "-m", "framemult.cli", *argv],
                          stdout=None if stdout is CLOSED else stdout,
                          stderr=None if stderr is CLOSED else stderr, text=True, env=CHILD_ENV,
                          preexec_fn=(lambda: [os.close(fd) for fd in closing]) if closing else None)


FLAGS = pytest.mark.parametrize("flags", [[], ["-u"]], ids=["buffered", "unbuffered"])


@FLAGS
@pytest.mark.parametrize("sink, message", [(pipe_without_reader, "Broken pipe"),
                                           (full_device, "No space left on device"),
                                           (closed_descriptor, "Bad file descriptor")])
def test_a_report_that_cannot_be_written_to_stdout_exits_2_with_one_error_line(sink, message, flags):
    # nothing comes from the interpreter's exit: no "Exception ignored" from
    # a second flush of what stdout still buffers, and no exit 120
    with sink() as stdout:
        result = run_child(flags, ["examples", "list"], stdout, subprocess.PIPE)
    assert (result.returncode, result.stderr) == \
        (2, f"error: cannot write the report to stdout: {message}\n")


@FLAGS
@pytest.mark.parametrize("sink, message", [(pipe_without_reader, "Broken pipe"),
                                           (full_device, "No space left on device"),
                                           (closed_descriptor, None)])
@pytest.mark.parametrize("argv", [["--help"], ["multiplier", "-h"]])
def test_help_that_cannot_be_written_to_stdout_exits_2_with_one_error_line(sink, message, argv,
                                                                          flags):
    # buffered, the help waits in stdout's buffer and the entry's flush fails
    # on it; unbuffered, argparse drops its own failed write and exits 0; with
    # no stdout at all argparse prints the help to stderr
    with sink() as stdout:
        result = run_child(flags, argv, stdout, subprocess.PIPE)
    if message is None:
        assert result.returncode == 0 and result.stderr.startswith("usage: framemult")
    elif flags:
        assert (result.returncode, result.stderr) == (0, "")
    else:
        assert (result.returncode, result.stderr) == \
            (2, f"error: cannot write to stdout: {message}\n")


@FLAGS
@pytest.mark.parametrize("sink", [full_device, closed_descriptor])
@pytest.mark.parametrize("argv, exit_code", [
    (["examples", "run"], 2),  # a UsageError
    (["frame-info", os.path.join(REPO_DIR, "no-such-frame.json")], 2),  # a ParseError
    (["examples", "run", "--bogus"], 2),  # rejected by argparse
    (["examples", "list"], 0),
])
def test_a_stderr_that_cannot_be_written_changes_no_exit_code_and_nothing_goes_to_stdout(
        sink, argv, exit_code, flags):
    # the exit code is the one a writable stderr gets: a failed flush at the
    # interpreter's exit would make it 120, a traceback 1
    with sink() as stderr:
        result = run_child(flags, argv, subprocess.PIPE, stderr)
    assert result.returncode == exit_code
    if exit_code:
        assert result.stdout == ""
    else:
        assert json.loads(result.stdout)["command"] == "examples"


@FLAGS
def test_a_run_with_neither_stream_writable_exits_2(flags):
    with full_device() as stdout:
        assert run_child(flags, ["examples", "list"], stdout, CLOSED).returncode == 2
    with full_device() as stderr:
        assert run_child(flags, ["examples", "list"], CLOSED, stderr).returncode == 2
