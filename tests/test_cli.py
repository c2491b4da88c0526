import builtins
import collections
import contextlib
import gc
import hashlib
import io
import json
import pathlib
import shutil
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framemult.cli import main
from framemult.formats import frame_from_json
from framemult.frames import FiniteFrame, canonical_dual, is_dual
from oracles import adjoint_family, fuzz_instance, through_lapack, verify_small_draws


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def frame_doc(vectors):
    rows = [[[z.real, z.imag] for z in np.asarray(row, dtype=complex)] for row in vectors]
    return {"dim": len(rows[0]), "vectors": rows}


def symbol_doc(values):
    return {"values": [[complex(v).real, complex(v).imag] for v in values]}


@pytest.fixture
def mercedes_file(tmp_path):
    return write_json(tmp_path / "phi.json",
                      frame_doc([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _reject_constant(token):
    raise ValueError(f"a report must be strict JSON, found the bare token {token}")


def parse_report(text):
    """A report parsed as strict JSON: a bare NaN, Infinity or -Infinity fails the test."""
    return json.loads(text, parse_constant=_reject_constant)


def run_report(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return parse_report(out)


def finding(report, name):
    matches = [f for f in report["findings"] if f["name"] == name]
    assert len(matches) == 1, f"{name} not found once in {report['findings']}"
    return matches[0]


# ------------------------------------------------------------------ frame-info


def test_frame_info_reports_bounds(capsys, mercedes_file):
    report = run_report(capsys, "frame-info", mercedes_file)
    assert report["command"] == "frame-info"
    assert report["verdict"] == "pass"
    bounds = finding(report, "frame_bounds")
    assert bounds["ok"]
    assert bounds["value"][0] == pytest.approx(1.0, abs=1e-10)
    assert bounds["value"][1] == pytest.approx(3.0, abs=1e-10)
    assert finding(report, "riesz_basis")["value"] is False
    assert report["inputs"]["frame"]["sha256"]


def test_frame_info_writes_canonical_dual(capsys, tmp_path, mercedes_file):
    dual_path = tmp_path / "dual.json"
    report = run_report(capsys, "frame-info", mercedes_file,
                        "--dual-out", str(dual_path))
    assert report["verdict"] == "pass"
    dual = frame_from_json(dual_path.read_text())
    original = FiniteFrame([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    assert is_dual(dual, original)


def test_a_dual_write_that_fails_midway_exits_2_and_leaves_the_part_written(
        capsys, tmp_path, mercedes_file, monkeypatch):
    import framemult.formats as formats

    def full_disk(frame):
        yield '{"dim": 2, "vectors": ['
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(formats, "frame_text", full_disk)
    dual_path = tmp_path / "dual.json"
    code, out, err = run_cli(capsys, "frame-info", mercedes_file, "--dual-out", str(dual_path))
    assert (code, out, err) == (2, "", f"error: cannot write {dual_path}: No space left on device\n")
    assert dual_path.read_text() == '{"dim": 2, "vectors": ['


def test_frame_info_non_frame_is_reported_not_fatal(capsys, tmp_path):
    path = write_json(tmp_path / "flat.json", frame_doc([[1.0, 0.0], [2.0, 0.0]]))
    report = run_report(capsys, "frame-info", path)
    assert report["verdict"] == "pass"
    assert not finding(report, "frame_bounds")["ok"]


def test_frame_info_dual_of_non_frame_fails_the_run(capsys, tmp_path):
    path = write_json(tmp_path / "flat.json", frame_doc([[1.0, 0.0], [2.0, 0.0]]))
    report = run_report(capsys, "frame-info", path,
                        "--dual-out", str(tmp_path / "d.json"))
    assert report["verdict"] == "fail"
    assert not (tmp_path / "d.json").exists()


def test_frame_info_malformed_input_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    code, out, err = run_cli(capsys, "frame-info", str(bad))
    assert code == 2
    assert "error" in err
    missing_code, _, _ = run_cli(capsys, "frame-info", str(tmp_path / "none.json"))
    assert missing_code == 2


def test_frame_info_dual_out_matches_the_per_entry_form(capsys, tmp_path):
    rng = np.random.default_rng(7)
    entries = rng.standard_normal((9, 4)) + 1j * rng.standard_normal((9, 4))
    entries[:, 0] = [complex(-0.0, -0.0)] * 5 + [complex(1.0, -0.0)] * 4
    frame_path = write_json(tmp_path / "seeded.json", frame_doc(entries))
    dual_path = tmp_path / "dual.json"
    run_report(capsys, "frame-info", frame_path, "--dual-out", str(dual_path))
    dual = canonical_dual(frame_from_json((tmp_path / "seeded.json").read_text()))
    per_entry = {"dim": dual.dim,
                 "vectors": [[[complex(z).real, complex(z).imag] for z in dual.synthesis[:, n]]
                             for n in range(dual.size)]}
    assert dual_path.read_text() == json.dumps(per_entry, sort_keys=True) + "\n"


@pytest.mark.parametrize("target", ["frame", "symbol"])
def test_numbers_beyond_the_double_range_exit_2(capsys, tmp_path, mercedes_file, target):
    huge = 10**400
    if target == "frame":
        bad = tmp_path / "huge.json"
        bad.write_text(json.dumps({"dim": 2, "vectors": [[[1, 0], [huge, 0]]]}))
        argv, location = ["frame-info", str(bad)], "frame.vectors[0][1]:"
    else:
        sym = tmp_path / "huge.json"
        sym.write_text(json.dumps({"values": [[1, 0], [0, -huge], [1, 0]]}))
        argv = ["multiplier", "--symbol", str(sym), "--phi", mercedes_file, "--psi", mercedes_file]
        location = "symbol.values[1]:"
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert "Traceback" not in err
    assert location in err and out == ""


NESTED_ARRAYS = "[" * 100000 + "]" * 100000
NESTED_VECTORS = '{"dim": 1, "vectors": ' + "[" * 3000 + "]" * 3000 + "}"


@pytest.mark.parametrize("target, text", [
    ("frame", NESTED_ARRAYS), ("frame", NESTED_VECTORS), ("symbol", NESTED_ARRAYS),
], ids=["nested-arrays", "nested-vectors", "nested-symbol"])
def test_deeply_nested_files_exit_2_with_one_error_line(capsys, tmp_path, mercedes_file,
                                                        target, text):
    # past the recursion limit of the json module, which raises RecursionError
    nested = tmp_path / "nested.json"
    nested.write_text(text)
    if target == "frame":
        argv = ["frame-info", str(nested)]
    else:
        argv = ["multiplier", "--symbol", str(nested), "--phi", mercedes_file,
                "--psi", mercedes_file]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert err == f"error: {target}: {nested} nests arrays or objects too deeply\n"
    assert out == ""


@pytest.mark.parametrize("text, key", [
    ('{"dim": 2, "vectors": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]], "note": "x"}', "note"),
    ('{"dim": 2, "vectors": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]], "dim": 2}', "dim"),
], ids=["extra-key", "repeated-key"])
def test_a_frame_with_a_key_its_schema_does_not_allow_exits_2(capsys, tmp_path, text, key):
    path = tmp_path / "frame.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "frame-info", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: frame: ") and err.count("\n") == 1 and repr(key) in err
    assert "Traceback" not in err


def test_a_symbol_with_a_key_its_schema_does_not_allow_exits_2(capsys, tmp_path, mercedes_file):
    doc = dict(symbol_doc([1.0, 2.0, 1.0]), note="x")
    sym = write_json(tmp_path / "m.json", doc)
    code, out, err = run_cli(capsys, "multiplier", "--symbol", sym, "--phi", mercedes_file,
                             "--psi", mercedes_file)
    assert (code, out) == (2, "")
    assert err.startswith("error: symbol: ") and err.count("\n") == 1 and "'note'" in err
    assert "Traceback" not in err


# ------------------------------------------------------------------ multiplier


@pytest.fixture
def multiplier_files(tmp_path, mercedes_file):
    psi = write_json(tmp_path / "psi.json",
                     frame_doc([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]))
    sym = write_json(tmp_path / "m.json", symbol_doc([1.0, 2.0, 1.0]))
    return sym, mercedes_file, psi


@pytest.mark.parametrize("side", ["phi", "psi"])
@pytest.mark.parametrize("doc, error", [
    ({"dim": 2, "vectors": [[[1, 0], [0, 1]], [[1, 0], ["x", 0]]]},
     "{side}.vectors[1][1]: expected a [re, im] number pair, got ['x', 0]"),
    ({"dim": 2, "vectors": [[[1, 0], [0, 1]]], "note": "x"},
     "{side}: unexpected key 'note'; a frame has only 'dim' and 'vectors'"),
], ids=["bad-pair", "extra-key"])
def test_a_malformed_side_names_its_input_and_exits_2(capsys, tmp_path, multiplier_files,
                                                      side, doc, error):
    sym, phi, psi = multiplier_files
    files = {"phi": phi, "psi": psi, side: write_json(tmp_path / "bad.json", doc)}
    code, out, err = run_cli(capsys, "multiplier", "--symbol", sym,
                             "--phi", files["phi"], "--psi", files["psi"])
    assert (code, out, err) == (2, "", f"error: {error.format(side=side)}\n")


def test_multiplier_default_report(capsys, multiplier_files):
    sym, phi, psi = multiplier_files
    report = run_report(capsys, "multiplier", "--symbol", sym, "--phi", phi, "--psi", psi)
    assert report["verdict"] == "pass"
    assert finding(report, "dimensions")["value"] == {"dim": 2, "size": 3}


def test_multiplier_verify_all_bundle(capsys, multiplier_files):
    sym, phi, psi = multiplier_files
    report = run_report(capsys, "multiplier", "--symbol", sym, "--phi", phi,
                        "--psi", psi, "--verify-all", "--seed", "11")
    assert report["verdict"] == "pass"
    for name in (
        "invertible",
        "induced_dual_of_input_side_is_dual",
        "induced_dual_of_output_side_is_dual",
        "inverse_identity_all_input_duals",
        "inverse_identity_all_output_duals",
        "sampled_input_duals_match_inverse",
        "sampled_output_duals_match_inverse",
        "uniqueness_kernel_trivial",
        "canonical_duals_invert",
        "inversion_equivalence_criteria",
        "weighted_canonical_shortcut",
    ):
        assert finding(report, name)["name"] == name
    assert finding(report, "uniqueness_kernel_trivial")["value"] == 0
    # every residual is paired with the tolerance it was compared against
    for entry in report["findings"]:
        if "residual" in entry:
            assert "tolerance" in entry


def test_each_input_file_is_opened_once_and_its_digest_is_of_those_bytes(
        capsys, monkeypatch, tmp_path, multiplier_files):
    sym, phi, psi = multiplier_files
    opened = collections.Counter()
    original_open = builtins.open

    def counted_open(file, *args, **kwargs):
        opened[str(file)] += 1
        return original_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counted_open)
    report = run_report(capsys, "multiplier", "--symbol", sym, "--phi", phi,
                        "--psi", psi, "--verify-all", "--seed", "1")
    assert opened == {sym: 1, phi: 1, psi: 1}
    opened.clear()
    dual = str(tmp_path / "dual.json")
    info = run_report(capsys, "frame-info", psi, "--dual-out", dual)
    assert opened == {psi: 1, dual: 1}
    monkeypatch.undo()
    for key, path in (("symbol", sym), ("phi", phi), ("psi", psi)):
        with open(path, "rb") as handle:
            assert report["inputs"][key]["sha256"] == hashlib.sha256(handle.read()).hexdigest()
    assert info["inputs"]["frame"]["sha256"] == report["inputs"]["psi"]["sha256"]


def test_multiplier_verify_all_requires_seed(capsys, multiplier_files):
    sym, phi, psi = multiplier_files
    code, out, err = run_cli(capsys, "multiplier", "--symbol", sym, "--phi", phi,
                             "--psi", psi, "--verify-all")
    assert code == 2
    assert "--seed" in err


@pytest.mark.parametrize("tol_rel", ["1e-20", "1e-300"])
def test_multiplier_verify_all_at_a_tiny_tolerance_reports_every_check(capsys, multiplier_files,
                                                                       tol_rel):
    # below rounding level the identities fail; the sampled duals must still be
    # measured, not rejected as non-duals
    sym, phi, psi = multiplier_files
    report = run_report(capsys, "multiplier", "--symbol", sym, "--phi", phi, "--psi", psi,
                        "--verify-all", "--seed", "11", "--tol-rel", tol_rel)
    assert report["verdict"] == "fail"
    for name in ("sampled_input_duals_match_inverse", "sampled_output_duals_match_inverse"):
        entry = finding(report, name)
        assert entry["residual"] > entry["tolerance"] and not entry["ok"]
    assert {f["name"] for f in report["findings"] if f["asserted"]} == {
        "induced_dual_of_input_side_is_dual", "induced_dual_of_output_side_is_dual",
        "inverse_identity_all_input_duals", "inverse_identity_all_output_duals",
        "sampled_input_duals_match_inverse", "sampled_output_duals_match_inverse",
        "uniqueness_kernel_trivial", "inversion_equivalence_criteria",
    }


def test_multiplier_reports_are_byte_identical(capsys, multiplier_files):
    sym, phi, psi = multiplier_files
    argv = ["multiplier", "--symbol", sym, "--phi", phi, "--psi", psi,
            "--verify-all", "--seed", "3"]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_multiplier_out_flag_copies_stdout(capsys, tmp_path, multiplier_files):
    sym, phi, psi = multiplier_files
    copy = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "multiplier", "--symbol", sym, "--phi", phi,
                           "--psi", psi, "--out", str(copy))
    assert code == 0
    assert copy.read_text() == out


def test_multiplier_pretty_flag_keeps_content(capsys, multiplier_files):
    sym, phi, psi = multiplier_files
    plain = run_report(capsys, "multiplier", "--symbol", sym, "--phi", phi, "--psi", psi)
    pretty = run_report(capsys, "multiplier", "--symbol", sym, "--phi", phi,
                        "--psi", psi, "--pretty")
    assert plain == pretty


def singular_multiplier_files(tmp_path):
    phi = write_json(tmp_path / "sphi.json", frame_doc([[1.0], [1.0]]))
    psi = write_json(tmp_path / "spsi.json", frame_doc([[1.0], [-1.0]]))
    sym = write_json(tmp_path / "sm.json", symbol_doc([1.0, 1.0]))
    return sym, phi, psi


def test_multiplier_not_invertible_is_a_finding_not_an_error(capsys, tmp_path):
    sym, phi, psi = singular_multiplier_files(tmp_path)
    report = run_report(capsys, "multiplier", "--symbol", sym, "--phi", phi,
                        "--psi", psi, "--invert")
    assert report["verdict"] == "pass"
    assert not finding(report, "invertible")["ok"]


def test_multiplier_expect_invertible_turns_it_into_failure(capsys, tmp_path):
    sym, phi, psi = singular_multiplier_files(tmp_path)
    report = run_report(capsys, "multiplier", "--symbol", sym, "--phi", phi,
                        "--psi", psi, "--invert", "--expect-invertible")
    assert report["verdict"] == "fail"


def test_multiplier_dimension_mismatch_exits_2(capsys, tmp_path, mercedes_file):
    psi = write_json(tmp_path / "small.json", frame_doc([[1.0, 0.0], [0.0, 1.0]]))
    sym = write_json(tmp_path / "m3.json", symbol_doc([1.0, 1.0, 1.0]))
    code, _, err = run_cli(capsys, "multiplier", "--symbol", sym,
                           "--phi", mercedes_file, "--psi", psi)
    assert code == 2
    assert "error" in err


def test_multiplier_zero_symbol_in_verify_all_exits_2(capsys, tmp_path):
    phi = write_json(tmp_path / "zphi.json", frame_doc([[1.0], [1.0]]))
    # an exact zero, and an entry whose reciprocal overflows
    for smallest in (0.0, 1e-310):
        sym = write_json(tmp_path / "zm.json", symbol_doc([1.0, smallest]))
        code, out, err = run_cli(capsys, "multiplier", "--symbol", sym, "--phi", phi,
                                 "--psi", phi, "--verify-all", "--seed", "1")
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1 and out == ""


def test_products_beyond_the_double_range_fail_their_decisions(capsys, tmp_path):
    # the frame operator and the multiplier matrix of entries 1e160
    # overflow to inf and NaN; no decision may pass on them, and eigvalsh
    # and svd must not see them (the complex frame makes both raise)
    sym = write_json(tmp_path / "m.json", symbol_doc([1.0, 2.0, 3.0, 4.0]))
    for rows in ([[1e160, 0.0], [0.0, 1e160], [1e160, 1e160], [1e160, 0.0]],
                 [[1e160, 1e160j, -1e160], [1e160j, 1e160, 1e160],
                  [1e160, -1e160, 1e160j], [1e160, 1e160, 1e160]]):
        big = write_json(tmp_path / "big.json", frame_doc(rows))
        report = run_report(capsys, "frame-info", big, "--dual-out", str(tmp_path / "d.json"))
        assert not finding(report, "frame_bounds")["ok"]
        assert not finding(report, "canonical_dual_written")["ok"]
        for flag in ("--invert", "--verify-all"):
            report = run_report(capsys, "multiplier", "--symbol", sym, "--phi", big,
                                "--psi", big, flag, "--seed", "1")
            invertible = finding(report, "invertible")
            assert not invertible["ok"]
            # NaN singular values are written as null, not as the bare token NaN
            assert invertible["value"] == {"sigma_max": None, "sigma_min": None}


# the equivalence test's norm of the symbol-weighted frame overflows on
# this input; no other warning is allowed
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_an_underflowed_inverse_norm_fails_the_identity_findings(capsys, tmp_path):
    # symbol entries near 1e300: ||Minv|| underflows to 0, so the
    # certificates and the sampled duals measure nothing and must fail;
    # the norm of the weighted side m*Phi overflows, so the equivalence
    # tests against it measure nothing either and fail as well
    rng = np.random.default_rng(1)
    phi, psi = (rng.standard_normal((2, 6, 3)) + 1j * rng.standard_normal((2, 6, 3))) / np.sqrt(2.0)
    m = rng.uniform(0.5, 2.0, 6) * np.exp(2j * np.pi * rng.uniform(size=6))
    sym = write_json(tmp_path / "m.json", symbol_doc(1e300 * m))
    phi_path = write_json(tmp_path / "phi.json", frame_doc(phi))
    psi_path = write_json(tmp_path / "psi.json", frame_doc(psi))
    code, out, err = run_cli(capsys, "multiplier", "--symbol", sym, "--phi", phi_path,
                             "--psi", psi_path, "--verify-all", "--seed", "1")
    assert code == 0 and err == "", err
    report = parse_report(out)
    assert report["verdict"] == "fail"
    for name in ("inverse_identity_all_input_duals", "inverse_identity_all_output_duals",
                 "sampled_input_duals_match_inverse", "sampled_output_duals_match_inverse"):
        assert not finding(report, name)["ok"]
        assert finding(report, name)["residual"] is None
    # a consistent report with every criterion false, not a violated implication
    criteria = finding(report, "inversion_equivalence_criteria")
    assert criteria["ok"]
    assert not any(criteria["value"].values())


# ||Minv|| overflows on this input; no other warning is allowed
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_an_overflowed_inverse_norm_fails_the_identity_findings(capsys, tmp_path):
    # both frames scaled by 1e-78: Minv has entries near 1e156, so ||Minv||
    # overflows to inf and a residual divided by it would read 0 and pass;
    # at 1e-77 the norm is finite and the same findings pass
    rng = np.random.default_rng(5)
    phi, psi = (rng.standard_normal((2, 6, 3)) + 1j * rng.standard_normal((2, 6, 3))) / np.sqrt(2.0)
    m = rng.uniform(0.5, 2.0, 6) * np.exp(2j * np.pi * rng.uniform(size=6))
    sym = write_json(tmp_path / "m.json", symbol_doc(m))
    names = ("inverse_identity_all_input_duals", "inverse_identity_all_output_duals",
             "sampled_input_duals_match_inverse", "sampled_output_duals_match_inverse")
    for scale, verdict in ((1e-77, "pass"), (1e-78, "fail")):
        phi_path = write_json(tmp_path / "phi.json", frame_doc(scale * phi))
        psi_path = write_json(tmp_path / "psi.json", frame_doc(scale * psi))
        report = run_report(capsys, "multiplier", "--symbol", sym, "--phi", phi_path,
                            "--psi", psi_path, "--verify-all", "--seed", "1")
        assert report["verdict"] == verdict
        for name in names:
            assert finding(report, name)["ok"] == (verdict == "pass")
            assert (finding(report, name)["residual"] is None) == (verdict == "fail")


def rank_deficient_files(directory):
    """Multipliers with N < d and frames of rank below d, as (symbol, phi, psi) triples and frame paths."""
    rng = np.random.default_rng(2016)

    def gaussian(rows, cols):
        return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)

    multipliers, frames = [], []
    for i in range(6):
        dim = int(rng.integers(2, 6))
        size = int(rng.integers(1, dim))
        symbol = rng.uniform(0.5, 2.0, size) * np.exp(2j * np.pi * rng.uniform(size=size))
        multipliers.append((write_json(directory / f"m{i}.json", symbol_doc(symbol)),
                            write_json(directory / f"phi{i}.json", frame_doc(gaussian(size, dim))),
                            write_json(directory / f"psi{i}.json", frame_doc(gaussian(size, dim)))))
    for i in range(8):
        dim = int(rng.integers(2, 6))
        size = int(rng.integers(dim, 3 * dim))
        rank = int(rng.integers(1, dim))
        frames.append(write_json(directory / f"frame{i}.json",
                                 frame_doc(gaussian(size, rank) @ gaussian(rank, dim))))
    return multipliers, frames


@pytest.mark.parametrize("tol_rel", ["1e-17", "1e-20", "1e-300"])
@pytest.mark.parametrize("cond_max", ["1e15", "1e17", "1e300", "inf"])
def test_rank_deficient_inputs_fail_at_every_accepted_tolerance(capsys, tmp_path, cond_max, tol_rel):
    # past 1/eps the user's tolerances reach rounding noise; the rank floor
    # keeps such inputs singular and non-spanning, and no LinAlgError escapes
    multipliers, frames = rank_deficient_files(tmp_path)
    tolerances = ["--cond-max", cond_max, "--tol-rel", tol_rel]
    for symbol, phi, psi in multipliers:
        code, out, err = run_cli(capsys, "multiplier", "--symbol", symbol, "--phi", phi,
                                 "--psi", psi, "--verify-all", "--seed", "1", *tolerances)
        assert code == 0 and "Traceback" not in err, err
        assert not finding(parse_report(out), "invertible")["ok"], phi
    dual = tmp_path / "dual.json"
    for frame in frames:
        code, out, err = run_cli(capsys, "frame-info", frame, "--dual-out", str(dual), *tolerances)
        assert code == 0 and "Traceback" not in err, err
        report = parse_report(out)
        assert not finding(report, "frame_bounds")["ok"], frame
        assert not finding(report, "canonical_dual_written")["ok"] and not dual.exists(), frame


# -------------------------------------------------------------------- examples


def test_examples_list(capsys):
    report = run_report(capsys, "examples", "list")
    names = [f["name"] for f in report["findings"]]
    assert names == ["ex4_1", "ex4_2", "ex5_3", "ex5_final"]
    assert report["verdict"] == "pass"


def test_examples_run_single(capsys):
    report = run_report(capsys, "examples", "run", "ex5_final", "--horizon", "20")
    assert report["verdict"] == "pass"
    assert all(f["name"].startswith("ex5_final.") for f in report["findings"])


def test_examples_run_flagged_departure(capsys):
    report = run_report(capsys, "examples", "run", "ex4_2", "--horizon", "20")
    assert report["verdict"] == "flagged"
    departures = [f for f in report["findings"] if f.get("documented_departure")]
    assert len(departures) == 1
    assert departures[0]["ok"]


def test_examples_run_all_aggregates(capsys):
    report = run_report(capsys, "examples", "run", "--all", "--horizon", "20")
    assert report["verdict"] == "flagged"
    prefixes = {f["name"].split(".")[0] for f in report["findings"]}
    assert prefixes == {"ex4_1", "ex4_2", "ex5_3", "ex5_final"}


def test_examples_run_unknown_exits_2(capsys):
    code, _, err = run_cli(capsys, "examples", "run", "ex0_0")
    assert code == 2
    assert "unknown example" in err


def test_examples_run_without_name_exits_2(capsys):
    code, _, err = run_cli(capsys, "examples", "run")
    assert code == 2


@pytest.mark.parametrize("argv", [["run", "ex4_1", "--all"], ["list", "ex4_1"], ["list", "--all"],
                                  ["list", "--horizon", "5"], ["list", "--horizon", "1000"]])
def test_examples_arguments_the_action_would_ignore_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, "examples", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("horizon", ["0", "-4", "ten"])
def test_examples_run_rejects_a_horizon_below_one(capsys, horizon):
    with pytest.raises(SystemExit) as info:
        main(["examples", "run", "--all", "--horizon", horizon])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "--horizon" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flags", [
    ["--tol-rel", "0"],
    ["--tol-rel", "nan"],
    ["--cond-max", "0.5"],
    ["--out", "{missing}/report.json"],
    ["--dual-out", "{missing}/dual.json"],
    ["--tol-rel", "1"],
    ["--tol-rel", "inf"],
], ids=["zero-tol-rel", "nan-tol-rel", "cond-max-below-1", "out-dir-missing",
        "dual-out-dir-missing", "unit-tol-rel", "inf-tol-rel"])
def test_bad_options_exit_2_with_one_error_line(capsys, tmp_path, multiplier_files, flags):
    sym, phi, psi = multiplier_files
    flags = [flag.format(missing=tmp_path / "missing") for flag in flags]
    if "--dual-out" in flags:
        argv = ["frame-info", phi, *flags]
    else:
        argv = ["multiplier", "--symbol", sym, "--phi", phi, "--psi", psi, *flags]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["multiplier", "--symbol", "{sym}", "--phi", "{phi}", "--psi", "{psi}", "--verify-all",
     "--seed", "-1"],
    ["frame-info", "{phi}", "--seed", "1"],
    ["examples", "run", "--all", "--seed", "1"],
    ["examples", "list", "--seed", "1"],
], ids=["negative-seed", "seed-on-frame-info", "seed-on-examples-run", "seed-on-examples-list"])
def test_options_the_parser_rejects_exit_2(capsys, multiplier_files, argv):
    # --seed is a non-negative integer, and only the multiplier command samples
    sym, phi, psi = multiplier_files
    with pytest.raises(SystemExit) as info:
        main([arg.format(sym=sym, phi=phi, psi=psi) for arg in argv])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--seed" in captured.err
    assert "Traceback" not in captured.err


@settings(max_examples=40, deadline=None, derandomize=True)
@given(exponent=st.floats(-300.0, -1e-15), horizon=st.integers(1, 50))
def test_examples_run_all_over_the_accepted_tolerance_domain(exponent, horizon):
    # --tol-rel log-uniform in [1e-300, 1); 10 ** -1e-15 still rounds below 1
    tol_rel = 10.0 ** exponent
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["examples", "run", "--all", "--horizon", str(horizon),
                     "--tol-rel", repr(tol_rel)])
    assert code == 0, err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert parse_report(out.getvalue())["tolerances"]["rel_eps"] == tol_rel


def test_examples_runs_are_byte_identical(capsys):
    code1, out1, _ = run_cli(capsys, "examples", "run", "--all", "--horizon", "15")
    code2, out2, _ = run_cli(capsys, "examples", "run", "--all", "--horizon", "15")
    assert code1 == code2 == 0
    assert out1 == out2


GOLDEN = pathlib.Path(__file__).parent / "golden"
VERIFY_ALL = ("--verify-all", "--seed", "1")


def multiplier_argv(*flags, symbol="symbol.json", psi="psi.json"):
    """A multiplier run on the golden inputs, (d, N) = (3, 6): a general symbol
    unless ``symbol`` is unimodular.json, and an input side that spans unless
    ``psi`` is psi_plane.json, whose multiplier has an exactly zero column."""
    return ["multiplier", "--symbol", symbol, "--phi", "phi.json", "--psi", psi, *flags]


@pytest.mark.parametrize("argv, golden", [
    (["examples", "list"], "examples_list.json"),
    *((["examples", "run", "--all", "--horizon", horizon], f"examples_run_all_h{horizon}.json")
      for horizon in ("1", "1000", "100000")),
    (multiplier_argv(*VERIFY_ALL), "multiplier_verify_all.json"),
    (multiplier_argv(*VERIFY_ALL, symbol="unimodular.json"), "multiplier_unimodular_verify_all.json"),
    (multiplier_argv("--induced-duals"), "multiplier_induced_duals.json"),
    (multiplier_argv(*VERIFY_ALL, psi="psi_plane.json"), "multiplier_not_invertible.json"),
    (["frame-info", "phi.json", "--dual-out", "dual.json"], "frame_info_dual_out.json"),
])
def test_example_reports_are_the_golden_bytes(capsys, monkeypatch, tmp_path, argv, golden):
    # the files are `python -m framemult.cli <argv> > tests/golden/<file>`, run
    # in a copy of tests/golden/inputs, at 05fab38 for the examples and at
    # b446b13 for the rest (the written dual is frame_info_dual.json); the
    # reports are the same under 1 and 2 BLAS threads, so a change to one of
    # these files is a change to a report. Relative input paths keep the
    # paths a report records fixed.
    shutil.copytree(GOLDEN / "inputs", tmp_path, dirs_exist_ok=True)
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out.encode() == (GOLDEN / golden).read_bytes()
    if "--dual-out" in argv:
        assert (tmp_path / "dual.json").read_bytes() == (GOLDEN / "frame_info_dual.json").read_bytes()


@pytest.mark.parametrize("symbol, golden", [
    ("symbol.json", "multiplier_verify_all.json"),
    ("unimodular.json", "multiplier_unimodular_verify_all.json"),
])
def test_a_violated_implication_fails_its_findings_and_keeps_every_other_byte(
        capsys, monkeypatch, tmp_path, symbol, golden):
    # a violation the equivalence report carries is the detail of a failed
    # criteria finding, and of a failed chain finding exactly when the symbol
    # has one modulus; every other byte is the golden report's
    import framemult.multipliers as mp

    message = "input side equivalent to weighted output side, yet eq1 fails"
    monkeypatch.setattr(mp, "_prop_q_violation", lambda report: message)
    shutil.copytree(GOLDEN / "inputs", tmp_path, dirs_exist_ok=True)
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *multiplier_argv(*VERIFY_ALL, symbol=symbol))
    assert (code, err) == (0, "")
    report = parse_report(out)
    failed = {"name": "inversion_equivalence_criteria", "asserted": True, "ok": False,
              "detail": message}
    assert finding(report, "inversion_equivalence_criteria") == failed
    chains = [f for f in report["findings"] if f["name"] == "constant_modulus_chain"]
    assert chains == ([dict(failed, name="constant_modulus_chain")] if symbol == "unimodular.json"
                      else [])
    assert report["verdict"] == "fail"
    expected = json.loads((GOLDEN / golden).read_text())
    expected["findings"] = [dict(failed, name=f["name"]) if f["name"] in
                            ("inversion_equivalence_criteria", "constant_modulus_chain") else f
                            for f in expected["findings"]]
    expected["verdict"] = "fail"
    assert out == json.dumps(expected, sort_keys=True) + "\n"


@pytest.mark.parametrize("horizon", ["1", "7", "1000"])
def test_examples_take_no_factorization_of_a_scalar_block_and_report_lapacks_bytes(
        capsys, monkeypatch, horizon):
    # every packaged example has 1 x 1 block matrices: their singular values
    # and eigenvalues need no LAPACK call, and the report is the one the
    # np.linalg route gives, byte for byte
    counts = collections.Counter()
    for name in ("svd", "eigvalsh"):
        def counted(*args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)

    argv = ("examples", "run", "--all", "--horizon", horizon)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and counts == {}
    with through_lapack():
        oracle_code, oracle_out, _ = run_cli(capsys, *argv)
    assert counts["svd"] > 0 and counts["eigvalsh"] > 0
    assert (code, out) == (oracle_code, oracle_out)


def test_verify_bundle_computes_each_derived_object_once(monkeypatch, factorizations):
    import framemult.cli as cli
    import framemult.frames as fr
    import framemult.multipliers as mp
    import framemult.numerics as nu

    rng = np.random.default_rng(5)
    dim, size = 3, 6

    def gaussian():
        return rng.standard_normal((size, dim)) + 1j * rng.standard_normal((size, dim))

    symbol = mp.Symbol(rng.uniform(0.5, 2.0, size) * np.exp(2j * np.pi * rng.uniform(size=size)))
    assert not symbol.has_constant_modulus()
    mult = mp.build(symbol, FiniteFrame(gaussian()), FiniteFrame(gaussian()))

    # every reciprocal handed out, per symbol; the list keeps the objects alive
    reciprocals = collections.defaultdict(list)
    original_reciprocal = mp.Symbol.reciprocal

    def counted_reciprocal(symbol):
        out = original_reciprocal(symbol)
        reciprocals[id(symbol)].append(out)
        return out

    monkeypatch.setattr(mp.Symbol, "reciprocal", counted_reciprocal)

    # frames built inside sampled_dual_residuals; every FiniteFrame passes _set_synthesis
    sampling = [False]
    frames_built_while_sampling = []
    original_set_synthesis = FiniteFrame._set_synthesis

    def counted_set_synthesis(frame, syn):
        if sampling[0]:
            frames_built_while_sampling.append(syn.shape)
        return original_set_synthesis(frame, syn)

    monkeypatch.setattr(FiniteFrame, "_set_synthesis", counted_set_synthesis)
    original_sampled = mp.sampled_dual_residuals

    def flagged_sampled(*args, **kwargs):
        sampling[0] = True
        try:
            return original_sampled(*args, **kwargs)
        finally:
            sampling[0] = False

    monkeypatch.setattr(mp, "sampled_dual_residuals", flagged_sampled)

    # np.linalg.norm on one matrix or vector; numerics.frobenius replaces it
    single_norms = []
    original_norm = np.linalg.norm

    def counted_norm(x, *args, **kwargs):
        if kwargs.get("axis") is None and len(args) < 2:
            single_norms.append(np.shape(x))
        return original_norm(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counted_norm)

    # norms, counted where each module looks them up
    decisions = collections.Counter()

    def count_calls(module, name, key):
        original = getattr(module, name)

        def counted_call(*args, **kwargs):
            decisions[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted_call)

    for module in (nu, fr, mp):
        count_calls(module, "frobenius", "frobenius")

    # the frames whose bounds or canonical duals are asked for
    spanning_tested = []
    for name in ("frame_bounds", "canonical_dual", "canonical_duals"):
        def recorded(frames, *args, _name=name, _original=getattr(fr, name), **kwargs):
            spanning_tested.extend(frames if _name == "canonical_duals" else [frames])
            return _original(frames, *args, **kwargs)
        monkeypatch.setattr(fr, name, recorded)

    tol = cli.ToleranceConfig()
    mp.invert(mult, tol)
    findings = []
    cli._verify_bundle(mult, tol, 3, findings)
    assert cli._verdict(findings) == "pass"
    # matrices factorized: frame bounds of Phi and Psi; canonical duals of
    # the same two; the multiplier SVD, the uniqueness count needing none;
    # one inverse; the weighted-side equivalence tests and the
    # weighted-canonical shortcut reuse the cached canonical duals of Psi and
    # Phi and need no pseudoinverse
    limits = {"eigvalsh": 2, "solve": 2, "svd": 1, "inv": 1, "pinv": 0}
    counts = factorizations.counts()
    assert all(counts[name] <= limit for name, limit in limits.items()), dict(counts)
    # the two sides' bounds and duals are one eigvalsh and one solve
    assert [(name, stack) for name, _, stack in factorizations if name in ("eigvalsh", "solve")] == \
        [("eigvalsh", 2), ("solve", 2)]
    # no derived frame, (m_n phi_n) included, is tested for spanning
    assert {id(frame) for frame in spanning_tested} == {id(mult.phi), id(mult.psi)}
    # 1/m is computed once for the symbol of each side, m and conj(m)
    assert set(reciprocals) == {id(mult.symbol), id(mult.adjoint().symbol)}
    assert all(len({id(r) for r in handed_out}) == 1 for handed_out in reciprocals.values())
    assert frames_built_while_sampling == []
    assert single_norms == []
    # 9 norms of held objects, each measured once: ||Minv|| and the frames
    # Phi, Psi, the two induced duals, the two canonical duals and the two
    # weighted sides; and 25 norms of fresh arrays: 9 identity residuals (the
    # canonical inversion's once, for its finding and the report), 6 sampled
    # perturbations, 2 certificate slopes, 2 reconstruction residuals,
    # 2 mapping residuals, 2 frame differences, and the weighted-canonical
    # shortcut's defect and its scale ||Syn_Phi diag(w)||
    assert decisions["frobenius"] == 34


def test_verify_bundle_decides_each_criterion_once_for_a_unimodular_symbol(monkeypatch):
    # the constant-modulus chain reads the equivalence report, a dual is
    # decided by one reconstruction identity, its adjoint being the other,
    # the canonical inversion is computed once for every finding that reads
    # it, and each weighted side dies with the call that builds it; the two
    # sides of each side-wise check are one stacked call. Counted: calls,
    # and the matrices (or pairs) they take
    import framemult.cli as cli
    import framemult.frames as fr
    import framemult.multipliers as mp

    rng = np.random.default_rng(5)
    sides = [FiniteFrame(rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3)))
             for _ in range(2)]
    mult = mp.build(mp.Symbol(np.exp(2j * np.pi * rng.uniform(size=6))), *sides)
    calls, matrices = collections.Counter(), collections.Counter()

    def stack_size(array):
        return 1 if np.ndim(array) == 2 else len(array)

    # the weighted sides, held only through weak references to their arrays
    weighted_arrays = []
    for module, name in ((fr, "are_equivalent"), (fr, "reconstruction_defect"), (fr, "is_dual"),
                         (mp, "weighted_frame")):
        def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
            calls[_name] += 1
            matrices[_name] += stack_size(args[0].synthesis if _name == "weighted_frame" else args[0])
            if _name == "are_equivalent":
                weighted_arrays.append(weakref.ref(args[2]))
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    original_defect = mp._inverse_defect

    def counted_defect(minv, *args):
        canonical = sys._getframe(1).f_code is mp.verify_canonical_inversion.__code__
        name = "canonical_inversion_product" if canonical else "certificate_product"
        calls[name] += 1
        matrices[name] += stack_size(minv)
        return original_defect(minv, *args)

    monkeypatch.setattr(mp, "_inverse_defect", counted_defect)

    tol = cli.ToleranceConfig()
    mp.invert(mult, tol)
    findings = []
    cli._verify_bundle(mult, tol, 3, findings)
    assert cli._verdict(findings) == "pass"
    assert [f["name"] for f in findings][-1] == "constant_modulus_chain"
    # one equivalence test per weighted side, m*Phi and conj(m)*Psi, each
    # built once, in the report and none in the shortcut, which builds no
    # weighted frame; one duality test per induced dual; the canonical
    # inversion's product once, for its finding and inside the report, next
    # to one per certificate
    assert matrices == {"are_equivalent": 2, "reconstruction_defect": 2,
                        "canonical_inversion_product": 1, "certificate_product": 2}
    assert calls == {"are_equivalent": 1, "reconstruction_defect": 1,
                     "canonical_inversion_product": 1, "certificate_product": 1}
    # no weighted side outlives the bundle
    gc.collect()
    assert [ref() for ref in weighted_arrays] == [None]


def test_verify_bundle_leaves_no_tolerance_on_the_objects_it_reached():
    # objects cache tolerance-free numbers and every tolerance test is
    # decided at each call, so after a bundle no attribute or slot of the
    # multiplier, an adjoint of it or a frame they reach holds a
    # ToleranceConfig; the multiplier does not refer to its adjoints, so the
    # walk starts from one too
    import framemult.cli as cli
    import framemult.multipliers as mp

    rng = np.random.default_rng(5)
    dim, size = 3, 6
    sides = [FiniteFrame(rng.standard_normal((size, dim)) + 1j * rng.standard_normal((size, dim)))
             for _ in range(2)]
    symbol = mp.Symbol(rng.uniform(0.5, 2.0, size) * np.exp(2j * np.pi * rng.uniform(size=size)))
    mult = mp.build(symbol, *sides)
    tol = cli.ToleranceConfig()
    mp.invert(mult, tol)
    findings = []
    cli._verify_bundle(mult, tol, 3, findings)
    assert cli._verdict(findings) == "pass"

    adj = mult.adjoint()
    mp.induced_duals(adj, tol)  # the adjoint's own caches, taken from the multiplier's
    reached, held, pending = {}, [], [("mult", mult), ("adj", adj)]
    while pending:
        path, obj = pending.pop()
        if id(obj) in reached:
            continue
        reached[id(obj)] = obj
        names = set(getattr(obj, "__dict__", ()))
        names.update(getattr(type(obj), "__slots__", ()))
        names.update(getattr(type(obj), "_fields", ()))
        for name in sorted(names):
            value = getattr(obj, name, None)
            if isinstance(value, cli.ToleranceConfig):
                held.append(f"{path}.{name}")
            elif isinstance(value, (mp.Multiplier, FiniteFrame, mp.Symbol, mp.InducedDuals)):
                pending.append((f"{path}.{name}", value))
    assert held == []
    frames_reached = [obj for obj in reached.values() if isinstance(obj, FiniteFrame)]
    # Phi, Psi, their canonical duals and the two induced duals
    assert len(frames_reached) == 6


def test_verify_bundle_builds_one_entrywise_exact_matrix(monkeypatch):
    # the Python-loop accumulation is reserved for Multiplier.matrix; every
    # residual candidate in the bundle must be a BLAS product
    import framemult.cli as cli
    import framemult.multipliers as mp

    calls = []
    original = mp._termwise_matrices

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(mp, "_termwise_matrices", counted)
    rng = np.random.default_rng(5)
    frames = [FiniteFrame(rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3)))
              for _ in range(2)]
    mult = mp.build(mp.Symbol(rng.uniform(0.5, 2.0, 6) + 0.5j), *frames)
    tol = cli.ToleranceConfig()
    mp.invert(mult, tol)
    findings = []
    cli._verify_bundle(mult, tol, 3, findings)
    assert cli._verdict(findings) == "pass"
    assert len(calls) == 1


def _asserted_oks(phi, psi, m, seed):
    import framemult.cli as cli
    import framemult.multipliers as mp

    tol = cli.ToleranceConfig()
    mult = mp.build(mp.Symbol(m), FiniteFrame(phi), FiniteFrame(psi))
    mp.invert(mult, tol)
    findings = []
    cli._verify_bundle(mult, tol, seed, findings)
    return {f["name"]: f["ok"] for f in findings if f["asserted"]}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(draw_seed=st.integers(0, 2 ** 32 - 1),
       phi_exponent=st.floats(-8.0, 8.0), psi_exponent=st.floats(-8.0, 8.0),
       symbol_exponent=st.floats(-8.0, 8.0))
def test_verify_bundle_oks_do_not_change_when_frames_or_symbol_are_rescaled(
        draw_seed, phi_exponent, psi_exponent, symbol_exponent):
    # verify-small draws: d in 1..6, N in d..12, complex Gaussian frames,
    # moduli in [0.5, 2], multiplier condition number at most 1e8
    rng = np.random.default_rng(draw_seed)
    while True:
        dim = int(rng.integers(1, 7))
        size = int(rng.integers(dim, 13))
        phi, psi = (rng.standard_normal((2, size, dim))
                    + 1j * rng.standard_normal((2, size, dim))) / np.sqrt(2.0)
        m = rng.uniform(0.5, 2.0, size) * np.exp(2j * np.pi * rng.uniform(size=size))
        if np.linalg.cond(phi.T @ (m[:, None] * np.conj(psi))) <= 1e8:
            break
    unscaled = _asserted_oks(phi, psi, m, seed=3)
    scaled = _asserted_oks(phi * 10.0 ** phi_exponent, psi * 10.0 ** psi_exponent,
                           m * 10.0 ** symbol_exponent, seed=3)
    assert scaled == unscaled


def four_images(m, phi, psi, rng):
    """(m, Phi, Psi) permuted, in a unitary basis, conjugated, and scaled by powers of two.

    Phi and Psi are N x d arrays of rows. The three scalings, of Phi, Psi
    and m, are independent, from 2^-30 to 2^30, and so exact.
    """
    order = rng.permutation(m.size)
    unitary, _ = np.linalg.qr(rng.standard_normal((phi.shape[1],) * 2)
                              + 1j * rng.standard_normal((phi.shape[1],) * 2))
    a, b, c = 2.0 ** rng.integers(-30, 31, 3)
    return [(m[order], phi[order], psi[order]),
            (m, phi @ unitary.T, psi @ unitary.T),
            (np.conj(m), np.conj(phi), np.conj(psi)),
            (m * c, phi * a, psi * b)]


def test_the_adjoint_swap_keeps_every_verdict_away_from_the_thresholds(capsys, monkeypatch):
    # (conj m, Psi, Phi) is the adjoint of (m, Phi, Psi): it swaps the input-side and
    # output-side findings, so the verdict stays unless a residual lies near its tolerance.
    # The four images of four_images move no finding: the verdict, every asserted flag
    # and the unasserted weighted-canonical shortcut's value stay. Under the adjoint the
    # shortcut reads the other side, so its value may change. Inputs: the adjoint-swap
    # family, the same perturbed by 1e-7 of ||Psi||, and the C5 fuzz families with moduli
    # in [0.5, 2] and over e^-8..e^8. The runs read the arrays without a file
    import framemult.cli as cli
    import framemult.formats as formats
    import framemult.multipliers as mp

    arrays = {}
    monkeypatch.setattr(formats, "load_symbol_file", lambda path, _: (mp.Symbol(arrays[path]), ""))
    monkeypatch.setattr(formats, "load_frame_file", lambda path, _: (FiniteFrame(arrays[path]), ""))

    def verify_all(m, phi, psi):
        """(verdict, asserted flags, shortcut finding), or None when a residual is near its tolerance."""
        arrays.update(m=m, phi=phi, psi=psi)
        report = run_report(capsys, "multiplier", "--symbol", "m", "--phi", "phi", "--psi", "psi",
                            "--verify-all", "--seed", "1")
        asserted = [f for f in report["findings"] if f["asserted"]]
        shortcut = [f for f in report["findings"] if f["name"] == "weighted_canonical_shortcut"]
        # the shortcut decides on Phi's own canonical dual: it carries a value whenever it runs
        assert all(f["ok"] and isinstance(f["value"], bool) for f in shortcut), shortcut
        if any(f["residual"] is not None and 0.25 <= f["residual"] / f["tolerance"] <= 4.0
               for f in asserted if "residual" in f):
            return None
        return report["verdict"], {f["name"]: f["ok"] for f in asserted}, shortcut

    inputs = [adjoint_family(seed) for seed in range(50)]
    inputs += [adjoint_family(seed, perturbation=1e-7) for seed in range(50, 100)]
    rng = np.random.default_rng(5)
    for trial in range(100):
        mult = fuzz_instance(rng, trial % 5, wide=trial >= 50)
        inputs.append((mult.symbol.values, mult.phi.synthesis.T, mult.psi.synthesis.T))
    swaps = images = 0
    moved_images = []
    for index, (m, phi, psi) in enumerate(inputs):
        run = verify_all(m, phi, psi)
        swapped = verify_all(np.conj(m), psi, phi)
        if run is not None and swapped is not None:
            swaps += 1
            assert run[0] == swapped[0], index
        for kind, image in enumerate(four_images(m, phi, psi, rng)):
            moved = verify_all(*image)
            if run is not None and moved is not None:
                images += 1
                if moved != run:
                    moved_images.append((index, kind))
    assert swaps >= 180 and images >= 720, (swaps, images)
    # one known flip: input 73, of the perturbed family, has condition number
    # 7.4e7, and a unitary change of basis moves its all-input-duals
    # certificate from 0.06 to 6.9 times its tolerance, rel_eps: the
    # certificate's rounding grows with the condition number, its tolerance
    # does not
    assert moved_images == [(73, 1)], moved_images


def test_verify_bundle_working_set_is_bounded():
    # build, invert and the --verify-all bundle at d = 64, N = 256, traced
    # above the two input frames: the cached duals and at most three d x N
    # temporaries at a time (the parent peaked at 11.1 arrays)
    import tracemalloc

    import framemult.cli as cli
    import framemult.multipliers as mp

    dim, size = 64, 256
    rng = np.random.default_rng(3)
    phi, psi = (FiniteFrame((rng.standard_normal((size, dim))
                             + 1j * rng.standard_normal((size, dim))) / np.sqrt(2.0))
                for _ in range(2))
    symbol = mp.Symbol(rng.uniform(0.5, 2.0, size) * np.exp(2j * np.pi * rng.uniform(size=size)))
    tol = cli.ToleranceConfig()
    findings = []
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        mult = mp.build(symbol, phi, psi)
        mp.invert(mult, tol)
        cli._verify_bundle(mult, tol, 1, findings)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cli._verdict(findings) == "pass"
    arrays = (peak - base) / (dim * size * np.dtype(np.complex128).itemsize)
    assert arrays <= 9.5, arrays


def test_the_side_stack_budget_moves_no_finding(monkeypatch):
    # the bundle's side-wise checks take both sides in one stacked step when
    # two d x N arrays fit SIDE_STACK_BYTES, and one side at a time above it;
    # forced to one side and then to both, the findings are the same bytes on
    # 200 verify-small draws and on a (16, 64) instance, which the default
    # budget stacks, while (64, 256) goes one side at a time
    import framemult.cli as cli
    import framemult.multipliers as mp

    rng = np.random.default_rng(16)
    gaussian = lambda: rng.standard_normal((64, 16)) + 1j * rng.standard_normal((64, 16))
    instances = [(phi * s, psi * s, m * t, seed)
                 for phi, psi, m, s, t, seed in verify_small_draws(1, 200)]
    instances.append((gaussian(), gaussian(),
                      rng.uniform(0.5, 2.0, 64) * np.exp(2j * np.pi * rng.uniform(size=64)), 4))

    def findings_and_chunks(phi, psi, m, seed):
        tol = cli.ToleranceConfig()
        mult = mp.build(mp.Symbol(m), FiniteFrame(phi), FiniteFrame(psi))
        mp.invert(mult, tol)
        findings = []
        cli._verify_bundle(mult, tol, seed, findings)
        return repr(findings), [len(sides.frames) for sides in mult._sides]

    default = [findings_and_chunks(*instance) for instance in instances]
    assert all(chunks == [2] for _, chunks in default)
    large = mp.build(mp.Symbol(np.ones(256)), *(FiniteFrame(np.ones((256, 64))) for _ in range(2)))
    assert not mp._both_sides_fit(large)
    for budget, chunks in ((0, [1, 1]), (1 << 40, [2])):
        monkeypatch.setattr(mp, "SIDE_STACK_BYTES", budget)
        forced = [findings_and_chunks(*instance) for instance in instances]
        assert all(found[1] == chunks for found in forced)
        assert [found[0] for found in forced] == [found[0] for found in default]
