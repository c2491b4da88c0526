"""Every CLI report against docs/schema/report.schema.json, and the written dual against frame.schema.json."""

import json
import pathlib

import jsonschema
import pytest

from framemult.cli import main

SCHEMAS = pathlib.Path(__file__).resolve().parent.parent / "docs" / "schema"


def validator(name):
    schema = json.loads((SCHEMAS / name).read_text())
    jsonschema.Draft202012Validator.check_schema(schema)
    return jsonschema.Draft202012Validator(schema)


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def reject_constant(token):
    raise ValueError(f"a report must be strict JSON, found the bare token {token}")


def schema_verdict(findings):
    """The verdict rule as the report schema states it."""
    if any(f["asserted"] and not f["ok"] for f in findings):
        return "fail"
    if any(f.get("documented_departure") for f in findings):
        return "flagged"
    return "pass"


@pytest.fixture
def inputs(tmp_path):
    phi = write_json(tmp_path / "phi.json",
                     {"dim": 2, "vectors": [[[1, 0], [0, 0]], [[0, 0], [1, 0]], [[1, 0], [1, 0]]]})
    psi = write_json(tmp_path / "psi.json",
                     {"dim": 2, "vectors": [[[1, 0], [0, 0]], [[0, 0], [1, 0]], [[0.5, 0], [0.5, 0]]]})
    symbol = write_json(tmp_path / "m.json", {"values": [[1, 0], [2, 0], [1, 0]]})
    unimodular = write_json(tmp_path / "u.json", {"values": [[1, 0], [0, 1], [-1, 0]]})
    return tmp_path, phi, psi, symbol, unimodular


def reports(inputs):
    tmp_path, phi, psi, symbol, unimodular = inputs
    dual = str(tmp_path / "dual.json")
    yield ["frame-info", phi, "--dual-out", dual]
    yield ["frame-info", write_json(tmp_path / "flat.json",
                                    {"dim": 2, "vectors": [[[1, 0], [0, 0]], [[2, 0], [0, 0]]]}),
           "--dual-out", str(tmp_path / "no_dual.json")]
    for m in (symbol, unimodular):
        yield ["multiplier", "--symbol", m, "--phi", phi, "--psi", psi, "--verify-all", "--seed", "5"]
    yield ["multiplier", "--symbol", symbol, "--phi", phi, "--psi", psi,
           "--verify-all", "--seed", "5", "--tol-rel", "1e-20"]
    # reports that hold non-finite floats: NaN singular values, an infinite cond_max
    big = write_json(tmp_path / "big.json",
                     {"dim": 2, "vectors": [[[1e160, 0], [0, 0]], [[0, 0], [1e160, 0]],
                                            [[1e160, 0], [1e160, 0]]]})
    yield ["multiplier", "--symbol", symbol, "--phi", big, "--psi", big, "--invert"]
    yield ["multiplier", "--symbol", symbol, "--phi", phi, "--psi", psi, "--invert",
           "--cond-max", "inf"]
    yield ["examples", "list"]
    yield ["examples", "run", "--all", "--horizon", "20"]


def test_every_report_matches_the_report_schema(capsys, inputs):
    report_schema = validator("report.schema.json")
    commands = set()
    for argv in reports(inputs):
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
        report_schema.validate(report)
        commands.add(report["command"])
        for entry in report["findings"]:
            if "residual" in entry:
                assert entry["ok"] == (entry["residual"] <= entry["tolerance"]), entry
        assert report["verdict"] == schema_verdict(report["findings"])
    assert commands == {"frame-info", "multiplier", "examples"}

    tmp_path = inputs[0]
    validator("frame.schema.json").validate(json.loads((tmp_path / "dual.json").read_text()))
    assert not (tmp_path / "no_dual.json").exists()
