import json
import math
import os
import pathlib

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import framemult.formats as fmt
from framemult.errors import ParseError
from framemult.frames import FiniteFrame
from framemult.multipliers import Symbol

BEYOND_DOUBLE = 10**400  # a valid JSON integer that no double can hold
SCHEMAS = pathlib.Path(__file__).resolve().parent.parent / "docs" / "schema"


def test_frame_roundtrip():
    f = FiniteFrame([[1.0, 2.0j], [0.5, -1.0]])
    back = fmt.frame_from_json("".join(fmt.frame_text(f)))
    assert np.array_equal(back.synthesis, f.synthesis)


def test_symbol_roundtrip():
    m = Symbol([1.0, -2.0j, 0.25 + 0.25j])
    back = fmt.symbol_from_json(json.dumps({"values": [[z.real, z.imag] for z in m.values.tolist()]}))
    assert np.array_equal(back.values, m.values)


@pytest.mark.parametrize(
    "doc",
    [
        42,
        {},
        {"dim": 2},
        {"dim": 0, "vectors": [[[1, 0]]]},
        {"dim": "2", "vectors": [[[1, 0], [0, 0]]]},
        {"dim": 2, "vectors": []},
        {"dim": 2, "vectors": [[[1, 0]]]},
        {"dim": 1, "vectors": [[[1, 0, 0]]]},
        {"dim": 1, "vectors": [[["x", 0]]]},
        {"dim": 1, "vectors": [[[True, 0]]]},
        {"dim": 1, "vectors": [[[BEYOND_DOUBLE, 0]]]},
        {"dim": 1, "vectors": [[[1, 0]]], "note": "x"},
    ],
)
def test_frame_from_json_rejects_malformed(doc):
    with pytest.raises(ParseError):
        fmt.frame_from_json(json.dumps(doc))


@pytest.mark.parametrize(
    "doc",
    [[], {"values": []}, {"values": [[1]]}, {"values": [1, 2]}, {"wrong": []},
     {"values": [[1, 0], [0, -BEYOND_DOUBLE]]}, {"values": [[1, 0]], "note": "x"}],
)
def test_symbol_from_json_rejects_malformed(doc):
    with pytest.raises(ParseError):
        fmt.symbol_from_json(json.dumps(doc))


@pytest.mark.parametrize("load", [fmt.load_frame_file, fmt.load_symbol_file])
def test_load_file_errors(tmp_path, load):
    missing = tmp_path / "nope.json"
    with pytest.raises(ParseError, match="cannot read"):
        load(str(missing))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError, match="is not valid JSON"):
        load(str(bad))


# -------------------------------------------- the readers against the schemas

# ints, floats, -0.0, subnormals and numbers near the ends of the double range
numbers = st.one_of(
    st.integers(min_value=-(2**1023), max_value=2**1023),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1e308, -1e308]),
)
pairs = st.lists(numbers, min_size=2, max_size=2)


@st.composite
def frame_docs(draw):
    dim = draw(st.integers(min_value=1, max_value=4))
    size = draw(st.integers(min_value=1, max_value=5))
    vectors = draw(st.lists(st.lists(pairs, min_size=dim, max_size=dim),
                            min_size=size, max_size=size))
    return {"dim": dim, "vectors": vectors}


@st.composite
def symbol_docs(draw):
    return {"values": draw(st.lists(pairs, min_size=1, max_size=8))}


BAD_ENTRIES = {"number": ["1", None, [1.0], {}], "bool": [True, False],
               "non-finite": [float("inf"), -float("inf"), float("nan")],
               "beyond-double": [BEYOND_DOUBLE, -BEYOND_DOUBLE]}
BAD_PAIRS = [[1.0], [1.0, 2.0, 3.0], "x", 3.0, {}, []]


@st.composite
def mutated(draw, kind: str):
    """A document of ``kind`` with at most one fault, and the start of the message that names it.

    The message start is None for a document left as drawn.
    """
    doc = draw(frame_docs() if kind == "frame" else symbol_docs())
    faults = ["none"] * 3 + ["extra-key", "missing-key", "top-level", "pair", *BAD_ENTRIES]
    faults += ["vector", "wrong-length", "dim", "vectors"] if kind == "frame" else ["values"]
    fault = draw(st.sampled_from(faults))
    if fault == "none":
        return doc, None
    if fault == "extra-key":
        doc["note"] = draw(st.sampled_from(["x", 1, None, []]))
        return doc, f"{kind}: unexpected key 'note'"
    if fault == "missing-key":
        del doc[draw(st.sampled_from(sorted(doc)))]
        return doc, f"{kind}: needs "
    if fault == "top-level":
        return draw(st.sampled_from([[], 42, "x", None])), f"{kind}: expected a JSON object"
    if fault == "values":
        doc["values"] = draw(st.sampled_from([[], {}, "x", 3.0]))
        return doc, "symbol.values:"
    if fault == "dim":
        doc["dim"] = draw(st.sampled_from([0, -1, "2", True, None, float(doc["dim"])]))
        return doc, "frame: 'dim' must be a positive integer"
    if fault == "vectors":
        doc["vectors"] = draw(st.sampled_from([[], {}, "x", 3.0]))
        return doc, "frame: needs at least one vector" if doc["vectors"] == [] else "frame.vectors:"
    if kind == "symbol":
        rows, where = doc["values"], "symbol.values"
    else:
        n = draw(st.integers(0, len(doc["vectors"]) - 1))
        rows, where = doc["vectors"][n], f"frame.vectors[{n}]"
    if fault in ("vector", "wrong-length"):
        doc["vectors"][n] = draw(st.sampled_from(
            ["abc", {"re": 1.0}] if fault == "vector" else [rows[:-1], rows + [[0.0, 0.0]]]))
        return doc, f"{where}:"
    i = draw(st.integers(0, len(rows) - 1))
    if fault == "pair":
        rows[i] = draw(st.sampled_from(BAD_PAIRS))
    else:
        rows[i][draw(st.integers(0, 1))] = draw(st.sampled_from(BAD_ENTRIES[fault]))
    return doc, f"{where}[{i}]:"


VALIDATORS = {kind: jsonschema.Draft202012Validator(
    json.loads((SCHEMAS / f"{kind}.schema.json").read_text())) for kind in ("frame", "symbol")}


def within_the_double_range(x) -> bool:
    try:
        return math.isfinite(float(x))
    except OverflowError:
        return False


def accepted_by_the_schema_and_the_semantic_rules(kind: str, doc) -> bool:
    """The schema, then what it cannot say: finite numbers that a double holds, each vector
    ``dim`` pairs long, and ``dim`` written as an integer (the schema takes 2.0 as one)."""
    if not VALIDATORS[kind].is_valid(doc):
        return False
    rows = [doc["values"]] if kind == "symbol" else doc["vectors"]
    if not all(within_the_double_range(x) for row in rows for pair in row for x in pair):
        return False
    return kind == "symbol" or (type(doc["dim"]) is int and all(len(row) == doc["dim"] for row in rows))


def entries_pair_by_pair(kind: str, doc) -> bytes:
    rows = [doc["values"]] if kind == "symbol" else doc["vectors"]
    entries = np.array([[fmt.pair_to_complex(p) for p in row] for row in rows], dtype=np.complex128)
    return entries.T.tobytes()


def read(kind: str, text: str) -> bytes:
    if kind == "symbol":
        return fmt.symbol_from_json(text).values.tobytes()
    return fmt.frame_from_json(text).synthesis.tobytes()


def ordered(doc, reverse: bool):
    return {key: doc[key] for key in sorted(doc, reverse=reverse)} if isinstance(doc, dict) else doc


@settings(deadline=None, max_examples=300, derandomize=True)
@given(st.sampled_from(["frame", "symbol"]).flatmap(
           lambda kind: st.tuples(st.just(kind), mutated(kind))),
       st.booleans(), st.sampled_from([None, 0, 2, "\t", " \r\n\t"]),
       st.sampled_from([(",", ":"), (", ", ": "), (" ,\t", "\n:\r ")]))
def test_the_readers_accept_exactly_what_the_schemas_and_the_semantic_rules_accept(
        case, reverse, indent, separators):
    kind, (doc, location) = case
    text = json.dumps(ordered(doc, reverse), indent=indent, separators=separators)
    if accepted_by_the_schema_and_the_semantic_rules(kind, doc):
        assert location is None
        assert read(kind, text) == entries_pair_by_pair(kind, doc)
    else:
        with pytest.raises(ParseError) as caught:  # any other exception fails the test
            read(kind, text)
        assert location is not None and str(caught.value).startswith(location)


PLAIN = '{"dim": 2, "vectors": [[[1, 0], [0, 1]], [[0.5, -2], [3e-310, 1e308]]]}'


def with_bad_pair(name: str, pair: str) -> list:
    """Documents with ``pair`` in the first vector, and in the last after good ones."""
    return [(f"{name}-first", '{"dim": 2, "vectors": [[%s, [0, 1]], [[1, 0], [0, 1]]]}' % pair,
             "frame.vectors[0][0]:"),
            (f"{name}-last", PLAIN[:-2] + ", [[1, 0], %s]]}" % pair, "frame.vectors[2][1]:")]


# entries the float buffer turns away by itself, first with no numbers
# buffered yet and last with the good vectors' numbers already in it
TURNED_AWAY_BY_THE_BUFFER = [
    case
    for name, pair in [("false", "[false, 0]"), ("null", "[0, null]"), ("string-pair", '"ab"'),
                       ("object-pair", '{"re": 1, "im": 0}'),
                       ("nested-pair", "[[1, 2], [3, 4]]"), ("minus-infinity", "[-Infinity, 0]")]
    for case in with_bad_pair(name, pair)
]
NOT_JSON = "frame: <text> is not valid JSON"
ODD_FRAME_DOCUMENTS = [
    ("extra-key", '{"dim": 2, "extra": 1, "vectors": [[[1, 0], [0, 1]]]}', "frame: unexpected key 'extra'"),
    ("duplicate-vectors", '{"dim": 1, "vectors": [[["x", 0]]], "vectors": [[[1, 0]], [[0, 1]]]}',
     "frame: <text> repeats the key 'vectors'"),
    ("duplicate-dim", '{"dim": 1, "dim": 1, "vectors": [[[1, 0]]]}', "frame: <text> repeats the key 'dim'"),
    ("duplicate-in-a-pair", '{"dim": 1, "vectors": [[{"re": 1, "re": 0}]]}',
     "frame: <text> repeats the key 're'"),
    ("nan", '{"dim": 1, "vectors": [[[NaN, 0]]]}', "frame.vectors[0][0]: entries must be finite"),
    ("infinity", '{"dim": 1, "vectors": [[[0, Infinity]]]}', "frame.vectors[0][0]: entries must be finite"),
    ("1e999", '{"dim": 1, "vectors": [[[1e999, 0]]]}', "frame.vectors[0][0]: entries must be finite"),
    ("10**400", '{"dim": 1, "vectors": [[[1, 0]], [[' + str(BEYOND_DOUBLE) + ', 0]]]}',
     "frame.vectors[1][0]: number beyond the double range"),
    ("true", '{"dim": 1, "vectors": [[[true, 0]]]}', "frame.vectors[0][0]: expected a [re, im]"),
    ("bom", "\ufeff" + PLAIN, NOT_JSON),
    ("trailing-text", PLAIN + " x", NOT_JSON),
    ("unclosed", PLAIN[:-1], NOT_JSON),
    ("no-vectors", '{"dim": 2, "vectors": []}', "frame: needs at least one vector"),
    ("dim-true", '{"dim": true, "vectors": [[[1, 0]]]}', "frame: 'dim' must be"),
    ("dim-0", '{"dim": 0, "vectors": [[[1, 0]]]}', "frame: 'dim' must be"),
    ("dim-string", '{"dim": "2", "vectors": [[[1, 0], [0, 1]]]}', "frame: 'dim' must be"),
    ("dim-float", '{"dim": 2.0, "vectors": [[[1, 0], [0, 1]]]}', "frame: 'dim' must be"),
    ("vector-not-a-list", '{"dim": 1, "vectors": [[[1, 0]], 5]}', "frame.vectors[1]: expected a JSON array"),
    ("empty-vector", '{"dim": 1, "vectors": [[[1, 0]], []]}', "frame.vectors[1]: must not be empty"),
    ("ragged", '{"dim": 2, "vectors": [[[1, 0], [0, 1]], [[1, 0]]]}', "frame.vectors[1]: has 1 entries"),
    ("dim-mismatch", '{"dim": 2, "vectors": [[[1, 0]], [[0, 1]]]}', "frame.vectors[0]: has 1 entries"),
    ("ragged-same-count", '{"dim": 2, "vectors": [[[1, 0]], [[0, 1], [1, 0], [1, 1]], [[1, 0], [0, 1]]]}',
     "frame.vectors[0]: has 1 entries"),
    ("pair-lengths-3-1", '{"dim": 2, "vectors": [[[1, 0], [0, 1]], [[1, 0, 0], [1]]]}',
     "frame.vectors[1][0]: expected a [re, im]"),
    ("trailing-comma-array", '{"dim": 1, "vectors": [[[1, 0]],]}', NOT_JSON),
    ("trailing-comma-object", '{"dim": 1, "vectors": [[[1, 0]]],}', NOT_JSON),
    ("missing-vectors", '{"dim": 1}', "frame: needs 'dim' and 'vectors'"),
    ("missing-dim", '{"vectors": [[[1, 0]]]}', "frame: needs 'dim' and 'vectors'"),
    ("empty-object", "{}", "frame: needs 'dim' and 'vectors'"),
    ("top-level-array", "[]", "frame: expected a JSON object, got list"),
    ("empty-file", "", NOT_JSON),
    ("nested-vectors", '{"dim": 1, "vectors": ' + "[" * 3000 + "]" * 3000 + "}",
     "frame: <text> nests arrays or objects too deeply"),
    *TURNED_AWAY_BY_THE_BUFFER,
]


@pytest.mark.parametrize("text, message", [case[1:] for case in ODD_FRAME_DOCUMENTS],
                         ids=[case[0] for case in ODD_FRAME_DOCUMENTS])
def test_odd_frame_documents_raise_a_parse_error_naming_their_first_fault(text, message):
    with pytest.raises(ParseError) as caught:
        fmt.frame_from_json(text)
    assert str(caught.value).startswith(message)


@pytest.mark.parametrize("text, message", [
    ('{"values": [[1, 0]], "values": [[2, 0]]}', "symbol: <text> repeats the key 'values'"),
    ('{"values": [[1, 0], [true, 0]]}', "symbol.values[1]: expected a [re, im]"),
    ('{"values": [[1, 0], [0, -Infinity]]}', "symbol.values[1]: entries must be finite"),
    ('{"values": [[1, 0]],}', "symbol: <text> is not valid JSON"),
    ("\ufeff" + '{"values": [[1, 0]]}', "symbol: <text> is not valid JSON"),
    ('{"values": ' + "[" * 3000 + "]" * 3000 + "}", "symbol: <text> nests arrays or objects too deeply"),
], ids=["duplicate-values", "true", "minus-infinity", "trailing-comma", "bom", "nested-values"])
def test_odd_symbol_documents_raise_a_parse_error_naming_their_first_fault(text, message):
    with pytest.raises(ParseError) as caught:
        fmt.symbol_from_json(text)
    assert str(caught.value).startswith(message)


@pytest.mark.parametrize("text", [
    '{"d\\u0069m": 1, "vectors": [[[1, 0]]]}',
    '{"vectors": [[[1, 0]]], "dim": 1}',
    '\n {"dim":1,"vectors":[[[1,0]]]} \n\t\r',
], ids=["escaped-key", "keys-reversed", "whitespace"])
def test_odd_but_valid_frame_documents_are_read(text):
    assert fmt.frame_from_json(text).synthesis.tolist() == [[1 + 0j]]


def test_serialization_matches_the_per_entry_form_byte_for_byte():
    rng = np.random.default_rng(7)
    entries = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    entries[0, 0] = complex(-0.0, 0.0)
    entries[1, 2] = complex(1.5, -0.0)
    entries[2, 1] = complex(-0.0, -0.0)
    frame = FiniteFrame(entries)
    per_entry = {"dim": frame.dim,
                 "vectors": [[[complex(z).real, complex(z).imag] for z in frame.synthesis[:, n]]
                             for n in range(frame.size)]}
    assert "".join(fmt.frame_text(frame)) == json.dumps(per_entry, sort_keys=True) + "\n"


# ------------------------------------------------------------------ frame files


def plain_frame_file(tmp_path, dim: int, size: int, write) -> tuple[str, bytes]:
    """A frame file of random entries written by ``write``: its path, and the synthesis
    bytes of a pair_to_complex walk of it."""
    rng = np.random.default_rng(dim * size)
    frame = FiniteFrame(rng.standard_normal((size, dim)) + 1j * rng.standard_normal((size, dim)))
    path = tmp_path / f"frame-{dim}x{size}.json"
    with open(path, "w", encoding="utf-8") as handle:
        write(frame, handle)
    return str(path), entries_pair_by_pair("frame", json.loads(path.read_text()))


def dumped(frame, handle):
    json.dump({"dim": frame.dim, "vectors": fmt._pairs(frame.synthesis.T)}, handle)


def streamed_text(frame, handle):
    handle.writelines(fmt.frame_text(frame))


@pytest.mark.parametrize("write", [dumped, streamed_text])
def test_frame_and_symbol_files_never_fall_back(tmp_path, monkeypatch, write):
    path, walked = plain_frame_file(tmp_path, 16, 64, write)
    symbol_path = tmp_path / "symbol.json"
    values = json.loads(pathlib.Path(path).read_text())["vectors"][0]
    symbol_path.write_text(json.dumps({"values": values}))

    def fell_back(*args):
        raise AssertionError("a valid file went to the whole-document decode")

    monkeypatch.setattr(fmt, "_refuse", fell_back)
    frame, _ = fmt.load_frame_file(path)
    assert frame.synthesis.shape == (16, 64)
    assert frame.synthesis.tobytes() == walked
    symbol, _ = fmt.load_symbol_file(str(symbol_path))
    assert symbol.values.tobytes() == entries_pair_by_pair("symbol", {"values": values})


def test_frame_file_decoding_holds_no_more_than_three_arrays_above_its_text(tmp_path):
    # the read holds the file's bytes and its text together for a moment;
    # the decode holds the float buffer and the synthesis copied from it.
    # json.loads would hold every number as a Python float (about 13.6 arrays)
    import tracemalloc

    dim, size = 64, 256
    path, _ = plain_frame_file(tmp_path, dim, size, dumped)
    text_bytes = os.path.getsize(path)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        frame, _ = fmt.load_frame_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert frame.synthesis.shape == (dim, size)
    arrays = (peak - base - text_bytes) / (dim * size * np.dtype(np.complex128).itemsize)
    assert arrays <= 3.0, arrays
