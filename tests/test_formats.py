import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import framemult.formats as fmt
from framemult.errors import ParseError
from framemult.frames import FiniteFrame
from framemult.multipliers import Symbol

BEYOND_DOUBLE = 10**400  # a valid JSON integer that no double can hold


def test_frame_roundtrip():
    f = FiniteFrame([[1.0, 2.0j], [0.5, -1.0]])
    doc = json.loads("".join(fmt.frame_text(f)))
    back = fmt.frame_from_json(doc)
    assert np.array_equal(back.synthesis, f.synthesis)


def test_symbol_roundtrip():
    m = Symbol([1.0, -2.0j, 0.25 + 0.25j])
    back = fmt.symbol_from_json({"values": [[z.real, z.imag] for z in m.values.tolist()]})
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
    ],
)
def test_frame_from_json_rejects_malformed(doc):
    with pytest.raises(ParseError):
        fmt.frame_from_json(doc)


@pytest.mark.parametrize(
    "doc",
    [[], {"values": []}, {"values": [[1]]}, {"values": [1, 2]}, {"wrong": []},
     {"values": [[1, 0], [0, -BEYOND_DOUBLE]]}],
)
def test_symbol_from_json_rejects_malformed(doc):
    with pytest.raises(ParseError):
        fmt.symbol_from_json(doc)


def test_load_json_file_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ParseError):
        fmt.load_json_file(str(missing))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        fmt.load_json_file(str(bad))


# ------------------------------------------- array parsing and serialization

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


def synthesis_pair_by_pair(doc) -> np.ndarray:
    rows = [[fmt.pair_to_complex(p) for p in vec] for vec in doc["vectors"]]
    return np.array(rows, dtype=np.complex128).T


@settings(deadline=None, max_examples=200)
@given(frame_docs())
def test_array_parser_matches_pair_to_complex_bit_for_bit(doc):
    got = fmt.frame_from_json(doc).synthesis
    want = synthesis_pair_by_pair(doc)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    values = [pair for vec in doc["vectors"] for pair in vec]
    symbol = fmt.symbol_from_json({"values": values})
    assert symbol.values.tobytes() == synthesis_pair_by_pair({"vectors": [values]}).tobytes()


def frame_errors_pair_by_pair(doc) -> str:
    """The message the per-pair walk gives for the first bad entry of a frame's vectors."""
    try:
        for n, vec in enumerate(doc["vectors"]):
            entries = fmt._complex_vector(vec, f"frame.vectors[{n}]")
            if len(entries) != doc["dim"]:
                raise ParseError(
                    f"frame.vectors[{n}]: has {len(entries)} entries, expected dim = {doc['dim']}"
                )
    except ParseError as exc:
        return str(exc)
    raise AssertionError("the document is well formed")


BAD_NUMBERS = ["1", True, None, float("inf"), float("nan"), BEYOND_DOUBLE, [1.0]]
BAD_PAIRS = [[1.0], [1.0, 2.0, 3.0], "x", 3.0, {}, []]


@settings(deadline=None, max_examples=200)
@given(frame_docs(), st.data())
def test_malformed_docs_name_the_same_location(doc, data):
    vectors = doc["vectors"]
    n = data.draw(st.integers(0, len(vectors) - 1))
    i = data.draw(st.integers(0, doc["dim"] - 1))
    kind = data.draw(st.sampled_from(["number", "pair", "vector"]))
    if kind == "number":
        vectors[n][i][data.draw(st.integers(0, 1))] = data.draw(st.sampled_from(BAD_NUMBERS))
        location = f"frame.vectors[{n}][{i}]:"
    elif kind == "pair":
        vectors[n][i] = data.draw(st.sampled_from(BAD_PAIRS))
        location = f"frame.vectors[{n}][{i}]:"
    else:
        vectors[n] = data.draw(st.sampled_from(
            [vectors[n][:-1], vectors[n] + [[0.0, 0.0]], "abc", {"re": 1.0}]))
        location = f"frame.vectors[{n}]:"
    with pytest.raises(ParseError) as caught:
        fmt.frame_from_json(doc)
    assert str(caught.value).startswith(location)
    assert str(caught.value) == frame_errors_pair_by_pair(doc)
    if kind != "vector":
        with pytest.raises(ParseError) as caught:
            fmt.symbol_from_json({"values": vectors[n]})
        assert str(caught.value).startswith(f"symbol.values[{i}]:")


def complex_to_pair(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def per_entry_frame(frame: FiniteFrame) -> dict:
    return {"dim": frame.dim,
            "vectors": [[complex_to_pair(z) for z in frame.synthesis[:, n]]
                        for n in range(frame.size)]}


def test_serialization_matches_the_per_entry_form_byte_for_byte():
    rng = np.random.default_rng(7)
    entries = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    entries[0, 0] = complex(-0.0, 0.0)
    entries[1, 2] = complex(1.5, -0.0)
    entries[2, 1] = complex(-0.0, -0.0)
    frame = FiniteFrame(entries)
    assert "".join(fmt.frame_text(frame)) == json.dumps(per_entry_frame(frame), sort_keys=True) + "\n"


# ------------------------------------------------- frame files, vector by vector


def loaded_both_ways(tmp_path, text: str):
    """(load_frame_file, frame_from_json of load_json_file) on one file: synthesis bytes or message."""
    path = tmp_path / "frame.json"
    path.write_bytes(text.encode("utf-8"))
    outcomes = []
    for load in (lambda: fmt.load_frame_file(str(path), "frame")[0],
                 lambda: fmt.frame_from_json(fmt.load_json_file(str(path), "frame")[0])):
        try:
            outcomes.append(load().synthesis.tobytes())
        except ParseError as exc:
            outcomes.append(str(exc))
    return outcomes


def ordered(doc, vectors_first):
    return {key: doc[key] for key in (("vectors", "dim") if vectors_first else ("dim", "vectors"))}


@settings(deadline=None, max_examples=200, derandomize=True)
@given(frame_docs(), st.booleans(), st.sampled_from([None, 0, 2, "\t", " \r\n\t"]),
       st.sampled_from([(",", ":"), (", ", ": "), (" ,\t", "\n:\r ")]))
def test_vector_by_vector_decoding_matches_json_loads(tmp_path_factory, doc, vectors_first,
                                                      indent, separators):
    text = json.dumps(ordered(doc, vectors_first), indent=indent, separators=separators)
    streamed, whole = loaded_both_ways(tmp_path_factory.mktemp("doc"), text)
    assert streamed == whole
    # the document is plain, so the vector-by-vector route decided it
    assert fmt._plain_frame(text).synthesis.tobytes() == whole


PLAIN = '{"dim": 2, "vectors": [[[1, 0], [0, 1]], [[0.5, -2], [3e-310, 1e308]]]}'


def with_bad_pair(pair: str) -> dict:
    """Documents with ``pair`` in the first vector, and in the last after good ones."""
    return {"first": '{"dim": 2, "vectors": [[%s, [0, 1]], [[1, 0], [0, 1]]]}' % pair,
            "last": PLAIN[:-2] + ", [[1, 0], %s]]}" % pair}


# entries the plain route's float buffer turns away by itself, first with no
# numbers buffered yet and last with the good vectors' numbers already in it
TURNED_AWAY_BY_THE_BUFFER = {
    f"{name}-{where}": text
    for name, pair in [("false", "[false, 0]"), ("null", "[0, null]"), ("string-pair", '"ab"'),
                       ("object-pair", '{"re": 1, "im": 0}'),
                       ("nested-pair", "[[1, 2], [3, 4]]"), ("minus-infinity", "[-Infinity, 0]")]
    for where, text in with_bad_pair(pair).items()
}


@pytest.mark.parametrize("text", [
    '{"dim": 2, "extra": 1, "vectors": [[[1, 0], [0, 1]]]}',
    '{"dim": 1, "vectors": [[["x", 0]]], "vectors": [[[1, 0]], [[0, 1]]]}',
    '{"dim": 1, "dim": 1, "vectors": [[[1, 0]]]}',
    '{"d\\u0069m": 1, "vectors": [[[1, 0]]]}',
    '{"dim": 1, "vectors": [[[NaN, 0]]]}',
    '{"dim": 1, "vectors": [[[0, Infinity]]]}',
    '{"dim": 1, "vectors": [[[1e999, 0]]]}',
    '{"dim": 1, "vectors": [[[1, 0]], [[' + str(BEYOND_DOUBLE) + ', 0]]]}',
    '{"dim": 1, "vectors": [[[true, 0]]]}',
    "\ufeff" + PLAIN,
    PLAIN + " x",
    PLAIN + " \n\t\r",
    PLAIN[:-1],
    '{"dim": 2, "vectors": []}',
    '{"dim": true, "vectors": [[[1, 0]]]}',
    '{"dim": 0, "vectors": [[[1, 0]]]}',
    '{"dim": "2", "vectors": [[[1, 0], [0, 1]]]}',
    '{"dim": 2.0, "vectors": [[[1, 0], [0, 1]]]}',
    '{"dim": 1, "vectors": [[[1, 0]], 5]}',
    '{"dim": 1, "vectors": [[[1, 0]], []]}',
    '{"dim": 2, "vectors": [[[1, 0], [0, 1]], [[1, 0]]]}',
    '{"dim": 2, "vectors": [[[1, 0]], [[0, 1]]]}',
    '{"dim": 2, "vectors": [[[1, 0]], [[0, 1], [1, 0], [1, 1]], [[1, 0], [0, 1]]]}',
    '{"dim": 2, "vectors": [[[1, 0], [0, 1]], [[1, 0, 0], [1]]]}',
    '{"dim": 1, "vectors": [[[1, 0]],]}',
    '{"dim": 1, "vectors": [[[1, 0]]],}',
    '{"dim": 1}',
    '{"vectors": [[[1, 0]]]}',
    "{}",
    "[]",
    "",
    '{"dim": 1, "vectors": ' + "[" * 3000 + "]" * 3000 + "}",
    *TURNED_AWAY_BY_THE_BUFFER.values(),
], ids=["extra-key", "duplicate-vectors", "duplicate-dim", "escaped-key", "nan", "infinity",
        "1e999", "10**400", "true", "bom", "trailing-text", "trailing-whitespace", "unclosed",
        "no-vectors", "dim-true", "dim-0", "dim-string", "dim-float", "vector-not-a-list",
        "empty-vector", "ragged", "dim-mismatch", "ragged-same-count", "pair-lengths-3-1",
        "trailing-comma-array", "trailing-comma-object", "missing-vectors", "missing-dim", "empty-object",
        "top-level-array", "empty-file", "nested-vectors", *TURNED_AWAY_BY_THE_BUFFER])
def test_vector_by_vector_decoding_matches_json_loads_on_odd_documents(tmp_path, text):
    streamed, whole = loaded_both_ways(tmp_path, text)
    assert streamed == whole
    plain = fmt._plain_frame(text)
    if text in TURNED_AWAY_BY_THE_BUFFER.values():
        assert plain is None
    else:
        assert plain is None or plain.synthesis.tobytes() == whole


def plain_frame_file(tmp_path, dim: int, size: int, write) -> tuple[str, bytes]:
    """A plain frame file of random entries written by ``write``: its path, and the synthesis
    bytes that ``json.loads`` and ``frame_from_json`` decode from it."""
    rng = np.random.default_rng(dim * size)
    frame = FiniteFrame(rng.standard_normal((size, dim)) + 1j * rng.standard_normal((size, dim)))
    path = tmp_path / f"frame-{dim}x{size}.json"
    with open(path, "w", encoding="utf-8") as handle:
        write(frame, handle)
    return str(path), fmt.frame_from_json(json.loads(path.read_text())).synthesis.tobytes()


def dumped(frame, handle):
    json.dump({"dim": frame.dim, "vectors": fmt._pairs(frame.synthesis.T)}, handle)


def streamed_text(frame, handle):
    handle.writelines(fmt.frame_text(frame))


@pytest.mark.parametrize("write", [dumped, streamed_text])
def test_plain_frame_files_never_fall_back(tmp_path, monkeypatch, write):
    path, whole = plain_frame_file(tmp_path, 16, 64, write)

    def fell_back(*args):
        raise AssertionError("a plain frame file went to the whole-document route")

    monkeypatch.setattr(fmt, "_decode", fell_back)
    monkeypatch.setattr(fmt, "frame_from_json", fell_back)
    frame, _ = fmt.load_frame_file(path)
    assert frame.synthesis.shape == (16, 64)
    assert frame.synthesis.tobytes() == whole


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
