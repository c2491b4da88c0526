import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import framemult.blockseq as bs
import framemult.formats as fmt
from framemult.errors import ParseError
from framemult.frames import FiniteFrame
from framemult.multipliers import Symbol

BEYOND_DOUBLE = 10**400  # a valid JSON integer that no double can hold


def test_frame_roundtrip():
    f = FiniteFrame([[1.0, 2.0j], [0.5, -1.0]])
    doc = fmt.frame_to_json(f)
    back = fmt.frame_from_json(doc)
    assert np.array_equal(back.synthesis, f.synthesis)


def test_symbol_roundtrip():
    m = Symbol([1.0, -2.0j, 0.25 + 0.25j])
    back = fmt.symbol_from_json(fmt.symbol_to_json(m))
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


def test_block_system_roundtrip_constant():
    sys = bs.BlockSystem.constant_template(
        [[1.0, 0.0], [0.0, 1.0]], [[1.0, 1.0], [1.0, -1.0]], [2.0, 0.5], name="demo"
    )
    back = fmt.block_system_from_json(fmt.block_system_to_json(sys))
    assert back.kind == "constant-template"
    assert back.name == "demo"
    for a, b in zip(sys.block(3), back.block(3)):
        assert np.array_equal(a, b)


def test_block_system_roundtrip_harmonic():
    sys = bs.BlockSystem.harmonic_weight(
        [[1.0]], [0], [[1.0]], [1], [1.0], [1], name="h"
    )
    back = fmt.block_system_from_json(fmt.block_system_to_json(sys))
    assert back.kind == "harmonic-weight"
    for a, b in zip(sys.block(5), back.block(5)):
        assert np.array_equal(a, b)


def test_block_system_roundtrip_interleave():
    sys = bs.example_registry()["ex4_2"].system
    back = fmt.block_system_from_json(fmt.block_system_to_json(sys))
    assert back == sys  # frozen dataclass equality


def test_block_system_rejects_unknown_kind():
    with pytest.raises(ParseError):
        fmt.block_system_from_json({"kind": "mystery", "params": {}})
    with pytest.raises(ParseError):
        fmt.block_system_from_json({"kind": "constant-template", "params": {"phi": [[[1, 0]]]}})


@pytest.mark.parametrize(
    "doc",
    [
        {"kind": "constant-template",
         "params": {"phi": [[[1, 0]]], "psi": [[[1, 0]]], "m": [[BEYOND_DOUBLE, 0]]}},
        {"kind": "harmonic-weight",
         "params": {"phi": [[[1, 0]]], "phi_exponents": [0], "psi": [[[1, 0]]],
                    "psi_exponents": [BEYOND_DOUBLE], "m": [[1, 0]], "m_exponents": [0]}},
    ],
)
def test_block_system_rejects_numbers_beyond_the_double_range(doc):
    with pytest.raises(ParseError):
        fmt.block_system_from_json(doc)


@pytest.mark.parametrize("number", ["Infinity", "-Infinity", "NaN"])
@pytest.mark.parametrize("key", ["phi_exponents", "psi_exponents", "m_exponents"])
def test_block_system_rejects_non_finite_exponents(key, number):
    params = {"phi": [[[1, 0]]], "phi_exponents": [0], "psi": [[[1, 0]]],
              "psi_exponents": [1], "m": [[1, 0]], "m_exponents": [1]}
    text = json.dumps({"kind": "harmonic-weight", "params": params})
    text = text.replace(f'"{key}": [{params[key][0]}]', f'"{key}": [{number}]')
    doc = json.loads(text)  # Python's json module reads these extensions as floats
    with pytest.raises(ParseError, match=f"params.{key}"):
        fmt.block_system_from_json(doc)


def test_interleave_rejects_a_ratio_bound_beyond_the_double_range():
    doc = fmt.block_system_to_json(bs.example_registry()["ex4_2"].system)
    doc["params"]["ratio_bound"] = BEYOND_DOUBLE
    with pytest.raises(ParseError, match="ratio_bound"):
        fmt.block_system_from_json(doc)


def test_generator_system_has_no_json_form():
    sys = bs.BlockSystem.from_generator(
        1, lambda k: (np.array([[1.0]]), np.array([[1.0]]), np.array([1.0]))
    )
    with pytest.raises(ParseError):
        fmt.block_system_to_json(sys)


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


def per_entry_frame(frame: FiniteFrame) -> dict:
    return {"dim": frame.dim,
            "vectors": [[fmt.complex_to_pair(z) for z in frame.vector(n)]
                        for n in range(frame.size)]}


def test_serialization_matches_the_per_entry_form_byte_for_byte():
    rng = np.random.default_rng(7)
    entries = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    entries[0, 0] = complex(-0.0, 0.0)
    entries[1, 2] = complex(1.5, -0.0)
    entries[2, 1] = complex(-0.0, -0.0)
    frame = FiniteFrame(entries)
    dumps = lambda doc: json.dumps(doc, sort_keys=True)
    assert dumps(fmt.frame_to_json(frame)) == dumps(per_entry_frame(frame))

    symbol = Symbol(entries[:, 0])
    want = {"values": [fmt.complex_to_pair(z) for z in symbol.values]}
    assert dumps(fmt.symbol_to_json(symbol)) == dumps(want)

    system = bs.BlockSystem.harmonic_weight(
        entries[:2, :2], [0, 1], entries[2:4, :2], [1, 0], entries[4:6, 0], [1, 2], name="h")
    packed = fmt.block_system_to_json(system)["params"]
    for key, arr in (("phi", entries[:2, :2]), ("psi", entries[2:4, :2]), ("m", entries[4:6, 0])):
        want = ([[fmt.complex_to_pair(z) for z in row] for row in arr] if arr.ndim == 2
                else [fmt.complex_to_pair(z) for z in arr])
        assert dumps(packed[key]) == dumps(want)
