"""JSON wire formats for frames and symbols.

Complex scalars travel as two-element [re, im] arrays. A frame document is

    {"dim": d, "vectors": [[[re, im], ...], ...]}

with one inner list of d pairs per vector. A symbol document is

    {"values": [[re, im], ...]}

Anything malformed raises ParseError.

A frame file is decoded one vector at a time: each vector is parsed from
the text, its numbers are appended to one float buffer and its Python
lists are released before the next, so the file's numbers are never all
held as Python objects. At the end one finiteness test takes the whole
buffer and one transposed copy makes it the synthesis. That route takes
only a well-formed plain {"dim", "vectors"} object (either key order, any
JSON whitespace); any other document, valid or not, goes to
``json.loads`` and ``frame_from_json``, which decide it and word every
ParseError. Symbol files take that route always.

The plain route checks a vector's structure by its pair lengths and
leaves the element types to the float buffer, which refuses anything but
a number or a boolean; a boolean is found in the vector's text instead.
A symbol document checks and converts its pairs as a whole: one pass each
over the pairs and the numbers decides the structure and the element
types, then one float64 array and one finiteness test take all the
numbers. ``frame_from_json`` walks its document pair by pair with
pair_to_complex, which names the first bad entry; so does a symbol
document that fails the whole-array checks.

Writing goes a vector at a time too: ``frame_text`` gives a frame
document in pieces, one per vector, each turned into nested lists and
encoded by ``json.dumps`` on its own, so a written frame is never held as
Python objects nor as one string.
"""

from __future__ import annotations

import hashlib
import json
from array import array
from collections.abc import Iterator
from itertools import chain

import numpy as np

from .errors import ParseError
from .frames import FiniteFrame
from .multipliers import Symbol


def pair_to_complex(pair, where: str = "value") -> complex:
    if (not isinstance(pair, (list, tuple)) or len(pair) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)):
        raise ParseError(f"{where}: expected a [re, im] number pair, got {pair!r}")
    value = complex(_to_float(pair[0], where), _to_float(pair[1], where))
    if not (np.isfinite(value.real) and np.isfinite(value.imag)):
        raise ParseError(f"{where}: entries must be finite")
    return value


def _to_float(x: int | float, where: str) -> float:
    try:
        return float(x)
    except OverflowError:  # an integer beyond the double range
        raise ParseError(f"{where}: number beyond the double range") from None


def _all_instances(items: list, kinds) -> bool:
    """isinstance(x, kinds) and x is not a bool, for every x; decided per distinct type."""
    return all(issubclass(t, kinds) and t is not bool for t in set(map(type, items)))


def _pair_array(pairs: list) -> np.ndarray | None:
    """The [re, im] pairs as one complex array, or None if pair_to_complex rejects any.

    Every check is a whole-list pass; the numbers are flattened before
    numpy sees them, so a ragged list never becomes an object array.
    """
    if not _all_instances(pairs, (list, tuple)) or set(map(len, pairs)) != {2}:
        return None
    numbers = list(chain.from_iterable(pairs))
    if not _all_instances(numbers, (int, float)):
        return None
    try:
        flat = np.array(numbers, dtype=np.float64)
    except OverflowError:  # an integer beyond the double range
        return None
    return flat.view(np.complex128) if np.isfinite(flat).all() else None


def _pairs(values: np.ndarray) -> list:
    """Nested [re, im] lists for a complex array, in one conversion."""
    return np.stack([values.real, values.imag], axis=-1).tolist()


def _require_dict(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected a JSON object, got {type(obj).__name__}")
    return obj


def _require_list(obj, where: str) -> list:
    if not isinstance(obj, list):
        raise ParseError(f"{where}: expected a JSON array, got {type(obj).__name__}")
    return obj


def _complex_vector(obj, where: str) -> list[complex]:
    items = _require_list(obj, where)
    if not items:
        raise ParseError(f"{where}: must not be empty")
    return [pair_to_complex(p, f"{where}[{i}]") for i, p in enumerate(items)]


# ------------------------------------------------------------------- frames


def frame_from_json(obj) -> FiniteFrame:
    doc = _require_dict(obj, "frame")
    if "dim" not in doc or "vectors" not in doc:
        raise ParseError("frame: needs 'dim' and 'vectors'")
    dim = doc["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ParseError(f"frame: 'dim' must be a positive integer, got {dim!r}")
    vector_docs = _require_list(doc["vectors"], "frame.vectors")
    if not vector_docs:
        raise ParseError("frame: needs at least one vector")
    rows = []
    for n, vec in enumerate(vector_docs):
        entries = _complex_vector(vec, f"frame.vectors[{n}]")
        if len(entries) != dim:
            raise ParseError(
                f"frame.vectors[{n}]: has {len(entries)} entries, expected dim = {dim}"
            )
        rows.append(entries)
    return FiniteFrame(np.array(rows, dtype=np.complex128))


def frame_text(frame: FiniteFrame) -> Iterator[str]:
    """The frame document of ``frame`` as pieces of text, one vector per piece.

    Joined, the pieces are ``json.dumps({"dim": d, "vectors": pairs},
    sort_keys=True)`` and a newline, byte for byte.
    """
    yield f'{{"dim": {frame.dim}, "vectors": ['
    separator = ""
    for vector in frame.synthesis.T:
        yield separator + json.dumps(_pairs(vector))
        separator = ", "
    yield "]}\n"


# ------------------------------------------------------------------- symbols


def symbol_from_json(obj) -> Symbol:
    doc = _require_dict(obj, "symbol")
    if "values" not in doc:
        raise ParseError("symbol: needs 'values'")
    items = _require_list(doc["values"], "symbol.values")
    values = _pair_array(items)
    return Symbol(values if values is not None else _complex_vector(items, "symbol.values"))


# --------------------------------------------------------------------- files


def load_json_file(path: str, where: str = "input") -> tuple[object, str]:
    """The JSON document in a UTF-8 file and the sha256 of the bytes it was parsed from."""
    text, digest = _read_text(path, where)
    return _decode(text, path, where), digest


def load_symbol_file(path: str, where: str = "symbol") -> tuple[Symbol, str]:
    """The symbol in a UTF-8 JSON file and the sha256 of its bytes."""
    doc, digest = load_json_file(path, where)
    return symbol_from_json(doc), digest


def load_frame_file(path: str, where: str = "frame") -> tuple[FiniteFrame, str]:
    """The frame in a UTF-8 JSON file and the sha256 of its bytes, decoded a vector at a time."""
    text, digest = _read_text(path, where)
    frame = _plain_frame(text)
    if frame is None:
        frame = frame_from_json(_decode(text, path, where))
    return frame, digest


def _read_text(path: str, where: str) -> tuple[str, str]:
    """The text of a UTF-8 file and the sha256 of its bytes.

    The file is opened and read once. The bytes are dropped once they are
    hashed and decoded, so only the text is held while it is parsed.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise ParseError(f"{where}: cannot read {path}: {exc}") from exc
    digest = hashlib.sha256(data).hexdigest()
    try:
        return data.decode("utf-8"), digest
    except ValueError as exc:  # bad UTF-8
        raise ParseError(f"{where}: {path} is not valid JSON: {exc}") from exc


def _decode(text: str, path: str, where: str):
    try:
        return json.loads(text)
    except ValueError as exc:  # bad JSON, or an integer past Python's digit limit
        raise ParseError(f"{where}: {path} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ParseError(f"{where}: {path} nests arrays or objects too deeply") from None


_DECODER = json.JSONDecoder()
_WHITESPACE = json.decoder.WHITESPACE


def _plain_frame(text: str) -> FiniteFrame | None:
    """The frame of a well-formed plain {"dim", "vectors"} document, or None for any other text.

    Keys, ``dim`` and each vector are decoded by the json module's own
    scanner, so every token reads as ``json.loads`` would read it. Text
    this route does not take (another key, a repeated key, a bad entry,
    bad JSON, nesting past the recursion limit) gives None, and the
    caller decodes it whole.
    """
    try:
        fields = _plain_object(text)
    except (ValueError, RecursionError):
        return None
    if fields is None:
        return None
    dim, syn = fields["dim"], fields["vectors"]
    if not isinstance(dim, int) or isinstance(dim, bool) or syn.shape[0] != dim:
        return None
    return FiniteFrame._adopt(syn)


def _plain_object(text: str) -> dict | None:
    """{"dim": value, "vectors": synthesis} of a plain frame document; None when it is not one.

    Raises ValueError or RecursionError where the json scanner does.
    """
    fields: dict = {}
    pos = _WHITESPACE.match(text, 0).end()
    if not text.startswith("{", pos):
        return None
    closing = ","
    while closing == ",":
        pos = _WHITESPACE.match(text, pos + 1).end()
        if not text.startswith('"', pos):
            return None
        key, pos = _DECODER.raw_decode(text, pos)
        if key in fields or key not in ("dim", "vectors"):
            return None
        pos = _WHITESPACE.match(text, pos).end()
        if not text.startswith(":", pos):
            return None
        pos = _WHITESPACE.match(text, pos + 1).end()
        if key == "dim":
            fields[key], pos = _DECODER.raw_decode(text, pos)
        else:
            fields[key], pos = _vector_rows(text, pos)
            if fields[key] is None:
                return None
        pos = _WHITESPACE.match(text, pos).end()
        closing = text[pos:pos + 1]
    if closing != "}" or _WHITESPACE.match(text, pos + 1).end() != len(text) or len(fields) != 2:
        return None
    return fields


def _vector_rows(text: str, pos: int) -> tuple[np.ndarray | None, int]:
    """The JSON array of vectors at ``pos`` as one d x N synthesis array, and the end.

    Each vector is decoded by the json scanner, checked to be a list of
    pairs as long as the first vector, and its numbers appended to one
    float buffer. The buffer raises TypeError for a string, array, object
    or null and OverflowError for an integer beyond the double range, so
    no number is type-checked on its own. It would take ``true`` and
    ``false`` as numbers; they are found instead as a ``t`` or an ``f`` in
    the vector's text, which no finite number has. One finiteness test and
    one transposed copy end the decoding. None in place of the array when
    an entry is not a finite number pair or the vectors differ in length.
    """
    if not text.startswith("[", pos):
        return None, pos
    numbers = array("d")
    width = 0
    separator = ","
    while separator == ",":
        start = _WHITESPACE.match(text, pos + 1).end()
        vector, pos = _DECODER.raw_decode(text, start)
        try:
            if (not isinstance(vector, list) or set(map(len, vector)) != {2}
                    or width not in (0, len(vector))
                    or text.find("t", start, pos) >= 0 or text.find("f", start, pos) >= 0):
                return None, pos
            numbers.extend(chain.from_iterable(vector))
        except (TypeError, OverflowError):  # an entry not a pair of numbers, or a huge integer
            return None, pos
        width = len(vector)
        pos = _WHITESPACE.match(text, pos).end()
        separator = text[pos:pos + 1]
    if separator != "]":
        return None, pos
    rows = np.frombuffer(numbers, dtype=np.complex128)
    if not np.isfinite(rows).all():
        return None, pos
    return rows.reshape(-1, width).T.copy(), pos + 1
