"""JSON wire formats for frames and symbols.

Complex scalars travel as two-element [re, im] arrays. A frame document is

    {"dim": d, "vectors": [[[re, im], ...], ...]}

with one inner list of d pairs per vector. A symbol document is

    {"values": [[re, im], ...]}

The readers take exactly what ``docs/schema/`` describes: an object with
exactly those keys, in either order, each once; ``dim`` a JSON integer
(``2``, not ``2.0``) and at least one vector, each of exactly ``dim``
pairs; at least one symbol value; numbers that are finite and within the
double range. Anything else raises ParseError.

One scanner decides every document. It walks the top-level object key by
key, and each array of pairs (a frame vector, or a symbol's values) is
decoded by the json module's own scanner, its numbers appended to one
float buffer and its Python lists released before the next, so a file's
numbers are never all held as Python objects. The buffer refuses a
string, array, object or null, and an integer beyond the double range;
``true`` and ``false`` are found instead as a ``t`` or an ``f`` in the
array's text, which no finite number has. One finiteness test takes the
whole buffer, and for a frame one transposed copy makes it the synthesis.

A document the scanner refuses is decoded once more by ``json.loads``,
which refuses a repeated key, only to word the ParseError: a walk of it
names the first bad location, and builds no frame and no symbol.

Writing goes a vector at a time: ``frame_text`` gives a frame document in
pieces, one per vector, each turned into nested lists and encoded by
``json.dumps`` on its own, so a written frame is never held as Python
objects nor as one string.
"""

from __future__ import annotations

import hashlib
import json
from array import array
from collections.abc import Iterator
from itertools import chain
from typing import NoReturn

import numpy as np

from .errors import ParseError
from .frames import FiniteFrame
from .multipliers import Symbol


def pair_to_complex(pair, where: str = "value") -> complex:
    if (not isinstance(pair, (list, tuple)) or len(pair) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)):
        raise ParseError(f"{where}: expected a [re, im] number pair, got {pair!r}")
    try:
        value = complex(float(pair[0]), float(pair[1]))
    except OverflowError:  # an integer beyond the double range
        raise ParseError(f"{where}: number beyond the double range") from None
    if not (np.isfinite(value.real) and np.isfinite(value.imag)):
        raise ParseError(f"{where}: entries must be finite")
    return value


def _pairs(values: np.ndarray) -> list:
    """Nested [re, im] lists for a complex array, in one conversion."""
    return np.stack([values.real, values.imag], axis=-1).tolist()


# ------------------------------------------------------------------- frames


def frame_from_json(text: str, path: str = "<text>", where: str = "frame") -> FiniteFrame:
    """The frame of a frame document's JSON text; ParseError naming ``where`` and ``path`` if none."""
    fields = _scan(text, {"dim": _DECODER.raw_decode, "vectors": _vector_rows})
    if fields is None or type(fields["dim"]) is not int or fields["vectors"].shape[0] != fields["dim"]:
        _refuse(text, path, where, _walk_frame)
    return FiniteFrame._adopt(fields["vectors"])


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


def symbol_from_json(text: str, path: str = "<text>", where: str = "symbol") -> Symbol:
    """The symbol of a symbol document's JSON text; ParseError naming ``where`` and ``path`` if none."""
    fields = _scan(text, {"values": _value_row})
    if fields is None:
        _refuse(text, path, where, _walk_symbol)
    return Symbol._from_checked(fields["values"])


# --------------------------------------------------------------------- files


def load_symbol_file(path: str, where: str = "symbol") -> tuple[Symbol, str]:
    """The symbol in a UTF-8 JSON file and the sha256 of its bytes."""
    text, digest = _read_text(path, where)
    return symbol_from_json(text, path, where), digest


def load_frame_file(path: str, where: str = "frame") -> tuple[FiniteFrame, str]:
    """The frame in a UTF-8 JSON file and the sha256 of its bytes, decoded a vector at a time."""
    text, digest = _read_text(path, where)
    return frame_from_json(text, path, where), digest


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


# ------------------------------------------------------------------ scanning

_DECODER = json.JSONDecoder()
_WHITESPACE = json.decoder.WHITESPACE


def _scan(text: str, readers: dict) -> dict | None:
    """{key: value} of a JSON object with exactly the keys of ``readers``; None for any other text.

    Each key is decoded by the json scanner, so an escaped key reads as
    ``json.loads`` reads it, and its value by its reader, which gives None
    for a value it refuses (no key takes null). A key read twice, a key
    not in ``readers``, bad JSON and nesting past the recursion limit give
    None as well.
    """
    fields: dict = {}
    try:
        pos = _WHITESPACE.match(text, 0).end()
        if not text.startswith("{", pos):
            return None
        closing = ","
        while closing == ",":
            pos = _WHITESPACE.match(text, pos + 1).end()
            if not text.startswith('"', pos):
                return None
            key, pos = _DECODER.raw_decode(text, pos)
            if key in fields or key not in readers:
                return None
            pos = _WHITESPACE.match(text, pos).end()
            if not text.startswith(":", pos):
                return None
            fields[key], pos = readers[key](text, _WHITESPACE.match(text, pos + 1).end())
            if fields[key] is None:
                return None
            pos = _WHITESPACE.match(text, pos).end()
            closing = text[pos:pos + 1]
    except (ValueError, RecursionError):
        return None
    if closing != "}" or _WHITESPACE.match(text, pos + 1).end() != len(text) or len(fields) != len(readers):
        return None
    return fields


def _pair_numbers(numbers: array, text: str, start: int) -> tuple[int, int]:
    """Append the numbers of the JSON array of [re, im] pairs at ``start`` to ``numbers``.

    Gives the number of pairs, 0 when the array is empty or holds anything
    but number pairs, and the array's end.
    """
    pairs, end = _DECODER.raw_decode(text, start)
    try:
        if (not isinstance(pairs, list) or set(map(len, pairs)) != {2}
                or text.find("t", start, end) >= 0 or text.find("f", start, end) >= 0):
            return 0, end
        numbers.extend(chain.from_iterable(pairs))
    except (TypeError, OverflowError):  # an entry not a pair of numbers, or a huge integer
        return 0, end
    return len(pairs), end


def _finite(numbers: array) -> np.ndarray | None:
    """The buffer's numbers as complex values, or None if any is not finite."""
    values = np.frombuffer(numbers, dtype=np.complex128)
    return values if np.isfinite(values).all() else None


def _value_row(text: str, pos: int) -> tuple[np.ndarray | None, int]:
    """The JSON array of pairs at ``pos`` as one complex array (None if refused), and its end."""
    numbers = array("d")
    count, pos = _pair_numbers(numbers, text, pos)
    return (_finite(numbers) if count else None), pos


def _vector_rows(text: str, pos: int) -> tuple[np.ndarray | None, int]:
    """The JSON array of vectors at ``pos`` as one d x N synthesis array, and its end.

    Every vector's numbers go to one float buffer, and each vector must
    have as many pairs as the first. None in place of the array when a
    vector is refused or the vectors differ in length.
    """
    if not text.startswith("[", pos):
        return None, pos
    numbers = array("d")
    width = 0
    separator = ","
    while separator == ",":
        count, pos = _pair_numbers(numbers, text, _WHITESPACE.match(text, pos + 1).end())
        if not count or width not in (0, count):
            return None, pos
        width = count
        pos = _WHITESPACE.match(text, pos).end()
        separator = text[pos:pos + 1]
    rows = _finite(numbers) if separator == "]" else None
    return (None if rows is None else rows.reshape(-1, width).T.copy()), pos + 1


# ----------------------------------------------------------------- refusals


def _refuse(text: str, path: str, where: str, walk) -> NoReturn:
    """Raise the ParseError of a document the scanner refused, naming its first fault.

    The text is decoded whole, refusing a repeated key, and ``walk``
    raises at the first bad location of what it decodes to.
    """
    def unique_keys(items: list) -> dict:
        obj: dict = {}
        for key, value in items:
            if key in obj:
                raise ParseError(f"{where}: {path} repeats the key {key!r} in one object")
            obj[key] = value
        return obj

    try:
        doc = json.loads(text, object_pairs_hook=unique_keys)
    except ValueError as exc:  # bad JSON, or an integer past Python's digit limit
        raise ParseError(f"{where}: {path} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ParseError(f"{where}: {path} nests arrays or objects too deeply") from None
    walk(doc)
    raise AssertionError(f"{where}: the scanner refused {path}, and the walk finds no fault")


def _walk_keys(doc, where: str, keys: tuple[str, ...]) -> None:
    if not isinstance(doc, dict):
        raise ParseError(f"{where}: expected a JSON object, got {type(doc).__name__}")
    names = " and ".join(map(repr, keys))
    for key in doc:
        if key not in keys:
            raise ParseError(f"{where}: unexpected key {key!r}; a {where} has only {names}")
    if len(doc) != len(keys):
        raise ParseError(f"{where}: needs {names}")


def _walk_pairs(items, where: str) -> int:
    """The number of [re, im] pairs in ``items``; ParseError at the first that is not one."""
    if not isinstance(items, list):
        raise ParseError(f"{where}: expected a JSON array, got {type(items).__name__}")
    if not items:
        raise ParseError(f"{where}: must not be empty")
    for i, pair in enumerate(items):
        pair_to_complex(pair, f"{where}[{i}]")
    return len(items)


def _walk_frame(doc) -> None:
    _walk_keys(doc, "frame", ("dim", "vectors"))
    dim = doc["dim"]
    if type(dim) is not int or dim < 1:
        raise ParseError(f"frame: 'dim' must be a positive integer, got {dim!r}")
    vectors = doc["vectors"]
    if not isinstance(vectors, list):
        raise ParseError(f"frame.vectors: expected a JSON array, got {type(vectors).__name__}")
    if not vectors:
        raise ParseError("frame: needs at least one vector")
    for n, vector in enumerate(vectors):
        count = _walk_pairs(vector, f"frame.vectors[{n}]")
        if count != dim:
            raise ParseError(f"frame.vectors[{n}]: has {count} entries, expected dim = {dim}")


def _walk_symbol(doc) -> None:
    _walk_keys(doc, "symbol", ("values",))
    _walk_pairs(doc["values"], "symbol.values")
