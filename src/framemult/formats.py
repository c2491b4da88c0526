"""JSON wire formats for frames and symbols.

Complex scalars travel as two-element [re, im] arrays. A frame document is

    {"dim": d, "vectors": [[[re, im], ...], ...]}

with one inner list of d pairs per vector. A symbol document is

    {"values": [[re, im], ...]}

Anything malformed raises ParseError.

The arrays of pairs in frame and symbol documents are checked and
converted as a whole: one pass each over the vectors, the pairs and the
numbers decides the structure and the element types, then one float64
array and one finiteness test take all the numbers. Only a document
that fails those checks is walked pair by pair with pair_to_complex,
which names the first bad entry. Writing goes the same way, one
(..., 2) array per document turned into nested lists.
"""

from __future__ import annotations

import hashlib
import json
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
    if _all_instances(vector_docs, list) and set(map(len, vector_docs)) == {dim}:
        values = _pair_array(list(chain.from_iterable(vector_docs)))
        if values is not None:
            return FiniteFrame(values.reshape(len(vector_docs), dim))
    # malformed: the pair-by-pair walk raises the ParseError naming the first bad entry
    rows = []
    for n, vec in enumerate(vector_docs):
        entries = _complex_vector(vec, f"frame.vectors[{n}]")
        if len(entries) != dim:
            raise ParseError(
                f"frame.vectors[{n}]: has {len(entries)} entries, expected dim = {dim}"
            )
        rows.append(entries)
    return FiniteFrame(np.array(rows, dtype=np.complex128))


def frame_to_json(frame: FiniteFrame) -> dict:
    return {"dim": frame.dim, "vectors": _pairs(frame.synthesis.T)}


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
    """The JSON document in a UTF-8 file and the sha256 of the bytes it was parsed from.

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
        text = data.decode("utf-8")
        del data
        return json.loads(text), digest
    except ValueError as exc:  # bad JSON, bad UTF-8, or an integer past Python's digit limit
        raise ParseError(f"{where}: {path} is not valid JSON: {exc}") from exc
