"""JSON wire formats for frames, symbols and block systems.

Complex scalars travel as two-element [re, im] arrays. A frame document is

    {"dim": d, "vectors": [[[re, im], ...], ...]}

with one inner list of d pairs per vector. A symbol document is

    {"values": [[re, im], ...]}

and a block-system document is {"kind": ..., "params": {...}} where kind
is one of the fixed generator kinds listed in BLOCK_KINDS. Anything
malformed raises ParseError; systems built from raw callables have no
JSON form.

The arrays of pairs in frame and symbol documents are checked and
converted as a whole: one pass each over the vectors, the pairs and the
numbers decides the structure and the element types, then one float64
array and one finiteness test take all the numbers. Only a document
that fails those checks is walked pair by pair with pair_to_complex,
which names the first bad entry. Writing goes the same way, one
(..., 2) array per document turned into nested lists.
"""

from __future__ import annotations

import json
from itertools import chain

import numpy as np

from .blockseq import BlockSystem, InterleavedSystem
from .errors import ParseError
from .frames import FiniteFrame
from .multipliers import Symbol

BLOCK_KINDS = ("constant-template", "harmonic-weight", "geometric-interleave")


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


def complex_to_pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


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


def symbol_to_json(symbol: Symbol) -> dict:
    return {"values": _pairs(symbol.values)}


# -------------------------------------------------------------- block systems


def _vectors_array(obj, where: str) -> list[list[complex]]:
    items = _require_list(obj, where)
    if not items:
        raise ParseError(f"{where}: must not be empty")
    out = [_complex_vector(v, f"{where}[{i}]") for i, v in enumerate(items)]
    lengths = {len(v) for v in out}
    if len(lengths) != 1:
        raise ParseError(f"{where}: vectors have mixed lengths {sorted(lengths)}")
    return out


def _float_list(obj, where: str) -> list[float]:
    items = _require_list(obj, where)
    out = []
    for i, x in enumerate(items):
        if not isinstance(x, (int, float)) or isinstance(x, bool):
            raise ParseError(f"{where}[{i}]: expected a number, got {x!r}")
        out.append(_to_float(x, f"{where}[{i}]"))
    return out



def _params(doc: dict, *keys: str) -> dict:
    params = _require_dict(doc.get("params"), "block-system.params")
    missing = [k for k in keys if k not in params]
    if missing:
        raise ParseError(f"block-system.params: missing {', '.join(missing)}")
    return params


def block_system_from_json(obj) -> BlockSystem | InterleavedSystem:
    doc = _require_dict(obj, "block-system")
    kind = doc.get("kind")
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise ParseError("block-system: 'name' must be a string")
    if kind == "constant-template":
        p = _params(doc, "phi", "psi", "m")
        return BlockSystem.constant_template(
            phi=_vectors_array(p["phi"], "params.phi"),
            psi=_vectors_array(p["psi"], "params.psi"),
            m=_complex_vector(p["m"], "params.m"),
            name=name,
        )
    if kind == "harmonic-weight":
        p = _params(doc, "phi", "phi_exponents", "psi", "psi_exponents", "m", "m_exponents")
        return BlockSystem.harmonic_weight(
            phi=_vectors_array(p["phi"], "params.phi"),
            phi_exponents=_float_list(p["phi_exponents"], "params.phi_exponents"),
            psi=_vectors_array(p["psi"], "params.psi"),
            psi_exponents=_float_list(p["psi_exponents"], "params.psi_exponents"),
            m=_complex_vector(p["m"], "params.m"),
            m_exponents=_float_list(p["m_exponents"], "params.m_exponents"),
            name=name,
        )
    if kind == "geometric-interleave":
        p = _params(doc, "head", "ratio", "transient", "ratio_bound")
        triples = {}
        for part in ("head", "ratio", "transient"):
            section = _require_dict(p[part], f"params.{part}")
            for role in ("phi", "psi", "m"):
                if role not in section:
                    raise ParseError(f"params.{part}: missing '{role}'")
                triples[(part, role)] = pair_to_complex(section[role], f"params.{part}.{role}")
        bound = p["ratio_bound"]
        if not isinstance(bound, (int, float)) or isinstance(bound, bool):
            raise ParseError("params.ratio_bound: expected a number")
        return InterleavedSystem(
            phi_head=triples[("head", "phi")],
            psi_head=triples[("head", "psi")],
            m_head=triples[("head", "m")],
            phi_ratio=triples[("ratio", "phi")],
            psi_ratio=triples[("ratio", "psi")],
            m_ratio=triples[("ratio", "m")],
            transient_phi=triples[("transient", "phi")],
            transient_psi=triples[("transient", "psi")],
            transient_m=triples[("transient", "m")],
            ratio_bound=_to_float(bound, "params.ratio_bound"),
            name=name,
        )
    raise ParseError(
        f"block-system: unknown kind {kind!r}; expected one of {', '.join(BLOCK_KINDS)}"
    )


def block_system_to_json(sys) -> dict:
    if isinstance(sys, InterleavedSystem):
        return {
            "kind": "geometric-interleave",
            "name": sys.name,
            "params": {
                "head": {"phi": complex_to_pair(sys.phi_head),
                         "psi": complex_to_pair(sys.psi_head),
                         "m": complex_to_pair(sys.m_head)},
                "ratio": {"phi": complex_to_pair(sys.phi_ratio),
                          "psi": complex_to_pair(sys.psi_ratio),
                          "m": complex_to_pair(sys.m_ratio)},
                "transient": {"phi": complex_to_pair(sys.transient_phi),
                              "psi": complex_to_pair(sys.transient_psi),
                              "m": complex_to_pair(sys.transient_m)},
                "ratio_bound": sys.ratio_bound,
            },
        }
    if isinstance(sys, BlockSystem):
        if sys._closed_form is None:
            raise ParseError("a generator-backed block system has no JSON form")
        phi_b, phi_e = sys._closed_form["phi"]
        psi_b, psi_e = sys._closed_form["psi"]
        m_b, m_e = sys._closed_form["m"]
        if sys.kind == "constant-template":
            return {
                "kind": "constant-template",
                "name": sys.name,
                "params": {
                    "phi": _pairs(phi_b),
                    "psi": _pairs(psi_b),
                    "m": _pairs(m_b),
                },
            }
        return {
            "kind": "harmonic-weight",
            "name": sys.name,
            "params": {
                "phi": _pairs(phi_b), "phi_exponents": phi_e.tolist(),
                "psi": _pairs(psi_b), "psi_exponents": psi_e.tolist(),
                "m": _pairs(m_b), "m_exponents": m_e.tolist(),
            },
        }
    raise ParseError(f"cannot serialize {type(sys).__name__} as a block system")


# --------------------------------------------------------------------- files


def load_json_file(path: str, where: str = "input"):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ParseError(f"{where}: cannot read {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON, bad UTF-8, or an integer past Python's digit limit
        raise ParseError(f"{where}: {path} is not valid JSON: {exc}") from exc
