"""Strategy file format: JSON documents with [re, im] complex entries.

A document carries four preparations (Bloch vector and/or explicit
matrix), two instruments as Kraus pairs, and two measurements as effect
pairs.  Preparations are listed by serialized input index ``2*x0 + x1``;
instruments and measurements by the receiver's input.  The writer emits a
canonical form (fixed key order, ``%.17g`` floats), so writing, parsing
and re-writing reproduces the bytes exactly.  Only single-Kraus
(extremal) instruments are representable in a file.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import DocumentError, DocumentInvariantError
from .linalg import HERM_TOL, QubitState, bloch_from_matrix, state_from_bloch, validate_povm
from .scenario import BinaryInstrument, Strategy

SCHEMA_VERSION = 1


def _fmt(x: float) -> str:
    return format(float(x) + 0.0, ".17g")  # +0.0 folds -0.0 into 0.0


def _require(condition: bool, path: str, message: str):
    if not condition:
        raise DocumentError(path, message)


def _parse_real(value, path: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise DocumentError(path, f"expected a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:
        raise DocumentError(path, "integer out of the float range") from None
    if not math.isfinite(out):
        raise DocumentError(path, f"non-finite number {value!r}")
    return out


def _parse_matrix(value, path: str) -> np.ndarray:
    _require(isinstance(value, list) and len(value) == 2, path,
             "expected two rows of [re, im] pairs")
    out = np.zeros((2, 2), dtype=complex)
    for i, row in enumerate(value):
        _require(isinstance(row, list) and len(row) == 2, f"{path}[{i}]",
                 "expected two [re, im] entries")
        for j, cell in enumerate(row):
            cell_path = f"{path}[{i}][{j}]"
            _require(isinstance(cell, list) and len(cell) == 2, cell_path,
                     "expected an [re, im] pair")
            re = _parse_real(cell[0], cell_path)
            im = _parse_real(cell[1], cell_path)
            out[i, j] = complex(re, im)
    return out


def _matrix_payload(m: np.ndarray) -> list:
    return [[[_fmt(m[i, j].real), _fmt(m[i, j].imag)] for j in range(2)] for i in range(2)]


def parse_strategy_document(doc: dict) -> Strategy:
    """Deserialize and validate one strategy document.

    Structural problems raise :class:`DocumentError`; structurally sound
    entries that violate a quantum invariant raise
    :class:`DocumentInvariantError`.  Both carry the offending component
    path.
    """
    _require(isinstance(doc, dict), "$", "document must be an object")
    version = doc.get("schema_version")
    # An int, as elsewhere: true and 1.0 equal 1 but are not a version.
    _require(type(version) is int and version == SCHEMA_VERSION, "schema_version",
             f"unsupported version {version!r}")

    preps_raw = doc.get("preparations")
    _require(isinstance(preps_raw, list) and len(preps_raw) == 4, "preparations",
             "expected four entries")
    states = []
    for i, entry in enumerate(preps_raw):
        path = f"preparations[{i}]"
        _require(isinstance(entry, dict), path, "expected an object")
        bloch = entry.get("bloch")
        matrix = entry.get("matrix")
        _require(bloch is not None or matrix is not None, path,
                 "needs 'bloch' or 'matrix'")
        parsed_matrix = None
        if matrix is not None:
            parsed_matrix = _parse_matrix(matrix, f"{path}.matrix")
        parsed_bloch = None
        if bloch is not None:
            _require(isinstance(bloch, list) and len(bloch) == 3, f"{path}.bloch",
                     "expected three components")
            parsed_bloch = np.array(
                [_parse_real(v, f"{path}.bloch[{k}]") for k, v in enumerate(bloch)]
            )
        try:
            if parsed_matrix is not None:
                state = QubitState.from_matrix(parsed_matrix)
                if parsed_bloch is not None:
                    gap = float(np.max(np.abs(state.bloch - parsed_bloch)))
                    if gap > HERM_TOL:
                        raise DocumentInvariantError(
                            path, f"bloch and matrix views disagree by {gap:.3e}"
                        )
            else:
                state = state_from_bloch(parsed_bloch)
        except DocumentInvariantError:
            raise
        except Exception as exc:
            raise DocumentInvariantError(path, str(exc)) from exc
        states.append(state)

    instruments = _parse_devices(doc, "instruments", "kraus", "Kraus", BinaryInstrument.from_kraus)
    measurements = _parse_devices(doc, "measurements", "effects", "effect", validate_povm)
    return Strategy(tuple(states), instruments, measurements)


def _parse_devices(doc: dict, key: str, field: str, noun: str, build) -> tuple:
    """The two devices listed under ``key``, each built by ``build`` from the
    two ``noun`` matrices under its ``field``."""
    entries = doc.get(key)
    _require(isinstance(entries, list) and len(entries) == 2, key, "expected two entries")
    devices = []
    for i, entry in enumerate(entries):
        path = f"{key}[{i}]"
        _require(isinstance(entry, dict), path, "expected an object")
        mats = entry.get(field)
        _require(isinstance(mats, list) and len(mats) == 2, f"{path}.{field}",
                 f"expected two {noun} matrices")
        parsed = [_parse_matrix(m, f"{path}.{field}[{b}]") for b, m in enumerate(mats)]
        try:
            devices.append(build(*parsed))
        except Exception as exc:
            raise DocumentInvariantError(path, str(exc)) from exc
    return tuple(devices)


def _document_payload(s: Strategy) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "preparations": [
            {
                # Bloch view recomputed from the matrix so parse + rewrite
                # reproduces the bytes exactly.
                "bloch": [_fmt(v) for v in bloch_from_matrix(st.matrix)],
                "matrix": _matrix_payload(st.matrix),
            }
            for st in s.preparations
        ],
        "instruments": [
            {"kraus": [_matrix_payload(k) for k in inst.kraus]}
            for inst in s.instruments
        ],
        "measurements": [
            {"effects": [_matrix_payload(e) for e in povm.effects]}
            for povm in s.measurements
        ],
    }


def _render(node, indent: int) -> str:
    pad = "  " * indent
    if isinstance(node, dict):
        rows = [f'{pad}  "{k}": {_render(v, indent + 1).lstrip()}' for k, v in node.items()]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(node, list):
        if all(isinstance(v, str) for v in node):
            return "[" + ", ".join(node) + "]"
        rows = [f"{pad}  {_render(v, indent + 1).lstrip()}" for v in node]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    return json.dumps(node)


def document_text(s: Strategy) -> str:
    """Canonical serialized form: fixed key order, 17-significant-digit floats."""
    return _render(_document_payload(s), 0) + "\n"


def write_strategy_file(s: Strategy, path) -> None:
    Path(path).write_text(document_text(s), encoding="utf-8")


def read_strategy_file(path) -> Strategy:
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DocumentError("$", f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(raw)
    except (ValueError, RecursionError) as exc:  # also int()'s digit limit, deep nesting
        raise DocumentError("$", f"not valid JSON: {exc}") from exc
    return parse_strategy_document(doc)
