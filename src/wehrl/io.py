"""File formats: state vectors (read), density matrices, Husimi tables, reports.

Floats are written in their shortest round-trip form, so save/load/save is
byte identical: the CSV writer gives the bytes of ``repr`` and the JSON
writers those of ``json.dumps`` (``NaN``, ``Infinity``), entry for entry.
Each distinct 64-bit pattern is formatted once, in one call for the whole
array; Husimi tables of stabiliser frames hold about |G| distinct values
among their |G|^2 rows. Tables are always written in lex order.
"""

from __future__ import annotations

import csv
import io as _io
import json
import operator
from functools import lru_cache
from itertools import chain
from pathlib import Path

import numpy as np

from .entropy import EntropyReport, HusimiTable
from .groups import _coords_grid, format_coords

__all__ = [
    "state_vector_from_json",
    "state_vector_from_csv",
    "density_matrix_to_json",
    "density_matrix_from_json",
    "load_state_text",
    "load_state_file",
    "husimi_to_csv",
    "entropy_report_to_json",
]

_VECTOR_CSV_HEADER = ["index", "re", "im"]


def _repr_texts(floats: list[float]) -> list[str]:
    return repr(floats)[1:-1].split(", ")


def _json_texts(floats: list[float]) -> list[str]:
    return json.dumps(floats)[1:-1].split(", ")


def _float_texts(values, spell) -> list[str]:
    """`spell`'s text of each entry of `values` (flattened), in order.

    `spell` formats a list of floats; it sees each distinct bit pattern once.
    Keyed on bits, not values: 0.0 and -0.0 compare equal but print apart.
    """
    flat = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    distinct, inverse = np.unique(flat.view(np.int64), return_inverse=True)
    texts = spell(distinct.view(np.float64).tolist())
    return list(map(texts.__getitem__, inverse.tolist()))


def _re_im(values) -> np.ndarray:
    """re, im, re, im, ... of `values` (flattened) as one float64 array."""
    return np.ascontiguousarray(values, dtype=np.complex128).reshape(-1).view(np.float64)


def _json_pairs(values) -> str:
    """`json.dumps` of the [re, im] pairs of `values` (flattened)."""
    texts = _float_texts(_re_im(values), _json_texts)
    if not texts:
        return "[]"
    return "[[" + "], [".join(map(", ".join, zip(texts[0::2], texts[1::2]))) + "]]"


def _from_pairs(entries) -> np.ndarray:
    """[[re, im], ...] -> complex array; ValueError for anything else.

    JSON true and false load as bool, which `complex` reads as 1 and 0;
    they are refused, as `dim` refuses them.
    """
    try:
        if bool in set(map(type, chain.from_iterable(entries))):
            raise TypeError("bool entry")
        return np.array([complex(re, im) for re, im in entries], dtype=np.complex128)
    except (TypeError, ValueError, OverflowError):
        raise ValueError("entries must be [re, im] pairs of numbers") from None


def _json_loads(text: str):
    """`json.loads`, with nesting too deep for the parser's recursion a ValueError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("state JSON is nested too deeply") from None


def state_vector_from_json(text: str) -> np.ndarray:
    data = _json_loads(text)
    if not isinstance(data, list):
        raise ValueError("state vector JSON must be a list of [re, im] pairs")
    return _from_pairs(data)


def state_vector_from_csv(text: str) -> np.ndarray:
    """Rows index,re,im after the header; each index 0..n-1 exactly once."""
    rows = list(csv.reader(_io.StringIO(text)))
    if not rows or rows[0] != _VECTOR_CSV_HEADER:
        raise ValueError("state vector CSV must start with 'index,re,im'")
    values = np.zeros(len(rows) - 1, dtype=np.complex128)
    seen = np.zeros(len(values), dtype=bool)
    for line, row in enumerate(rows[1:], start=2):
        if len(row) != 3:
            raise ValueError(f"row {line} has {len(row)} fields, expected 3 (index,re,im)")
        idx = int(row[0])
        if not 0 <= idx < len(values):
            raise ValueError(f"row index {idx} out of range")
        if seen[idx]:
            raise ValueError(f"row {line}: index {idx} repeated")
        seen[idx] = True
        values[idx] = complex(float(row[1]), float(row[2]))
    return values


def density_matrix_to_json(rho: np.ndarray) -> str:
    """{"dim": d, "entries": [[re, im], ...]} as `json.dumps(..., sort_keys=True)` writes it.

    ValueError unless rho is a square (d, d) array with d >= 1, the `dim`
    that `density_matrix_from_json` reads back.
    """
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1] or rho.shape[0] < 1:
        raise ValueError(f"density matrix must be square with dim >= 1, got shape {rho.shape}")
    return '{"dim": %d, "entries": %s}' % (rho.shape[0], _json_pairs(rho))


def density_matrix_from_json(text: str) -> np.ndarray:
    data = _json_loads(text)
    if not isinstance(data, dict) or "dim" not in data or "entries" not in data:
        raise ValueError("density matrix JSON must have 'dim' and 'entries'")
    flat = _from_pairs(data["entries"])
    d = data["dim"]
    # a JSON integer only: json gives bool for true/false, an int subclass
    if type(d) is not int or d < 1:
        raise ValueError("density matrix 'dim' must be an integer >= 1")
    if flat.size != d * d:
        # d is unbounded: the message names it and does not format d * d
        raise ValueError(f"density matrix entries ({flat.size}) are not 'dim' squared")
    return flat.reshape(d, d)


def load_state_text(text: str) -> tuple[str, np.ndarray]:
    """Detect and parse one of the state formats.

    Returns ("vector", 1-d array) or ("density", 2-d array).
    """
    stripped = text.lstrip()
    if stripped.startswith("["):
        return "vector", state_vector_from_json(text)
    if stripped.startswith("{"):
        return "density", density_matrix_from_json(text)
    return "vector", state_vector_from_csv(text)


def load_state_file(path: str | Path) -> tuple[str, np.ndarray]:
    return load_state_text(Path(path).read_text())


def husimi_to_csv(table: HusimiTable) -> str:
    """CSV rows g, lambda, Q in lex order (g major), as `csv.writer` writes them.

    Labels hold only digits and commas, so `csv`'s minimal quoting quotes
    exactly the multi-coordinate ones.
    """
    texts = _float_texts(table.values, _repr_texts)
    body = "\n".join(map(operator.add, _husimi_row_prefixes(table.frame.group.orders), texts))
    return "g,lambda,Q\n" + body + "\n"


@lru_cache(maxsize=8)
def _husimi_row_prefixes(orders: tuple[int, ...]) -> tuple[str, ...]:
    """'g,lambda,' of every phase-space point in lex order (g major)."""
    labels = [format_coords(c) for c in _coords_grid(orders).tolist()]
    if len(orders) > 1:
        labels = [f'"{label}"' for label in labels]
    return tuple(f"{g},{chi}," for g in labels for chi in labels)


def entropy_report_to_json(report: EntropyReport) -> str:
    payload = {
        "wehrl": report.wehrl,
        "von_neumann": report.von_neumann,
        "gap": report.gap,
        "log_base": report.log_base,
    }
    return json.dumps(payload, sort_keys=True)
