"""State-vector writers and the basis state, used by the tests alone.

The program reads state vectors (`wehrl.io.load_state_text`) but never
writes one, so the writers live here, on the library's own float spelling
(`wehrl.io._float_texts`), which the byte-identity tests in test_io.py
pin against `json.dumps` and `repr`.
"""

from __future__ import annotations

import numpy as np

from wehrl.io import _VECTOR_CSV_HEADER, _float_texts, _json_pairs, _re_im, _repr_texts


def state_vector_to_json(vec: np.ndarray) -> str:
    return _json_pairs(vec)


def state_vector_to_csv(vec: np.ndarray) -> str:
    texts = _float_texts(_re_im(vec), _repr_texts)
    rows = map("{},{},{}\n".format, range(len(texts) // 2), texts[0::2], texts[1::2])
    return ",".join(_VECTOR_CSV_HEADER) + "\n" + "".join(rows)


def basis_state(dim: int, index: int) -> np.ndarray:
    vec = np.zeros(dim, dtype=np.complex128)
    vec[index] = 1.0
    return vec
