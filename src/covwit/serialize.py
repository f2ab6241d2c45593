"""JSON file formats for matrices and linear maps.

Matrix JSON: {"rows": n, "cols": m, "data": [[re, im], ...]} row-major.
Map JSON: {"d_in": n, "d_out": m, "choi_unnormalized": <matrix JSON>}
          or {"family": "hh"|"werner3-L"|"quo-M", "d": d, "coeffs": {...}}.
"""

import json

import numpy as np

from .linalg import ContractError, DimensionError, integer, is_number


def matrix_to_obj(m):
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise DimensionError("matrix JSON requires a 2-d array")
    data = [[float(z.real), float(z.imag)] for z in m.reshape(-1)]
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "data": data}


def matrix_from_obj(obj):
    try:
        rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    except (KeyError, TypeError) as exc:
        raise ContractError(f"malformed matrix JSON: {exc}") from exc
    rows = integer(rows, "matrix JSON rows", 1)
    cols = integer(cols, "matrix JSON cols", 1)
    if not (isinstance(data, list) and all(
            isinstance(z, list) and len(z) == 2 and all(map(is_number, z))
            for z in data)):
        raise ContractError("matrix JSON data must be a list of [re, im] "
                            "number pairs")
    if len(data) != rows * cols:
        raise ContractError("matrix JSON data length != rows*cols")
    flat = np.array([complex(re, im) for re, im in data])
    if not np.isfinite(flat).all():
        raise ContractError("matrix JSON contains non-finite entries")
    return flat.reshape(rows, cols)


def dump_json(obj, path):
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_json(path):
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # malformed JSON or not UTF-8 text
            raise ContractError(f"malformed JSON in {path}: {exc}") from exc


def write_matrix(m, path):
    dump_json(matrix_to_obj(m), path)


def read_matrix(path):
    return matrix_from_obj(load_json(path))
