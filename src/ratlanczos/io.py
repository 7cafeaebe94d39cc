"""File formats: Matrix Market and system descriptors."""

from pathlib import Path

import numpy as np
import scipy.io as sio
import scipy.sparse as sp

from .sparse import SparseSym


def read_matrix_market(path) -> SparseSym:
    """Read a symmetric sparse matrix from a .mtx file.

    Accepts both symmetric and general coordinate storage; a general
    file must contain numerically symmetric data.
    """
    M = sio.mmread(str(path))
    if not sp.issparse(M):
        M = sp.csr_matrix(M)
    return SparseSym._from_scipy(M.tocsr())


def write_matrix_market(A: SparseSym, path):
    """Write a SparseSym to coordinate .mtx in symmetric storage."""
    sio.mmwrite(str(path), A.to_scipy().tocoo(), symmetry="symmetric")


def read_dense_matrix(path):
    """Read a dense matrix (or vector) from a .mtx array/coordinate file."""
    M = sio.mmread(str(path))
    if sp.issparse(M):
        M = M.toarray()
    return np.asarray(M, dtype=float)


#: the keys ``control.system_from_descriptor`` reads
_DESCRIPTOR_KEYS = ("A", "B", "C", "E", "R", "x0")


def _parse_value(raw, base):
    raw = raw.strip()
    if raw.startswith("file:"):
        rel = raw[len("file:"):].strip()
        return read_dense_matrix(Path(base) / rel)
    rows = [r for r in raw.split(";") if r.strip()]
    vals = [[float(tok) for tok in r.split()] for r in rows]
    arr = np.array(vals, dtype=float)
    if arr.shape[0] == 1:
        arr = arr.ravel()
    return arr


def read_system_descriptor(path):
    """Parse a plain-text LTI system descriptor.

    Lines are ``key = value`` pairs; ``#`` starts a comment.  ``A`` (and
    optionally ``B``, ``C``) name Matrix Market files relative to the
    descriptor.  ``E`` (mass-matrix diagonal), ``R`` and ``x0`` may be
    inline whitespace-separated numbers (rows split by ``;``) or ``file:``
    references.  Any other key, or a key given twice, raises ``ValueError``
    naming the line.

    Returns a dict of parsed entries; matrix assembly is the caller's
    concern (see control.system_from_descriptor).
    """
    path = Path(path)
    base = path.parent
    entries = {}
    seen = {}
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, raw = line.split("=", 1)
        key = key.strip()
        raw = raw.strip()
        if key not in _DESCRIPTOR_KEYS:
            raise ValueError(
                f"{path}:{lineno}: unknown key {key!r}; expected one of "
                + ", ".join(_DESCRIPTOR_KEYS))
        if key in seen:
            raise ValueError(f"{path}:{lineno}: key {key!r} already given "
                             f"on line {seen[key]}")
        seen[key] = lineno
        if key in ("A", "B", "C"):
            entries[key] = str((base / raw).resolve()) if not raw.startswith("/") else raw
        else:
            entries[key] = _parse_value(raw, base)
    if "A" not in entries:
        raise ValueError(f"{path}: descriptor must name an A matrix")
    return entries
