"""COO (coordinate / triplet) sparse matrix.

COO is the interchange format of the library: Phase II and III of
Algorithm HH-CPU emit ``<r, c, v>`` tuples on both devices, and Phase IV
merges those tuple streams (see :mod:`repro.kernels.merge`).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.formats.base import (
    INDEX_DTYPE,
    VALUE_DTYPE,
    SparseMatrix,
    check_shape,
    validate_indices_in_range,
)
from repro.util.errors import FormatError, InvalidInputError


class COOMatrix(SparseMatrix):
    """Triplet-form sparse matrix ``(row[i], col[i]) -> data[i]``.

    Duplicates are allowed (they add), matching the tuple semantics of
    the paper's Phase IV.  :meth:`canonicalize` produces the
    duplicate-free row-major sorted form.
    """

    __slots__ = ("row", "col", "data")

    def __init__(self, shape: Tuple[int, int], row, col, data, *, validate: bool = True):
        super().__init__(shape)
        self.row = np.ascontiguousarray(row, dtype=INDEX_DTYPE)
        self.col = np.ascontiguousarray(col, dtype=INDEX_DTYPE)
        self.data = np.ascontiguousarray(data, dtype=VALUE_DTYPE)
        if validate:
            self.validate()

    # -- construction -----------------------------------------------------
    @classmethod
    def empty(cls, shape: Tuple[int, int]) -> "COOMatrix":
        """A COO matrix with no stored entries."""
        z = np.empty(0, dtype=INDEX_DTYPE)
        return cls(shape, z, z.copy(), np.empty(0, dtype=VALUE_DTYPE), validate=False)

    @classmethod
    def from_dense(cls, dense: np.ndarray, *, keep_zeros: bool = False) -> "COOMatrix":
        """Build from a dense array, dropping exact zeros unless asked not to."""
        dense = np.asarray(dense, dtype=VALUE_DTYPE)
        if dense.ndim != 2:
            raise FormatError(f"dense input must be 2-D, got shape {dense.shape}")
        if keep_zeros:
            r, c = np.indices(dense.shape)
            r, c = r.ravel(), c.ravel()
        else:
            r, c = np.nonzero(dense)
        return cls(dense.shape, r, c, dense[r, c], validate=False)

    @classmethod
    def from_scipy(cls, mat) -> "COOMatrix":
        """Build from any scipy.sparse matrix (test/bench interop)."""
        m = mat.tocoo()
        return cls(m.shape, m.row, m.col, m.data, validate=False)

    # -- invariants -------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants; raise :class:`FormatError` on failure."""
        if not (self.row.size == self.col.size == self.data.size):
            raise FormatError(
                f"triplet arrays disagree in length: row={self.row.size}, "
                f"col={self.col.size}, data={self.data.size}",
                field="data",
            )
        validate_indices_in_range("row", self.row, self.nrows)
        validate_indices_in_range("col", self.col, self.ncols)
        if not np.all(np.isfinite(self.data)):
            bad = int(np.flatnonzero(~np.isfinite(self.data))[0])
            raise InvalidInputError(
                f"data contains non-finite values (first at entry {bad})",
                field="data", entry=bad,
            )

    # -- SparseMatrix API ---------------------------------------------------
    @property
    def nnz(self) -> int:
        return int(self.data.size)

    def tocoo(self) -> "COOMatrix":
        return self

    def copy(self) -> "COOMatrix":
        return COOMatrix(
            self.shape, self.row.copy(), self.col.copy(), self.data.copy(), validate=False
        )

    # -- canonical form ------------------------------------------------------
    def linear_keys(self) -> np.ndarray:
        """Row-major linear index ``r * ncols + c`` for each stored entry."""
        return self.row * INDEX_DTYPE(max(self.ncols, 1)) + self.col

    def is_canonical(self) -> bool:
        """True when entries are row-major sorted with no duplicate keys."""
        keys = self.linear_keys()
        return bool(keys.size <= 1 or np.all(np.diff(keys) > 0))

    def canonicalize(self, *, drop_zeros: bool = True) -> "COOMatrix":
        """Return the sorted, duplicate-accumulated (and optionally
        zero-pruned) equivalent matrix.

        Runs the Phase IV sort-reduce (:func:`repro.kernels.merge.sort_reduce`)
        over this single stream, so duplicates accumulate in storage
        order exactly as like-tuples do in the merge.
        """
        # function-level import: the kernels package imports this module
        from repro.kernels.merge import sort_reduce

        csr = sort_reduce(self.shape, [self], drop_zeros=drop_zeros).matrix
        return COOMatrix(self.shape, csr.expanded_rows(), csr.indices, csr.data,
                         validate=False)

    # -- conversions ---------------------------------------------------------
    def tocsr(self) -> "repro.formats.csr.CSRMatrix":  # noqa: F821
        """Convert to CSR, accumulating duplicates (see :meth:`canonicalize`)."""
        from repro.kernels.merge import sort_reduce

        return sort_reduce(self.shape, [self]).matrix

    def tocsc(self) -> "repro.formats.csc.CSCMatrix":  # noqa: F821
        """Convert to CSC, accumulating duplicates."""
        return self.tocsr().tocsc()

    def to_scipy(self):
        """Convert to ``scipy.sparse.coo_matrix`` (test/bench interop)."""
        import scipy.sparse as sp

        return sp.coo_matrix((self.data, (self.row, self.col)), shape=self.shape)

    def transpose(self) -> "COOMatrix":
        """Transpose (swap row/col arrays; O(1) array reuse, O(nnz) copy)."""
        return COOMatrix(
            (self.ncols, self.nrows), self.col.copy(), self.row.copy(), self.data.copy(),
            validate=False,
        )

    def scaled(self, factor: float) -> "COOMatrix":
        """Return a copy with every stored value multiplied by ``factor``."""
        return COOMatrix(self.shape, self.row.copy(), self.col.copy(), self.data * factor,
                         validate=False)


def concatenate_triplets(shape: Tuple[int, int], parts: list[COOMatrix]) -> COOMatrix:
    """Concatenate tuple streams from several producers into one COO matrix.

    Duplicates are kept, so ``concatenate_triplets(shape, parts)`` is
    the un-merged input of the Phase IV merge (which itself writes the
    parts straight into its sort buffers).  All parts must share ``shape``.

    Validation is vectorised: part shapes are compared as one integer
    array instead of a Python loop, so gathering the O(units) Phase III
    partials costs numpy time, not interpreter time.
    """
    shape = check_shape(shape)
    if not parts:
        return COOMatrix.empty(shape)
    shapes = np.fromiter(
        (d for p in parts for d in p.shape), dtype=np.int64, count=2 * len(parts)
    ).reshape(-1, 2)
    ok = (shapes[:, 0] == shape[0]) & (shapes[:, 1] == shape[1])
    if not ok.all():
        bad = parts[int(np.flatnonzero(~ok)[0])]
        raise FormatError(f"part shape {bad.shape} differs from target {shape}")
    if len(parts) == 1:
        return parts[0].copy()
    row = np.concatenate([p.row for p in parts])
    col = np.concatenate([p.col for p in parts])
    data = np.concatenate([p.data for p in parts])
    return COOMatrix(shape, row, col, data, validate=False)
