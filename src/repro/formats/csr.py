"""CSR (compressed sparse row) matrix — the workhorse format.

The row-row formulation (paper §II-A) reads rows of both ``A`` and
``B``, so both operands of every kernel in :mod:`repro.kernels` are CSR.
Row-subset views (``take_rows``) implement the logical
:math:`A_H / A_L` split of Phase I without physically splitting the
matrix, mirroring the paper ("we don't split the matrices physically").
"""

from __future__ import annotations

import hashlib
from typing import Any, Iterable, Tuple

import numpy as np

from repro.formats.base import (
    INDEX_DTYPE,
    VALUE_DTYPE,
    SparseMatrix,
    validate_indices_in_range,
)
from repro.util.errors import FormatError, InvalidInputError


class CSRMatrix(SparseMatrix):
    """Compressed sparse row storage: ``indptr``, ``indices``, ``data``.

    Invariants (checked by :meth:`validate`):

    - ``indptr`` has length ``nrows + 1``, starts at 0, is non-decreasing,
      and ends at ``len(indices)``;
    - ``indices`` lie in ``[0, ncols)``;
    - ``data`` is finite and the same length as ``indices``;
    - with ``strict=True`` (the default), column indices within each row
      are sorted and duplicate-free.

    The constructor validates with ``strict=False``: intermediate
    matrices (kernel outputs mid-pipeline, test fixtures) may legally
    carry unsorted rows, and kernels that need sorted rows call
    :meth:`sort_indices` / :meth:`canonicalize`.  Public entry points
    run the strict check via :func:`repro.formats.validation.ensure_canonical`.
    """

    __slots__ = ("indptr", "indices", "data", "_derived")

    def __init__(self, shape: Tuple[int, int], indptr, indices, data, *, validate: bool = True):
        super().__init__(shape)
        self.indptr = np.ascontiguousarray(indptr, dtype=INDEX_DTYPE)
        self.indices = np.ascontiguousarray(indices, dtype=INDEX_DTYPE)
        self.data = np.ascontiguousarray(data, dtype=VALUE_DTYPE)
        #: per-instance memo for derived arrays (row sizes, expanded row
        #: ids, symbolic flop counts); see :meth:`_cached`
        self._derived: dict = {}
        if validate:
            self.validate(strict=False)

    def _cached(self, key: str, source, compute) -> Any:
        """Invalidation-safe memo for an array derived from ``source``
        (one structural array or a tuple of them).

        The cache entry remembers the *identity* of the structural
        array(s) it was computed from; rebinding ``self.indptr`` /
        ``self.indices`` (the only mutation the containers see in
        practice) makes the entry miss and recompute.  Cached arrays are
        returned read-only so an accidental in-place edit by a caller
        fails loudly instead of corrupting every later reader; immutable
        values (the structure digest) are stored as they are.
        """
        sources = source if isinstance(source, tuple) else (source,)
        hit = self._derived.get(key)
        if hit is not None and all(s is h for s, h in zip(sources, hit[0])) \
                and len(hit[0]) == len(sources):
            return hit[1]
        value = compute()
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        self._derived[key] = (sources, value)
        return value

    # -- construction ------------------------------------------------------
    @classmethod
    def empty(cls, shape: Tuple[int, int]) -> "CSRMatrix":
        """CSR matrix with no stored entries."""
        nrows, _ = shape
        return cls(
            shape,
            np.zeros(int(nrows) + 1, dtype=INDEX_DTYPE),
            np.empty(0, dtype=INDEX_DTYPE),
            np.empty(0, dtype=VALUE_DTYPE),
            validate=False,
        )

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "CSRMatrix":
        """Build from a dense 2-D array, dropping exact zeros."""
        from repro.formats.coo import COOMatrix

        return COOMatrix.from_dense(dense).tocsr()

    @classmethod
    def from_rows(cls, shape: Tuple[int, int], rows: Iterable[tuple[np.ndarray, np.ndarray]]) -> "CSRMatrix":
        """Build from an iterable of per-row ``(col_indices, values)`` pairs.

        Convenient for generators that produce one row at a time.
        """
        cols_parts: list[np.ndarray] = []
        vals_parts: list[np.ndarray] = []
        counts: list[int] = []
        for cols, vals in rows:
            cols = np.asarray(cols, dtype=INDEX_DTYPE)
            vals = np.asarray(vals, dtype=VALUE_DTYPE)
            if cols.size != vals.size:
                raise FormatError(
                    f"row has {cols.size} indices but {vals.size} values"
                )
            cols_parts.append(cols)
            vals_parts.append(vals)
            counts.append(cols.size)
        nrows = int(shape[0])
        if len(counts) != nrows:
            raise FormatError(f"expected {nrows} rows, got {len(counts)}")
        indptr = np.zeros(nrows + 1, dtype=INDEX_DTYPE)
        np.cumsum(np.asarray(counts, dtype=INDEX_DTYPE), out=indptr[1:])
        indices = (
            np.concatenate(cols_parts) if cols_parts else np.empty(0, dtype=INDEX_DTYPE)
        )
        data = np.concatenate(vals_parts) if vals_parts else np.empty(0, dtype=VALUE_DTYPE)
        return cls(shape, indptr, indices, data)

    @classmethod
    def from_scipy(cls, mat) -> "CSRMatrix":
        """Build from any scipy.sparse matrix (test/bench interop)."""
        m = mat.tocsr()
        return cls(m.shape, m.indptr, m.indices, m.data, validate=False)

    # -- invariants ----------------------------------------------------------
    def validate(self, *, strict: bool = True) -> None:
        """Check structural invariants; raise :class:`FormatError` on failure.

        With ``strict=True`` (the default) additionally require canonical
        rows — sorted, duplicate-free column indices — raising
        :class:`InvalidInputError` (a :class:`FormatError`) that names
        the first offending row in ``exc.context``.
        """
        if self.indptr.size != self.nrows + 1:
            raise FormatError(
                f"indptr length {self.indptr.size} != nrows + 1 = {self.nrows + 1}",
                field="indptr",
            )
        if self.indptr.size and self.indptr[0] != 0:
            raise FormatError(
                f"indptr must start at 0, got {self.indptr[0]}", field="indptr"
            )
        if np.any(np.diff(self.indptr) < 0):
            raise FormatError("indptr must be non-decreasing", field="indptr")
        if self.indptr.size and self.indptr[-1] != self.indices.size:
            raise FormatError(
                f"indptr[-1]={self.indptr[-1]} != len(indices)={self.indices.size}",
                field="indptr",
            )
        if self.indices.size != self.data.size:
            raise FormatError(
                f"indices ({self.indices.size}) and data ({self.data.size}) lengths differ",
                field="data",
            )
        validate_indices_in_range("column", self.indices, self.ncols)
        if not np.all(np.isfinite(self.data)):
            bad = int(np.flatnonzero(~np.isfinite(self.data))[0])
            raise InvalidInputError(
                f"data contains non-finite values (first at entry {bad})",
                field="data", entry=bad,
            )
        if strict:
            self._validate_canonical_rows()

    def _validate_canonical_rows(self) -> None:
        """Raise unless every row's column indices are strictly increasing,
        distinguishing out-of-order rows from duplicate columns."""
        if self.nnz <= 1:
            return
        diffs = np.diff(self.indices)
        within = self._within_row_mask()
        order_breaks = within & (diffs < 0)
        if np.any(order_breaks):
            pos = int(np.flatnonzero(order_breaks)[0])
            row = int(np.searchsorted(self.indptr, pos, side="right") - 1)
            raise InvalidInputError(
                f"column indices are not sorted within row {row} "
                f"(entry {pos}: {self.indices[pos]} > {self.indices[pos + 1]})",
                field="indices", row=row, entry=pos,
            )
        dup_breaks = within & (diffs == 0)
        if np.any(dup_breaks):
            pos = int(np.flatnonzero(dup_breaks)[0])
            row = int(np.searchsorted(self.indptr, pos, side="right") - 1)
            raise InvalidInputError(
                f"duplicate column index {self.indices[pos]} in row {row}",
                field="indices", row=row, column=int(self.indices[pos]),
            )

    def _within_row_mask(self) -> np.ndarray:
        """Boolean mask over ``diff(indices)`` marking pairs that belong
        to the same row (row-boundary pairs are excluded)."""
        mask = np.ones(self.indices.size - 1, dtype=bool)
        row_end = self.indptr[1:-1] - 1  # last entry index of each non-final row
        valid = row_end[(row_end >= 0) & (row_end < self.indices.size - 1)]
        mask[valid] = False
        return mask

    # -- SparseMatrix API ------------------------------------------------------
    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    def tocoo(self) -> "repro.formats.coo.COOMatrix":  # noqa: F821
        from repro.formats.coo import COOMatrix

        return COOMatrix(self.shape, self.expanded_rows().copy(),
                         self.indices.copy(), self.data.copy(),
                         validate=False)

    def copy(self) -> "CSRMatrix":
        return CSRMatrix(
            self.shape, self.indptr.copy(), self.indices.copy(), self.data.copy(),
            validate=False,
        )

    # -- row access -------------------------------------------------------------
    def row_nnz(self) -> np.ndarray:
        """Per-row stored-entry counts (the paper's "row sizes").

        Memoized (read-only view): every kernel launch and cost-model
        call asks for the operand's row sizes, so the O(nrows) diff is
        paid once per matrix instead of once per call.
        """
        return self._cached("row_nnz", self.indptr, lambda: np.diff(self.indptr))

    def expanded_rows(self) -> np.ndarray:
        """Owning row id of every stored entry (length ``nnz``), memoized.

        The COO-style row column that several kernels and conversions
        rebuild via ``np.repeat(arange(nrows), row_nnz)``.
        """
        return self._cached(
            "expanded_rows",
            self.indptr,
            lambda: np.repeat(
                np.arange(self.nrows, dtype=INDEX_DTYPE), self.row_nnz()
            ),
        )

    def squared_row_work(self) -> np.ndarray:
        """Symbolic per-row multiply-add counts of ``self @ self``, memoized.

        ``work[i] = sum_{k in A(i,:)} nnz(A(k,:))`` — the paper's
        "intermediate products" measure for the A x A products every
        experiment runs; Phase I thresholding and the cost models read
        it repeatedly for the same operand.
        """

        def compute() -> np.ndarray:
            sizes = self.row_nnz()
            if self.nnz == 0:
                return np.zeros(self.nrows, dtype=INDEX_DTYPE)
            gathered = sizes[self.indices]
            work = np.add.reduceat(
                np.concatenate([gathered, [0]]), self.indptr[:-1]
            )[: self.nrows]
            return np.where(sizes == 0, 0, work).astype(INDEX_DTYPE)

        return self._cached("squared_row_work", (self.indptr, self.indices), compute)

    def structure_digest(self) -> bytes:
        """sha256 over ``shape``, ``indptr`` and ``indices``, memoized.

        Two matrices with the same digest have the same sparsity
        structure, whatever their values: ``data`` is left out.  Phase I
        keys its threshold memo on it
        (:func:`repro.core.threshold.select_threshold`).  Like the other
        memos, rebinding ``indptr``/``indices`` recomputes it; editing
        them in place does not.
        """

        def compute() -> bytes:
            h = hashlib.sha256()
            header = (self.nrows, self.ncols, self.indptr.size, self.indices.size)
            h.update(np.asarray(header, dtype=np.int64).tobytes())
            for arr in (self.indptr, self.indices):
                h.update(np.ascontiguousarray(arr, dtype=INDEX_DTYPE))
            return h.digest()

        return self._cached("structure_digest", (self.indptr, self.indices), compute)

    def row_slice(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Views (no copy) of row ``i``'s column indices and values."""
        if not (0 <= i < self.nrows):
            raise IndexError(f"row {i} out of range [0, {self.nrows})")
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def take_rows(self, rows: np.ndarray) -> "CSRMatrix":
        """Gather the given rows into a new CSR matrix of shape
        ``(len(rows), ncols)``.

        This is the physical materialisation of a logical row subset
        (e.g. :math:`A_H`).  Row order in the output follows ``rows``.
        """
        rows = np.asarray(rows, dtype=INDEX_DTYPE)
        if rows.size and (rows.min() < 0 or rows.max() >= self.nrows):
            raise IndexError("row selection out of range")
        counts = self.row_nnz()[rows]
        indptr = np.zeros(rows.size + 1, dtype=INDEX_DTYPE)
        np.cumsum(counts, out=indptr[1:])
        # Gather segment contents with a repeated-offset trick: for each
        # selected row r, copy indices[indptr[r]:indptr[r+1]].
        total = int(indptr[-1])
        src = np.empty(total, dtype=INDEX_DTYPE)
        if total:
            # start offset of each selected row, repeated per entry, plus
            # the intra-segment ramp
            starts = np.repeat(self.indptr[rows], counts)
            ramp = np.arange(total, dtype=INDEX_DTYPE) - np.repeat(indptr[:-1], counts)
            src = starts + ramp
        return CSRMatrix(
            (rows.size, self.ncols),
            indptr,
            self.indices[src],
            self.data[src],
            validate=False,
        )

    # -- normalisation -------------------------------------------------------------
    @property
    def has_sorted_indices(self) -> bool:
        """True when every row's column indices are strictly increasing."""
        if self.nnz <= 1:
            return True
        diffs = np.diff(self.indices)
        return bool(np.all(diffs[self._within_row_mask()] > 0))

    def sort_indices(self) -> "CSRMatrix":
        """Return an equivalent CSR with sorted (and deduplicated) rows."""
        return self.tocoo().tocsr()

    def canonicalize(self) -> "CSRMatrix":
        """Return a canonical equivalent: sorted, duplicate-free rows.

        Duplicate ``(row, col)`` entries are merged by summation in a
        deterministic order (stable sort over linear keys, so duplicates
        accumulate in their original storage order).  Returns ``self``
        unchanged when the matrix is already canonical, so repeated
        gating at entry points is free after the first pass.
        """
        if self.has_sorted_indices:
            return self
        return self.sort_indices()

    def prune_zeros(self) -> "CSRMatrix":
        """Drop stored entries whose value is exactly zero."""
        keep = self.data != 0.0
        counts = np.zeros(self.nrows, dtype=INDEX_DTYPE)
        np.add.at(counts, self.expanded_rows()[keep], 1)
        indptr = np.zeros(self.nrows + 1, dtype=INDEX_DTYPE)
        np.cumsum(counts, out=indptr[1:])
        return CSRMatrix(self.shape, indptr, self.indices[keep], self.data[keep],
                         validate=False)

    # -- conversions ----------------------------------------------------------------
    def tocsc(self) -> "repro.formats.csc.CSCMatrix":  # noqa: F821
        from repro.formats.csc import CSCMatrix

        coo = self.tocoo()
        # column-major stable sort: sort by column, ties keep row order
        order = np.argsort(coo.col, kind="stable")
        col = coo.col[order]
        indptr = np.zeros(self.ncols + 1, dtype=INDEX_DTYPE)
        np.cumsum(np.bincount(col, minlength=self.ncols), out=indptr[1:])
        return CSCMatrix(self.shape, indptr, coo.row[order], coo.data[order],
                         validate=False)

    def to_scipy(self):
        """Convert to ``scipy.sparse.csr_matrix`` (test/bench interop)."""
        import scipy.sparse as sp

        return sp.csr_matrix((self.data, self.indices, self.indptr), shape=self.shape)

    def transpose(self) -> "CSRMatrix":
        """Transpose, returned in CSR form (via a column-major resort)."""
        coo = self.tocoo().transpose()
        return coo.tocsr()

    # -- arithmetic helpers used by kernels/tests -------------------------------------
    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``self @ x`` for a dense vector (used by the spmv extension)."""
        x = np.asarray(x, dtype=VALUE_DTYPE)
        if x.shape != (self.ncols,):
            raise FormatError(f"vector shape {x.shape} incompatible with {self.shape}")
        prod = self.data * x[self.indices]
        out = np.zeros(self.nrows, dtype=VALUE_DTYPE)
        # segment-sum per row
        np.add.at(out, self.expanded_rows(), prod)
        return out

    def scaled(self, factor: float) -> "CSRMatrix":
        """Copy with every stored value multiplied by ``factor``."""
        return CSRMatrix(self.shape, self.indptr.copy(), self.indices.copy(),
                         self.data * factor, validate=False)
