"""Sparse parity-check code model.

A code is held as the Tanner-graph adjacency of its m x n parity-check
matrix.  Edge ids are assigned in row-major order: edge ``row_ptr[j] + t``
is the t-th entry of check j, so every (check, position) pair maps to a
unique flat id and back.  Kernels consume the flat CSR-style arrays
(``row_ptr``/``edge_var`` and ``col_ptr``/``col_edge``).  The vectorized
numpy paths also use the row levels, the check-step plans (``RowPlan``),
which list their edges slot-major, and the padded column table
``col_pad_pos``, which points at message positions in ``row_plan`` order
(padding slots hold ``edge_count``).  Their index arrays are ``np.intp``,
numpy's native index type, so the kernels' gathers and scatters use them
without a cast; the CSR arrays stay int32.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "AlistFormatError",
    "DegenerateCodeError",
    "ParityCheckCode",
    "RowPlan",
    "GeneratorForm",
    "from_dense",
    "parse_alist",
    "emit_alist",
    "syndrome",
    "systematic_form",
    "random_regular_code",
]


class AlistFormatError(ValueError):
    """Raised when an alist stream violates the format contract."""


class DegenerateCodeError(ValueError):
    """Raised for codes with an all-zero row or column, or infeasible parameters."""


class RowPlan(NamedTuple):
    """Index plan of one vectorised check step over a set of rows.

    ``edge`` lists the rows' edge ids slot-major: slot 0 of every row in
    the plan, then slot 1, and so on; ``var`` holds their variables.  The
    step reads its inputs as a (max_row_degree, rows, F) block of
    contiguous (rows, F) slabs, one per slot.  ``real`` marks the slots of
    that block that hold an edge, shape (max_row_degree, rows); it is None
    when every row has ``max_row_degree`` edges, and the block is then a
    reshape of the (edges, F) inputs.  ``deg1`` holds the positions of the
    degree-1 rows among ``rows``, or None when there are none.
    """

    edge: np.ndarray
    var: np.ndarray
    real: np.ndarray | None
    deg1: np.ndarray | None


class ParityCheckCode:
    """Immutable sparse parity-check matrix in adjacency form.

    Parameters
    ----------
    row_adj : sequence of sequences of int
        For each check node, the variable-node indices it touches.
        Entries are stored sorted ascending; duplicates are rejected.
    n : int
        Number of variable nodes (columns).  Explicit so that an
        uncovered trailing column is detected rather than silently
        shrinking the code.
    """

    def __init__(self, row_adj, n: int):
        if int(n) < 1:
            raise ValueError("n must be >= 1")
        if len(row_adj) < 1:
            raise ValueError("m must be >= 1")
        self.n = int(n)
        self.m = len(row_adj)

        rows = []
        for j, entries in enumerate(row_adj):
            vs = sorted(int(v) for v in entries)
            if not vs:
                raise DegenerateCodeError(f"check {j} has no variables (all-zero row)")
            if vs[0] < 0 or vs[-1] >= self.n:
                raise ValueError(f"check {j}: variable index out of range [0, {self.n})")
            if any(a == b for a, b in zip(vs, vs[1:])):
                raise ValueError(f"check {j}: duplicate variable index")
            rows.append(tuple(vs))
        self.row_adj = tuple(rows)

        degs = np.array([len(r) for r in rows], dtype=np.int32)
        self.row_ptr = np.zeros(self.m + 1, dtype=np.int32)
        np.cumsum(degs, out=self.row_ptr[1:])
        self.edge_count = int(self.row_ptr[-1])
        self.edge_var = np.concatenate([np.array(r, dtype=np.int32) for r in rows])

        # column adjacency: checks ascending because rows are scanned in order
        cols = [[] for _ in range(self.n)]
        col_edges = [[] for _ in range(self.n)]
        for j, r in enumerate(rows):
            base = int(self.row_ptr[j])
            for t, v in enumerate(r):
                cols[v].append(j)
                col_edges[v].append(base + t)
        empty = [i for i, c in enumerate(cols) if not c]
        if empty:
            raise DegenerateCodeError(f"variable {empty[0]} touches no check (all-zero column)")
        self.col_adj = tuple(tuple(c) for c in cols)
        self.col_ptr = np.zeros(self.n + 1, dtype=np.int32)
        np.cumsum(np.array([len(c) for c in cols], dtype=np.int32), out=self.col_ptr[1:])
        self.col_edge = np.concatenate([np.array(c, dtype=np.int32) for c in col_edges])

        self.row_degrees = degs
        self.col_degrees = np.diff(self.col_ptr).astype(np.int32)
        self.max_row_degree = int(degs.max())
        self.max_col_degree = int(self.col_degrees.max())

        # level schedule for layered decoding: a row's level is 1 + the largest
        # level of any earlier row sharing one of its variables, so rows within
        # a level share no variable, and running the levels in order gives
        # exactly the ascending-row result
        row_level = np.empty(self.m, dtype=np.int64)
        var_level = np.full(self.n, -1, dtype=np.int64)
        for j, r in enumerate(rows):
            vs = list(r)
            row_level[j] = lvl = var_level[vs].max() + 1
            var_level[vs] = lvl
        self.levels = tuple(np.nonzero(row_level == k)[0].astype(np.int32)
                            for k in range(int(row_level.max()) + 1))

        # check-step plans, slot-major: all rows for flooding, one per level
        # for layered
        slot = np.arange(self.max_row_degree, dtype=np.intp)[:, None]
        real = slot < degs

        def plan(rows):
            d, r = degs[rows], real[:, rows]
            edge = (self.row_ptr[:-1][rows] + slot)[r]
            return RowPlan(edge, self.edge_var[edge].astype(np.intp),
                           r if (d < self.max_row_degree).any() else None,
                           np.flatnonzero(d == 1) if (d == 1).any() else None)

        self.row_plan = plan(slice(None))
        self.level_plans = tuple(plan(r) for r in self.levels)

        # padded column table for the flooding variable phase: column i's
        # messages, as positions in row_plan order, in column-position order,
        # then edge_count, the position of a -0.0 sentinel row
        msg_pos = np.empty(self.edge_count, dtype=np.int32)
        msg_pos[self.row_plan.edge] = np.arange(self.edge_count, dtype=np.int32)
        col_of = np.repeat(np.arange(self.n), self.col_degrees)
        pos = np.arange(self.edge_count) - self.col_ptr[col_of]
        self.col_pad_pos = np.full((self.n, self.max_col_degree), self.edge_count,
                                   dtype=np.intp)
        self.col_pad_pos[col_of, pos] = msg_pos[self.col_edge]

        for a in (self.row_ptr, self.edge_var, self.col_ptr, self.col_edge,
                  self.row_degrees, self.col_degrees,
                  self.col_pad_pos, *self.levels,
                  *(a for p in (self.row_plan, *self.level_plans) for a in p
                    if a is not None)):
            a.setflags(write=False)

    def to_dense(self) -> np.ndarray:
        h = np.zeros((self.m, self.n), dtype=np.uint8)
        h[np.repeat(np.arange(self.m), self.row_degrees), self.edge_var] = 1
        return h

    def __eq__(self, other):
        if not isinstance(other, ParityCheckCode):
            return NotImplemented
        return self.n == other.n and self.row_adj == other.row_adj

    __hash__ = None

    def __repr__(self):
        return f"ParityCheckCode(n={self.n}, m={self.m}, edges={self.edge_count})"


def from_dense(matrix) -> ParityCheckCode:
    """Build a code from a dense 0/1 matrix, preserving row and column order.

    Raises
    ------
    ValueError
        If the matrix is not two-dimensional 0/1.
    DegenerateCodeError
        If any row or column is all-zero.
    """
    h = np.asarray(matrix)
    if h.ndim != 2 or h.shape[0] < 1 or h.shape[1] < 1:
        raise ValueError("parity-check matrix must be 2-D and non-empty")
    if not np.isin(h, (0, 1)).all():
        raise ValueError("parity-check matrix entries must be 0 or 1")
    h = h.astype(np.uint8)
    rows = [np.nonzero(r)[0].tolist() for r in h]
    return ParityCheckCode(rows, h.shape[1])


def _tokens(lines, idx, expect, what):
    if idx >= len(lines):
        raise AlistFormatError(f"line {idx + 1}: truncated stream, expected {what}")
    parts = lines[idx].split()
    try:
        vals = [int(p) for p in parts]
    except ValueError:
        raise AlistFormatError(f"line {idx + 1}: non-integer token in {what}") from None
    if expect is not None and len(vals) != expect:
        raise AlistFormatError(
            f"line {idx + 1}: expected {expect} entries for {what}, got {len(vals)}")
    return vals


def parse_alist(text: str) -> ParityCheckCode:
    """Parse alist text into a ParityCheckCode.

    Layout: ``n m`` header, max column/row degrees, per-column degrees,
    per-row degrees, then n column-adjacency lines and m row-adjacency
    lines of 1-based indices.  Zero entries are padding and are ignored.
    The result equals ``from_dense`` of the equivalent dense matrix.

    Raises
    ------
    AlistFormatError
        On truncation, header/degree mismatch, or out-of-range index;
        the message names the offending line.
    """
    lines = [ln for ln in text.splitlines()]
    # drop trailing blank lines but keep interior ones addressable
    while lines and not lines[-1].strip():
        lines.pop()

    hdr = _tokens(lines, 0, 2, "header 'n m'")
    n, m = hdr
    if n < 1 or m < 1:
        raise AlistFormatError("line 1: n and m must be >= 1")
    dmax = _tokens(lines, 1, 2, "max degrees")
    dcmax, drmax = dmax
    col_degs = _tokens(lines, 2, n, "column degrees")
    row_degs = _tokens(lines, 3, m, "row degrees")
    if max(col_degs, default=0) > dcmax or max(row_degs, default=0) > drmax:
        raise AlistFormatError("line 3: a declared degree exceeds the stated maximum")

    col_adj = []
    for i in range(n):
        vals = _tokens(lines, 4 + i, None, f"column {i} adjacency")
        entries = [v for v in vals if v != 0]
        if len(entries) != col_degs[i]:
            raise AlistFormatError(
                f"line {5 + i}: column {i} lists {len(entries)} checks, "
                f"degree line says {col_degs[i]}")
        for v in entries:
            if not 1 <= v <= m:
                raise AlistFormatError(
                    f"line {5 + i}: check index {v} out of range [1, {m}]")
        col_adj.append(sorted(v - 1 for v in entries))

    row_adj = []
    for j in range(m):
        vals = _tokens(lines, 4 + n + j, None, f"row {j} adjacency")
        entries = [v for v in vals if v != 0]
        if len(entries) != row_degs[j]:
            raise AlistFormatError(
                f"line {5 + n + j}: row {j} lists {len(entries)} variables, "
                f"degree line says {row_degs[j]}")
        for v in entries:
            if not 1 <= v <= n:
                raise AlistFormatError(
                    f"line {5 + n + j}: variable index {v} out of range [1, {n}]")
        row_adj.append(sorted(v - 1 for v in entries))

    tail = 4 + n + m
    if any(ln.strip() for ln in lines[tail:]):
        raise AlistFormatError(f"line {tail + 1}: unexpected content after row adjacency")

    code = ParityCheckCode(row_adj, n)
    if [list(c) for c in code.col_adj] != col_adj:
        raise AlistFormatError(
            "column adjacency is inconsistent with row adjacency")
    return code


def emit_alist(code: ParityCheckCode) -> str:
    """Serialize a code as alist text (entries 1-based, zero-padded)."""
    dc, dr = code.max_col_degree, code.max_row_degree
    out = [f"{code.n} {code.m}", f"{dc} {dr}"]
    out.append(" ".join(str(int(d)) for d in code.col_degrees))
    out.append(" ".join(str(int(d)) for d in code.row_degrees))
    for c in code.col_adj:
        padded = [j + 1 for j in c] + [0] * (dc - len(c))
        out.append(" ".join(str(v) for v in padded))
    for r in code.row_adj:
        padded = [i + 1 for i in r] + [0] * (dr - len(r))
        out.append(" ".join(str(v) for v in padded))
    return "\n".join(out) + "\n"


def syndrome(code: ParityCheckCode, bits) -> np.ndarray:
    """H times bits over GF(2): uint8 vector of length m, zero iff codeword."""
    b = np.asarray(bits)
    if b.shape != (code.n,):
        raise ValueError(f"bits must have shape ({code.n},)")
    if not np.isin(b, (0, 1)).all():
        raise ValueError("bits must be 0 or 1")
    b = b.astype(np.uint8)
    return np.bitwise_xor.reduceat(b[code.edge_var], code.row_ptr[:-1])


def _gf2_rref(dense: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(2) on bit-packed rows.

    Returns the unpacked RREF and the pivot column list (ascending).
    """
    m, n = dense.shape
    packed = np.packbits(dense.astype(np.uint8), axis=1)
    rank = 0
    pivots: list[int] = []
    for col in range(n):
        byte, shift = divmod(col, 8)
        mask = np.uint8(1 << (7 - shift))
        below = np.nonzero(packed[rank:, byte] & mask)[0]
        if below.size == 0:
            continue
        piv = rank + int(below[0])
        if piv != rank:
            packed[[rank, piv]] = packed[[piv, rank]]
        hit = (packed[:, byte] & mask).astype(bool)
        hit[rank] = False
        packed[hit] ^= packed[rank]
        pivots.append(col)
        rank += 1
        if rank == m:
            break
    rref = np.unpackbits(packed, axis=1, count=n)
    return rref, pivots


@dataclass(frozen=True)
class GeneratorForm:
    """Systematic encoder derived from a parity-check matrix.

    ``column_permutation`` maps systematic position to original column:
    the first k entries are message columns, the rest parity columns.
    ``parity_rows`` is the (n - k - deficiency) x k dense GF(2) map from
    message bits to parity bits.
    """

    column_permutation: np.ndarray
    parity_rows: np.ndarray
    k: int

    @property
    def message_columns(self) -> np.ndarray:
        return self.column_permutation[:self.k]

    @property
    def parity_columns(self) -> np.ndarray:
        return self.column_permutation[self.k:]

    def encode(self, message) -> np.ndarray:
        """Message bits (..., k) -> codeword bits (..., n), H @ c = 0 for
        each; a (F, k) block encodes F frames with one GF(2) product."""
        u = np.asarray(message)
        if u.ndim == 0 or u.shape[-1] != self.k:
            raise ValueError(f"message must have shape (..., {self.k})")
        if not np.isin(u, (0, 1)).all():
            raise ValueError("message bits must be 0 or 1")
        cw = np.zeros(u.shape[:-1] + self.column_permutation.shape, dtype=np.uint8)
        cw[..., self.message_columns] = u
        # a float32 product takes BLAS, and it is exact: every partial sum
        # is an integer of at most k < 2**24
        prod = u.astype(np.float32) @ self.parity_rows.T.astype(np.float32)
        cw[..., self.parity_columns] = prod.astype(np.int32) & 1
        return cw


def systematic_form(code: ParityCheckCode) -> GeneratorForm:
    """Gaussian-eliminate H over GF(2) into a systematic generator.

    Column pivoting handles rank deficiency: k = n - rank(H), and the
    non-pivot columns carry the message bits.  The code is immutable, so
    the form is computed at the first call and stored on it; later calls
    return the same frozen form.
    """
    form = getattr(code, "_systematic_form", None)
    if form is not None:
        return form
    rref, pivots = _gf2_rref(code.to_dense())
    r = len(pivots)
    k = code.n - r
    pivot_set = set(pivots)
    message_cols = np.array([c for c in range(code.n) if c not in pivot_set],
                            dtype=np.int64)
    perm = np.concatenate([message_cols, np.array(pivots, dtype=np.int64)])
    parity_rows = rref[np.ix_(range(r), message_cols)].astype(np.uint8)
    perm.setflags(write=False)
    parity_rows.setflags(write=False)
    code._systematic_form = GeneratorForm(column_permutation=perm,
                                          parity_rows=parity_rows, k=k)
    return code._systematic_form


def random_regular_code(n: int, m: int, row_degree: int, seed: int) -> ParityCheckCode:
    """Pseudo-random row-regular code with no duplicate edges.

    Every check has exactly ``row_degree`` variables; column degrees are
    as even as the edge count allows.  Deterministic in ``seed``.

    Raises
    ------
    DegenerateCodeError
        If the parameters force an all-zero column or duplicate edges
        (m * row_degree < n, or row_degree > n).
    """
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    if row_degree < 1:
        raise ValueError("row_degree must be >= 1")
    if row_degree > n:
        raise DegenerateCodeError("row_degree exceeds n: duplicate edges are unavoidable")
    edges = m * row_degree
    if edges < n:
        raise DegenerateCodeError("m * row_degree < n leaves some column with no checks")

    rng = np.random.default_rng(seed)
    base, extra = divmod(edges, n)
    col_deg = np.full(n, base, dtype=np.int64)
    if extra:
        col_deg[rng.permutation(n)[:extra]] += 1
    sockets = np.repeat(np.arange(n, dtype=np.int64), col_deg)
    rng.shuffle(sockets)
    rows = sockets.reshape(m, row_degree)

    # swap away duplicate variables within a row, deterministically
    budget = 200 * edges
    j = 0
    while j < m:
        seen = set()
        dup_at = -1
        for t in range(row_degree):
            v = int(rows[j, t])
            if v in seen:
                dup_at = t
                break
            seen.add(v)
        if dup_at < 0:
            j += 1
            continue
        if budget <= 0:
            raise DegenerateCodeError(
                "could not place all edges without duplicates; parameters too tight")
        budget -= 1
        r = int(rng.integers(m))
        u = int(rng.integers(row_degree))
        if r == j:
            continue
        a, b = int(rows[j, dup_at]), int(rows[r, u])
        others = [int(rows[j, t]) for t in range(row_degree) if t != dup_at]
        if b in others:
            continue
        row_r = rows[r].tolist()
        row_r[u] = -1
        if a in row_r:
            continue
        rows[j, dup_at], rows[r, u] = b, a
        if r < j:
            j = r

    return ParityCheckCode([sorted(int(v) for v in row) for row in rows], n)
