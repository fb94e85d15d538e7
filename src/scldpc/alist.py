"""Sparse binary parity-check matrices in alist text format.

Layout: line 1 is "N M" (columns, rows), line 2 the maximum column and row
degrees, then the per-column and per-row degree lists, then one adjacency
line per column and per row with 1-indexed positions.  Zero padding on
adjacency lines (emitted by some tools) is tolerated on read.
"""

from __future__ import annotations

from typing import TextIO

import numpy as np

from .qc import _decimal_rows

__all__ = ["read_alist", "export_code_alist"]


def read_alist(inp: TextIO) -> tuple[list[list[int]], int]:
    """Parse an alist file; returns (per-column row lists 0-indexed, n_rows).

    Both adjacency blocks are checked: every index in range, no line that
    repeats an index or misses its listed degree, and the row block holding
    exactly the edges of the column block.
    """
    tokens = inp.read().split()
    pos = 0

    def take(k: int) -> list[int]:
        nonlocal pos
        vals = [int(t) for t in tokens[pos : pos + k]]
        if len(vals) != k:
            raise ValueError("truncated alist file")
        pos += k
        return vals

    def line(kind: str, i: int, degree: int, bound: int) -> list[int]:
        nonlocal pos
        entries = take(degree)
        # some writers pad adjacency lines with zeros up to the max degree
        while pos < len(tokens) and tokens[pos] == "0":
            pos += 1
        if any(not 0 < e <= bound for e in entries):
            raise ValueError(f"{kind} {i} has an index out of range or misses its degree")
        if len(set(entries)) != degree:
            raise ValueError(f"{kind} {i} repeats an index")
        return sorted(e - 1 for e in entries)

    n_cols, n_rows = take(2)
    take(2)  # max degrees, informational
    col_degs = take(n_cols)
    row_degs = take(n_rows)
    col_adj = [line("column", c, col_degs[c], n_rows) for c in range(n_cols)]
    # both blocks as sorted row * n_cols + col keys, compact for large files
    by_rows = np.fromiter(
        (r * n_cols + c for r in range(n_rows) for c in line("row", r, row_degs[r], n_cols)),
        dtype=np.int64,
    )
    by_cols = np.fromiter(
        (r * n_cols + c for c, rows in enumerate(col_adj) for r in rows), dtype=np.int64
    )
    by_cols.sort()
    if not np.array_equal(by_cols, by_rows):
        r, c = divmod(int(np.setxor1d(by_cols, by_rows)[0]), n_cols)
        raise ValueError(f"row and column adjacency lists disagree at ({r}, {c})")
    return col_adj, n_rows


def export_code_alist(code, out: TextIO) -> None:
    """Write the lifted binary matrix of an SC code, read off its edge array.

    Both adjacency blocks are written by one numpy decimal-text kernel
    (``qc._decimal_rows``).  The column block is the edge array, gamma
    fields a line.  The row block is the row-major (CSR) edge order, one
    field per entry: the space after each row's last entry becomes a line
    break, and each degree-0 row is an empty line.
    """
    edges = code.edges
    order, ptr = edges.row_order
    row_degs = np.diff(ptr).tolist()
    out.write(f"{code.n_cols} {code.n_rows}\n")
    out.write(f"{edges.gamma} {max(row_degs, default=0)}\n")
    out.write(" ".join([str(edges.gamma)] * code.n_cols) + "\n")
    out.write(" ".join(map(str, row_degs)) + "\n")
    out.write(str(_decimal_rows(edges.rows + 1, [" "] * (edges.gamma - 1) + ["\n"]), "ascii"))
    text = _decimal_rows(order[:, None] // edges.gamma + 1, [" "])
    # the one space after each entry, in edge order
    gaps = np.flatnonzero(text == ord(" "))
    empty = ptr[1:] == ptr[:-1]
    text[gaps[ptr[1:][~empty] - 1]] = ord("\n")
    # an empty row's line goes where its entries would start
    starts = np.concatenate(([0], gaps + 1))[ptr[:-1][empty]]
    out.write(str(np.insert(text, starts, ord("\n")), "ascii"))
