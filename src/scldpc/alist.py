"""Sparse binary parity-check matrices in alist text format.

Layout: line 1 is "N M" (columns, rows), line 2 the maximum column and row
degrees, then the per-column and per-row degree lists, then one adjacency
line per column and per row with 1-indexed positions.  Zero padding on
adjacency lines (emitted by some tools) is tolerated on read.
"""

from __future__ import annotations

from typing import TextIO

__all__ = ["read_alist", "export_code_alist"]


def read_alist(inp: TextIO) -> tuple[list[list[int]], int]:
    """Parse an alist file; returns (per-column row lists 0-indexed, n_rows)."""
    tokens = inp.read().split()
    pos = 0

    def take(k: int) -> list[int]:
        nonlocal pos
        vals = [int(t) for t in tokens[pos : pos + k]]
        if len(vals) != k:
            raise ValueError("truncated alist file")
        pos += k
        return vals

    n_cols, n_rows = take(2)
    take(2)  # max degrees, informational
    col_degs = take(n_cols)
    row_degs = take(n_rows)
    col_adj: list[list[int]] = []
    for c in range(n_cols):
        entries = take(col_degs[c])
        # some writers pad adjacency lines with zeros up to the max degree
        while pos < len(tokens) and tokens[pos] == "0":
            pos += 1
        rows = sorted(e - 1 for e in entries if e > 0)
        if len(rows) != col_degs[c]:
            raise ValueError(f"column {c} degree mismatch")
        if any(not 0 <= r < n_rows for r in rows):
            raise ValueError(f"column {c} has a row index out of range")
        col_adj.append(rows)
    for r in range(n_rows):
        entries = take(row_degs[r])
        while pos < len(tokens) and tokens[pos] == "0":
            pos += 1
        cols = sorted(e - 1 for e in entries if e > 0)
        for c in cols:
            if r not in col_adj[c]:
                raise ValueError("row and column adjacency lists disagree")
    return col_adj, n_rows


def export_code_alist(code, out: TextIO) -> None:
    """Write the lifted binary matrix of an SC code, read off its edge array."""
    edges = code.edges
    row_degs = [len(cols) for cols in edges.row_lists]
    out.write(f"{code.n_cols} {code.n_rows}\n")
    out.write(f"{edges.gamma} {max(row_degs, default=0)}\n")
    out.write(" ".join([str(edges.gamma)] * code.n_cols) + "\n")
    out.write(" ".join(map(str, row_degs)) + "\n")
    for rows in (edges.rows + 1).tolist():
        out.write(" ".join(map(str, rows)) + "\n")
    for cols in edges.row_lists:
        out.write(" ".join(str(c + 1) for c in cols) + "\n")
