"""Exact linear algebra over Z: fraction-free reduced row echelon form.

Integer rows are eliminated Gauss-Jordan style without fractions (Bareiss
1968); the caller divides by the returned last pivot to read RREF rows.
The RREF is unique, so the first nonzero pivot serves.
"""

from __future__ import annotations


def rref(rows: list[list[int]]) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free reduced row echelon form of integer rows.

    Returns (rows, pivots, d): the nonzero rows in pivot order, their pivot
    columns and the last pivot d; row i divided by d is RREF row i.  Each
    step makes row r (pivot * r - r[col] * pivot_row) / previous pivot, an
    exact division by Sylvester's identity.
    """
    m = [list(r) for r in rows if any(r)]
    pivots: list[int] = []
    prev = 1
    for col in range(len(m[0]) if m else 0):
        row = len(pivots)
        found = next((r for r in range(row, len(m)) if m[r][col]), None)
        if found is None:
            continue
        m[row], m[found] = m[found], m[row]
        top, pivot = m[row], m[row][col]
        for r, mr in enumerate(m):
            if r != row:
                f = mr[col]
                # rows below are zero before col
                for c in range(col if r > row else 0, len(mr)):
                    mr[c] = (pivot * mr[c] - f * top[c]) // prev
        pivots.append(col)
        prev = pivot
    return m[: len(pivots)], pivots, prev


def bareiss_rank(rows: list[list[int]]) -> int:
    """Exact rank of an integer matrix.

    No library code calls it; it stays while the benchmark's tracing wraps
    it by name.
    """
    return len(rref(rows)[1])
