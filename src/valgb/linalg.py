"""Exact linear algebra over Q: rank and reduced row echelon form.

Rows are scaled to integers and eliminated fraction-free (Bareiss 1968).
The RREF is unique, so the first nonzero pivot serves.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def _eliminate(m: list[list[int]], reduce_above: bool) -> tuple[list[int], int]:
    """Fraction-free elimination of the nonzero integer rows m, in place.

    Row r becomes (pivot * r - r[col] * pivot_row) / previous pivot, an exact
    division by Sylvester's identity.  Returns the pivot columns and the last
    pivot d; with ``reduce_above`` (Gauss-Jordan) row i / d is RREF row i.
    """
    ncols = len(m[0])
    pivots: list[int] = []
    prev = 1
    for col in range(ncols):
        row = len(pivots)
        found = next((r for r in range(row, len(m)) if m[r][col]), None)
        if found is None:
            continue
        m[row], m[found] = m[found], m[row]
        top, pivot = m[row], m[row][col]
        for r in range(0 if reduce_above else row + 1, len(m)):
            if r != row:
                mr, f = m[r], m[r][col]
                # rows below are zero before col
                for c in range(col if r > row else 0, ncols):
                    mr[c] = (pivot * mr[c] - f * top[c]) // prev
        pivots.append(col)
        prev = pivot
    return pivots, prev


def bareiss_rank(rows: list[list[int]]) -> int:
    """Exact rank of an integer matrix via fraction-free elimination."""
    m = [list(r) for r in rows if any(r)]
    return len(_eliminate(m, False)[0]) if m else 0


def rref(rows: list[list]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form of rows of Fractions or ints.

    Returns (reduced rows in pivot order, pivot column indices).  Zero rows
    are dropped.  The rows are scaled to integers for the fraction-free
    elimination and come back as Fractions.
    """
    m = [r for r in rows if any(r)]
    if not m:
        return [], []
    dens = [lcm(*(c.denominator for c in r)) for r in m]
    ints = [[int(c * k) for c in r] for r, k in zip(m, dens)]
    pivots, d = _eliminate(ints, True)
    return [[Fraction(c, d) for c in r] for r in ints[: len(pivots)]], pivots
