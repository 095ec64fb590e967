"""Exact linear algebra: rank and reduced row echelon form.

Q and Qp rows are scaled to integers and eliminated fraction-free (Bareiss
1968).  The RREF is unique, so the first nonzero pivot serves.  Rows over
Q(t) and GF(p) use field arithmetic with pivots of minimal valuation, which
keeps Q(t) elimination markedly faster.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .fields import CoefficientField


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


def rref(
    rows: list[list], field: CoefficientField
) -> tuple[list[list], list[int]]:
    """Reduced row echelon form over a field.

    Returns (reduced rows in pivot order, pivot column indices).  Zero rows
    are dropped.  Q and Qp rows (Fractions or ints) are scaled to integers
    for the fraction-free elimination and come back as Fractions.
    """
    m = [r for r in rows if any(not field.is_zero(c) for c in r)]
    if not m:
        return [], []
    if type(field.zero()) is Fraction:
        dens = [lcm(*(c.denominator for c in r)) for r in m]
        ints = [[int(c * k) for c in r] for r, k in zip(m, dens)]
        pivots, d = _eliminate(ints, True)
        return [[Fraction(c, d) for c in r] for r in ints[: len(pivots)]], pivots
    ncols = len(m[0])
    pivots = []
    row = 0
    for col in range(ncols):
        best = None
        best_val = None
        for r in range(row, len(m)):
            c = m[r][col]
            if field.is_zero(c):
                continue
            v = field.val(c)
            if best is None or v < best_val:
                best, best_val = r, v
        if best is None:
            continue
        if best != row:
            m[row], m[best] = m[best], m[row]
        inv = field.inv(m[row][col])
        m[row] = [field.mul(inv, c) for c in m[row]]
        for r in range(len(m)):
            if r == row:
                continue
            factor = m[r][col]
            if field.is_zero(factor):
                continue
            m[r] = [
                field.sub(a, field.mul(factor, b)) for a, b in zip(m[r], m[row])
            ]
        pivots.append(col)
        row += 1
        if row == len(m):
            break
    return m[: len(pivots)], pivots
