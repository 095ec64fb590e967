"""Exact linear algebra over a field: sparse reduced row echelon form.

Rows are dicts col -> nonzero entry.  Forward elimination clears each pivot
column only from the pending rows that hold it; Macaulay matrices are very
sparse (as in F4's linear algebra), so most rows are left alone at most
pivots.  The RREF is unique, so any row holding the pivot column serves;
the one with the fewest entries is taken.  Back-substitution then reduces
only the pivot rows a caller reads: the RREF row of a pivot is the unique
row-space vector with that pivot and zeros at the other pivots, so it
comes out the same whichever others are reduced.  The lift and
``reduce_basis`` read a few target rows of matrices whose other pivot rows
only serve the elimination.

The field picks the row operation.  Over Q and Qp the rows are integers and
stay primitive: every row a pivot touches is divided by its content, so no
Fraction is built.  Over any other field (GF(p), Q(t)) the rows hold the
field's scalars, each pivot row is scaled to a pivot entry of one, and a
row r becomes r - r[col]*pivot row.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd


def _eliminate(r: dict, col: int, p: int, top_rest: list) -> dict:
    """Primitive form of (p/g)*r - (f/g)*top, with f = r[col] and
    g = gcd(p, f); top_rest is the pivot row top without its entry p at col.
    The result is zero at col and may be empty."""
    f = r.pop(col)
    g = gcd(p, f)
    a, b = p // g, f // g
    if a != 1:
        r = {c: a * v for c, v in r.items()}
    for c, v in top_rest:
        v = r.get(c, 0) - b * v
        if v:
            r[c] = v
        else:
            del r[c]
    g = gcd(*r.values())
    if g > 1:
        r = {c: v // g for c, v in r.items()}
    return r


def _unit_eliminate(field):
    """The row operation r - r[col]*top over a field whose pivot rows top
    have entry one at col; it takes the arguments of ``_eliminate``."""
    sub, mul, is_zero, zero = field.sub, field.mul, field.is_zero, field.zero()

    def eliminate(r: dict, col: int, p, top_rest: list) -> dict:
        f = r.pop(col)
        for c, v in top_rest:
            v = sub(r.get(c, zero), mul(f, v))
            if is_zero(v):
                del r[c]
            else:
                r[c] = v
        return r

    return eliminate


def rref(rows: list[dict], field=None, wanted=None) -> tuple[list[dict], list[int]]:
    """Reduced row echelon form of sparse rows ``{column: entry}``.

    Returns (rows, pivots): one row per pivot column, in pivot order, as a
    dict col -> nonzero entry, and the pivot columns; RREF row i is rows[i]
    divided by rows[i][pivots[i]].  Rows over Q or Qp (or with no field
    given) are integers, and the returned rows are primitive with a
    positive pivot entry.  A pending row is then always row j minus the
    unique combination of pivot rows that clears their columns, up to
    scale, so its primitive form is a ratio of minors and never outgrows
    fraction-free (Bareiss) elimination.  Over any other field the rows
    hold its scalars and every pivot entry is one.  The input rows are not
    changed.

    ``wanted`` is a set of columns: only the pivot rows there are
    back-substituted, and every other returned row is its forward echelon
    row, zero left of its pivot but not at the later pivots.  The pivots
    are the forward pass's either way.  None back-substitutes every row.
    """
    integral = field is None or field.integral
    eliminate = _eliminate if integral else _unit_eliminate(field)
    # pending rows, bucketed by their first column; all of them are zero in
    # every pivot column found so far
    pending: dict[int, list[dict]] = {}
    for row in rows:
        r = {c: v for c, v in row.items() if v}
        if r:
            pending.setdefault(min(r), []).append(r)
    columns = list(pending)
    heapify(columns)
    done: list[dict] = []
    pivots: list[int] = []
    forward: dict = {}  # pivot column -> (pivot entry, rest of its forward row)
    while columns:
        col = heappop(columns)
        here = pending.pop(col)
        chosen = here[0] if len(here) == 1 else min(here, key=len)
        if integral:
            g = gcd(*chosen.values())
            if chosen[col] < 0:
                g = -g
            top = {c: v // g for c, v in chosen.items()} if g != 1 else chosen
        else:
            inv = field.inv(chosen[col])
            top = {c: field.mul(v, inv) for c, v in chosen.items()}
        p = top[col]
        top_rest = [(c, v) for c, v in top.items() if c != col]
        for r in here:
            if r is not chosen:
                r = eliminate(r, col, p, top_rest)
                if r:
                    first = min(r)
                    if first not in pending:
                        pending[first] = []
                        heappush(columns, first)
                    pending[first].append(r)
        forward[col] = (p, top_rest)
        done.append(top)
        pivots.append(col)
    # back-substitution from the last pivot up: a row's later pivot columns
    # are cleared in increasing order, each by that column's reduced row
    # where it has one (which brings in no pivot column) and by its forward
    # row otherwise (which brings in only later ones)
    reduced: dict = {}
    for k in range(len(pivots) - 1, -1, -1):
        col = pivots[k]
        if wanted is not None and col not in wanted:
            continue
        r = done[k]
        queue = [c for c in r if c != col and c in forward]
        if queue:
            heapify(queue)
            queued = set(queue)
            while queue:
                c = heappop(queue)
                if c not in r:
                    continue
                p, rest = reduced.get(c) or forward[c]
                r = eliminate(r, c, p, rest)
                for e, _ in rest:
                    if e in forward and e not in queued:
                        queued.add(e)
                        heappush(queue, e)
            done[k] = r
        reduced[col] = (r[col], [(c, v) for c, v in r.items() if c != col])
    return done, pivots


def bareiss_rank(rows: list[dict]) -> int:
    """Exact rank of sparse integer rows: the number of echelon pivots.

    No library code calls it; it stays while the benchmark's tracing wraps
    it by name.
    """
    return len(rref(rows, wanted=())[1])
