"""Small exact linear algebra over Z used by the ideal and order machinery.

Lattices are stored as lists of integer row vectors.
Everything here is dimension-4-or-less and exact; no floating point.
"""

from __future__ import annotations


def hnf(rows):
    """Row Hermite normal form of an integer matrix.

    Returns an upper-triangular-by-pivot list of rows with positive pivots
    and entries above each pivot reduced into [0, pivot). Zero rows are
    dropped. Input rows are not modified.
    """
    rows = [list(map(int, r)) for r in rows if any(r)]
    if not rows:
        return []
    ncols = len(rows[0])
    out = []
    col = 0
    while col < ncols and rows:
        pivots = [r for r in rows if r[col] != 0]
        rest = [r for r in rows if r[col] == 0]
        if not pivots:
            col += 1
            continue
        # euclidean elimination on the current column
        while len(pivots) > 1:
            pivots.sort(key=lambda r: abs(r[col]))
            p = pivots[0]
            new = [p]
            for r in pivots[1:]:
                q = r[col] // p[col]
                rr = [a - q * b for a, b in zip(r, p)]
                if rr[col] != 0:
                    new.append(rr)
                elif any(rr):
                    rest.append(rr)
            pivots = new
        p = pivots[0]
        if p[col] < 0:
            p = [-a for a in p]
        # reduce previously placed rows above this pivot
        for r in out:
            q = r[col] // p[col]
            if q:
                for i in range(ncols):
                    r[i] -= q * p[i]
        out.append(p)
        rows = rest
        col += 1
    return out


def hnf_key(rows):
    """Hashable canonical form of the lattice spanned by integer rows."""
    return tuple(tuple(r) for r in hnf(rows))


def pivot_product(hnf_rows) -> int:
    """Product of the pivots of a full-rank row HNF: the index of its lattice."""
    d = 1
    j = 0
    for r in hnf_rows:
        while r[j] == 0:
            j += 1
        d *= r[j]
    return abs(d)


def in_lattice(vec, hnf_rows):
    """Exact membership of an integer vector in the row lattice."""
    v = list(vec)
    n = len(v)
    for r in hnf_rows:
        j = 0
        while j < n and r[j] == 0:
            j += 1
        if j == n:
            continue
        if v[j] == 0:
            continue
        q, rem = divmod(v[j], r[j])
        if rem:
            return False
        for i in range(j, n):
            v[i] -= q * r[i]
    return all(x == 0 for x in v)

