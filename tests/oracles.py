"""Independent slow-path oracles for the tests.

Nothing here reuses the package's system builders: ranks come from a plain
forward elimination written separately, sympy supplies a second independent
RREF/nullspace, and the biderivation systems are either reconstructed by
probing unit tensors through residual evaluation or assembled directly from
the right and left conditions over all n^3 tensor entries, the way the
package once solved them.
"""

from fractions import Fraction

import sympy


def forward_elimination_rank(rows):
    """Rank by forward Gaussian elimination only (no back-substitution)."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, len(m)):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        lead = m[rank][col]
        for r in range(rank + 1, len(m)):
            f = m[r][col]
            if f:
                ratio = f / lead
                m[r] = [a - ratio * b for a, b in zip(m[r], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank


def sympy_rref(rows):
    """(rref rows, rank) via sympy, entries back as Fractions."""
    mat = sympy.Matrix([[sympy.Rational(x) for x in row] for row in rows])
    red, pivots = mat.rref()
    out = [[Fraction(int(v.p), int(v.q)) for v in red.row(i)] for i in range(red.rows)]
    return out, len(pivots)


def sympy_nullspace_dim(rows):
    mat = sympy.Matrix([[sympy.Rational(x) for x in row] for row in rows])
    return len(mat.nullspace())


def probe_rows(residual_fn, unknowns, probes):
    """Rebuild a linear system by probing unit vectors through a residual map.

    `residual_fn(flat_unit_vector)` must return the concatenated residuals of
    every condition; linearity of the conditions makes the probes the system
    columns. `probes` yields the unit coordinate vectors.
    """
    columns = [residual_fn(p) for p in probes]
    n_rows = len(columns[0])
    assert all(len(c) == n_rows for c in columns)
    return [[columns[u][r] for u in range(unknowns)] for r in range(n_rows)]


def heisenberg_derivation_constraints(m):
    """Hand-derived description of Der(heisenberg3).

    Expanding the derivation rule on the pairs (e1,e2), (e1,e3), (e2,e3) by
    hand gives exactly: m13 = 0, m23 = 0, m33 = m11 + m22 (1-based entries).
    """
    return (
        m.data[0][2] == 0
        and m.data[1][2] == 0
        and m.data[2][2] == m.data[0][0] + m.data[1][1]
    )


def right_bider_rows(A):
    """The right condition on every basis triple (i,j,k), one row per output
    coordinate l, over all n^3 tensor entries in flat order."""
    n = A.dim
    rows = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    row = [Fraction(0)] * (n ** 3)
                    for p in range(n):
                        v = A.c[i][j][p]
                        if v:
                            row[(p * n + k) * n + l] += v       # t[p][k][l]
                    for q in range(n):
                        v = A.c[i][q][l]
                        if v:
                            row[(j * n + k) * n + q] -= v       # t[j][k][q]
                    for q in range(n):
                        v = A.c[q][j][l]
                        if v:
                            row[(i * n + k) * n + q] -= v       # t[i][k][q]
                    rows.append(row)
    return rows


def left_bider_rows(A):
    """Mirror of `right_bider_rows` for the left condition."""
    n = A.dim
    rows = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    row = [Fraction(0)] * (n ** 3)
                    for p in range(n):
                        v = A.c[j][k][p]
                        if v:
                            row[(i * n + p) * n + l] += v       # t[i][p][l]
                    for q in range(n):
                        v = A.c[q][k][l]
                        if v:
                            row[(i * n + j) * n + q] -= v       # t[i][j][q]
                    for q in range(n):
                        v = A.c[j][q][l]
                        if v:
                            row[(i * n + k) * n + q] -= v       # t[i][k][q]
                    rows.append(row)
    return rows
