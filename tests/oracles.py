"""Independent slow-path oracles for the tests.

Nothing here reuses the package's system builders: ranks come from a plain
forward elimination written separately, sympy supplies a second independent
RREF/nullspace, and the biderivation systems are either reconstructed by
probing unit tensors through residual evaluation or assembled directly from
the right and left conditions over all n^3 tensor entries, the way the
package once solved them. `rref_reference` is the package's earlier dense
`Fraction` Gauss-Jordan elimination, `derivation_rows_reference` its
earlier `Fraction` row builder, and `derivation_rows_dense` its earlier integer
row builder, which visits every (i, j, l) and reads every structure constant
where the package reads the nonzero ones only. `integers_per_entry` is the
earlier integer form of a flat matrix, one `as_integer_ratio` per entry, where
the package takes all-int input as it is. The two-pass `nullspace_reference` and the
canonicalizing `intersect_reference` are the package's earlier solvers,
which canonicalize every result with a second elimination; both eliminate
with `rref_reference`, so they stay independent of the sparse kernel.
sympy's kernel, canonicalized by sympy's own RREF, is a third. The
identity sides below write each condition out as it reads, through the
product alone, where the package asks every one of them as "is this map a
derivation?". The bracket reference takes one matrix commutator per pair
of terms, the way the package first computed it, and the matrix references
multiply entry by entry in `Fraction`s. The linear-combination references
fold one `Fraction` product and sum at a time, entry by entry, where the
package combines integer forms over one denominator. The poly map serializers
write the `Fraction` matrices of `.terms`, or every entry of the integer form
in turn, where the package walks only the nonzero entries of each block. The
Jacobi reference sums every ordered triple, where the package checks one per
rotation class. The Leibniz sides reference walks the stack block by block and
entry by entry, where the package makes one strided pass over the stack per
nonzero structure constant. The right space reference transposes the left basis
row by row and sorts the rows by pivot, where the package writes each row y_j D
from the `Der` basis in canonical order. The power Leibniz reference evaluates
both sides of F^k[x, y] = sum_m C(k, m) [F^m x, F^(k-m) y] in `Fraction`s, where
the package runs through integer powers and the nonzero structure constants.
The two-sided space reference applies the `Der` rows to the transposed block matrix
of the right basis, where the package reads the right basis's sparse rows.
The scalar polynomial drawer sums each monomial's coefficients as `Fraction`s,
where the package sums them in integer halves. The scalar-family expansion
builds one `Fraction` matrix c_a F per monomial and a map from them, where the
package writes the integer blocks from g's coefficients and F's integer
form. The per-entry operand reader slices every row of every block and tests
each entry, where the package visits only the nonzero positions of a block.
The tensor, algebra and `der`/`bider` writers below print the `str` of each
entry of the `Fraction` views (`Matrix.data`, `SubspaceBasis.vectors`), where
the package prints the integer form through `formats.Rationals`.
"""

import json
import math
from fractions import Fraction

import sympy

from biderlie.algebras import bracket
from biderlie.biderivations import (basis_tensors, bider_space, left_bider_bilinear_space,
                                    right_bider_bilinear_space)
from biderlie.derivations import derivation_rows, derivation_space
from biderlie.bilinear import BilinearTensor
from biderlie.brackets import PolyRightMap, _PolyMap, random_multi_index, random_ratio
from biderlie.linalg import (Matrix, SubspaceBasis, basis_vector, mat_commutator, random_below,
                             solve_over, vector)
from biderlie.scalar_maps import ScalarPoly


def vec_add(u, v):
    """u + v entry by entry."""
    return tuple(a + b for a, b in zip(u, v))


def _sympy_matrix(rows):
    return sympy.Matrix([[sympy.Rational(x) for x in row] for row in rows])


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
    red, pivots = _sympy_matrix(rows).rref()
    out = [[Fraction(int(v.p), int(v.q)) for v in red.row(i)] for i in range(red.rows)]
    return out, len(pivots)


def sympy_nullspace_dim(rows):
    return len(_sympy_matrix(rows).nullspace())


def rref_reference(m):
    """Reduced row echelon form and rank, by dense Gauss-Jordan elimination in `Fraction`s."""
    rows = [[Fraction(x) for x in r] for r in m.data]
    nrows, ncols = m.rows, m.cols
    pivot_row = 0
    for col in range(ncols):
        pr = next((r for r in range(pivot_row, nrows) if rows[r][col]), None)
        if pr is None:
            continue
        rows[pivot_row], rows[pr] = rows[pr], rows[pivot_row]
        lead = rows[pivot_row][col]
        if lead != 1:
            inv = 1 / lead
            rows[pivot_row] = [x * inv for x in rows[pivot_row]]
        piv = rows[pivot_row]
        for r in range(nrows):
            if r != pivot_row and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], piv)]
        pivot_row += 1
        if pivot_row == nrows:
            break
    return Matrix(rows) if rows else Matrix.zeros(0, ncols), pivot_row


def canonicalize_reference(vectors, ambient_dim):
    """Canonical basis of the span of `vectors`: the nonzero rows of `rref_reference`."""
    vecs = [vector(v) for v in vectors]
    if not vecs:
        return SubspaceBasis(ambient_dim, ())
    red, rank = rref_reference(Matrix(vecs))
    return SubspaceBasis(ambient_dim, red.data[:rank])


def nullspace_reference(m):
    """Canonical nullspace basis in two passes: the standard kernel vectors of
    `rref_reference` of m, then `canonicalize_reference` of those."""
    red, rank = rref_reference(m)
    pivots = [next(c for c, x in enumerate(red.data[r]) if x) for r in range(rank)]
    vecs = []
    for f in (c for c in range(m.cols) if c not in pivots):
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -red.data[r][f]
        vecs.append(tuple(v))
    return canonicalize_reference(vecs, m.cols)


def intersect_reference(a, b):
    """a meet b: solve sum x_i a_i = sum y_j b_j with `nullspace_reference`,
    combine the a-parts and `canonicalize_reference` the combinations."""
    if a.dim == 0 or b.dim == 0:
        return SubspaceBasis(a.ambient_dim, ())
    rows = [[av[c] for av in a.vectors] + [-bv[c] for bv in b.vectors]
            for c in range(a.ambient_dim)]
    vecs = [fraction_combination(x[:a.dim], a.vectors, (Fraction(0),) * a.ambient_dim)
            for x in nullspace_reference(Matrix(rows)).vectors]
    return canonicalize_reference(vecs, a.ambient_dim)


def full_space(n):
    """The canonical basis of Q^n: its unit vectors."""
    return SubspaceBasis(n, tuple(basis_vector(i, n) for i in range(n)))


def is_subspace_of(a, b):
    """Every canonical basis vector of a lies in b."""
    return all(b.contains(v) for v in a.vectors)


def _sympy_canonical(vectors, ambient_dim):
    """Canonical basis of the span of sympy column vectors, by sympy's RREF."""
    if not vectors:
        return SubspaceBasis(ambient_dim, ())
    red, pivots = sympy.Matrix.hstack(*vectors).T.rref()
    return SubspaceBasis(ambient_dim, tuple(
        tuple(Fraction(int(v.p), int(v.q)) for v in red.row(i)) for i in range(len(pivots))))


def sympy_canonical_nullspace(m):
    """sympy's kernel of m, canonicalized by sympy's RREF."""
    return _sympy_canonical(_sympy_matrix(m.data).nullspace(), m.cols)


def sympy_intersection(a, b):
    """a meet b by sympy: the kernel of [a^T | -b^T], its a-parts lifted through
    a and canonicalized by sympy's RREF."""
    if a.dim == 0 or b.dim == 0:
        return SubspaceBasis(a.ambient_dim, ())
    at = _sympy_matrix(a.vectors).T
    system = at.row_join(-_sympy_matrix(b.vectors).T)
    return _sympy_canonical([at * x[:a.dim, 0] for x in system.nullspace()], a.ambient_dim)


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


def derivation_rows_reference(A):
    """The derivation rule at every basis pair (i, j), one `Fraction` row per output
    coordinate, built from the structure constants as they are; zero rows and rows
    equal up to sign to an earlier one are dropped."""
    n, c = A.dim, A.c
    rows = []
    seen = set()
    for i in range(n):
        for j in range(n):
            for l in range(n):
                row = [Fraction(0)] * (n * n)
                for k in range(n):
                    v = c[i][j][k]
                    if v:
                        row[k * n + l] += v          # entry m[l][k]
                for p in range(n):
                    v = c[p][j][l]
                    if v:
                        row[i * n + p] -= v          # entry m[p][i]
                for q in range(n):
                    v = c[i][q][l]
                    if v:
                        row[j * n + q] -= v          # entry m[q][j]
                key = tuple(row)
                if any(key) and key not in seen:
                    seen.add(key)
                    seen.add(tuple(-x for x in key))
                    rows.append(row)
    return rows


def derivation_rows_dense(A):
    """`derivations.derivation_rows` as a dense loop: every (i, j, l), one integer row
    per triple from the product's `int_form`, with zero rows and rows equal up to
    sign to an earlier one dropped."""
    n = A.dim
    _, c, _ = A.product.int_form()
    rows = []
    seen = set()
    for i in range(n):
        for j in range(n):
            for l in range(n):
                row = [0] * (n * n)
                for k in range(n):
                    row[k * n + l] += c[i][j][k]         # entry m[l][k]
                for p in range(n):
                    row[i * n + p] -= c[p][j][l]         # entry m[p][i]
                for q in range(n):
                    row[j * n + q] -= c[i][q][l]         # entry m[q][j]
                key = tuple(row)
                if any(key) and key not in seen:
                    seen.add(key)
                    seen.add(tuple(-x for x in key))
                    rows.append(row)
    return rows


def integers_per_entry(entries):
    """The least common denominator d of rationals and the integers d * x, one
    `as_integer_ratio` per entry, coerced as `Fraction` reads them."""
    ratios = [x.as_integer_ratio() if type(x) is Fraction or type(x) is int
              else Fraction(x).as_integer_ratio() for x in entries]
    den = math.lcm(*{d for _, d in ratios})
    return den, [p * (den // d) for p, d in ratios]


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


def right_bider_sides(A, B, i, j, k):
    """B([x,y],z) and [x,B(y,z)] + [B(x,z),y] at (x,y,z) = (e_i,e_j,e_k)."""
    n = A.dim
    lhs = [Fraction(0)] * n
    for p in range(n):
        f = A.c[i][j][p]
        if f:
            for l, v in enumerate(B.t[p][k]):
                if v:
                    lhs[l] += f * v
    rhs = vec_add(bracket(A, basis_vector(i, n), B.t[j][k]),
                  bracket(A, B.t[i][k], basis_vector(j, n)))
    return tuple(lhs), rhs


def left_bider_sides(A, B, i, j, k):
    """B(x,[y,z]) and [B(x,y),z] + [y,B(x,z)] at (x,y,z) = (e_i,e_j,e_k)."""
    n = A.dim
    lhs = [Fraction(0)] * n
    for p in range(n):
        f = A.c[j][k][p]
        if f:
            for l, v in enumerate(B.t[i][p]):
                if v:
                    lhs[l] += f * v
    rhs = vec_add(bracket(A, B.t[i][j], basis_vector(k, n)),
                  bracket(A, basis_vector(j, n), B.t[i][k]))
    return tuple(lhs), rhs


def left_leibniz_sides(A, i, j, k):
    """[x,[y,z]] and [[x,y],z] + [y,[x,z]] at (x,y,z) = (e_i,e_j,e_k)."""
    n = A.dim
    lhs = bracket(A, basis_vector(i, n), A.c[j][k])
    rhs = vec_add(bracket(A, A.c[i][j], basis_vector(k, n)),
                  bracket(A, basis_vector(j, n), A.c[i][k]))
    return lhs, rhs


def right_leibniz_sides(A, i, j, k):
    """[[x,y],z] and [[x,z],y] + [x,[y,z]] at (x,y,z) = (e_i,e_j,e_k)."""
    n = A.dim
    lhs = bracket(A, A.c[i][j], basis_vector(k, n))
    rhs = vec_add(bracket(A, A.c[i][k], basis_vector(j, n)),
                  bracket(A, basis_vector(i, n), A.c[j][k]))
    return lhs, rhs


def first_failure(n, sides):
    """(triple, lhs, rhs, rhs - lhs) at the first triple in descending order
    where `sides(i, j, k)` disagree, or None."""
    for i in range(n - 1, -1, -1):
        for j in range(n - 1, -1, -1):
            for k in range(n - 1, -1, -1):
                lhs, rhs = sides(i, j, k)
                if lhs != rhs:
                    return (i, j, k), lhs, rhs, tuple(b - a for a, b in zip(lhs, rhs))
    return None


def bracket_terms_per_pair(t1, t2):
    """sum_{a,b} y^(a+b) [M_a, N_b]: one `mat_commutator` per pair of terms,
    summed with `Matrix` addition; all-zero outputs are dropped."""
    acc = {}
    for a, m in t1.items():
        for b, nmat in t2.items():
            comm = mat_commutator(m, nmat)
            if comm.is_zero():
                continue
            g = tuple(x + y for x, y in zip(a, b))
            cur = acc.get(g)
            acc[g] = comm if cur is None else cur + comm
    return {g: m for g, m in acc.items() if not m.is_zero()}


def read_per_entry(X):
    """A bracket operand as `brackets._read` gives it, read as the package once read it:
    every n x n block sliced row by row and every entry tested, the entries (r n, k, v)
    collected from the sparse rows."""
    if isinstance(X, _PolyMap):
        X = X.den, X.blocks
    out = []
    for a, flat in X[1].items():
        if any(flat):
            n = math.isqrt(len(flat))
            rows = [[(k, v) for k, v in enumerate(flat[r:r + n]) if v] for r in range(0, n * n, n)]
            out.append((a, [(r * n, k, v) for r, row in enumerate(rows) for k, v in row], rows))
    return X[0], out


def poly_value_reference(terms, v):
    """sum_a v^a M_a in `Fraction`s, one monomial and one entry at a time; the zero
    matrix for no terms."""
    n = len(v)
    out = [[Fraction(0)] * n for _ in range(n)]
    for a, m in terms.items():
        w = Fraction(1)
        for x, e in zip(v, a):
            w *= Fraction(x) ** e
        for r in range(n):
            for c in range(n):
                out[r][c] += w * m.data[r][c]
    return Matrix(out)


def matrix_product(a, b):
    """a b by the textbook triple loop over `Fraction` entries; a product without rows
    is the zero matrix of its shape."""
    rows = [[sum((a.data[r][k] * b.data[k][c] for k in range(a.cols)), Fraction(0))
             for c in range(b.cols)] for r in range(a.rows)]
    return Matrix(rows) if rows else Matrix.zeros(0, b.cols)


def derivation_sides(A, m, i, j):
    """D[e_i,e_j] and [De_i,e_j] + [e_i,De_j] for the matrix D = m, through the product."""
    n = A.dim
    lhs = m.apply(A.c[i][j])
    rhs = vec_add(bracket(A, m.col(i), basis_vector(j, n)),
                  bracket(A, basis_vector(i, n), m.col(j)))
    return lhs, rhs


def is_derivation_reference(A, m):
    return all(lhs == rhs for lhs, rhs in (derivation_sides(A, m, i, j)
                                           for i in range(A.dim) for j in range(A.dim)))


def derives_reference(A, images):
    """The per-block scan of a stack of maps, block b holding D_b e_p = images[p][b n:(b + 1) n]
    over a scale of its own: each D_b rebuilt as a matrix and checked alone, in `Fraction`s,
    by `is_derivation_reference`. A stack of no blocks passes."""
    n = A.dim
    return all(is_derivation_reference(A, Matrix([[images[p][b + l] for p in range(n)]
                                                  for l in range(n)]))
               for b in range(0, len(images[0]), n))


def leibniz_sides_reference(A, images, i, j):
    """`algebras.leibniz_sides` as the package first computed it: the same integer sides of
    D_b[e_i, e_j] = [D_b e_i, e_j] + [e_i, D_b e_j], added up one block and one nonzero entry
    at a time."""
    n = A.dim
    rows = A.product.matrix.sparse       # row a*n + b: d [e_a, e_b]
    lhs = [0] * len(images[i])
    rhs = [0] * len(lhs)
    for p, f in rows[i * n + j]:
        for l, x in enumerate(images[p]):
            if x:
                lhs[l] += f * x
    for coeffs, at in ((images[i], range(j, n * n, n)), (images[j], range(i * n, i * n + n))):
        for base in range(0, len(coeffs), n):
            for f, r in zip(coeffs[base:base + n], at):
                if f:
                    for l, x in rows[r]:
                        rhs[base + l] += f * x
    return lhs, rhs


def jacobi_ok_reference(A):
    """`verify.derivation_suite`'s commutator-jacobi verdict over every ordered triple of the
    scaled `Der` basis, not one per rotation class: each sum built with `verify.add_product`,
    looked up at call time, as the suite builds it."""
    from biderlie import verify
    from biderlie.derivations import derivation_matrices
    n = A.dim
    scaled = [Matrix._of(n, n, 1, d.ints) for d in derivation_matrices(A)]
    rows = [d.sparse for d in scaled]
    crows = {(i, j): mat_commutator(a, b).sparse
             for i, a in enumerate(scaled) for j, b in enumerate(scaled)}
    m = len(scaled)
    for i, j, k in ((i, j, k) for i in range(m) for j in range(m) for k in range(m)):
        out = [0] * (n * n)
        for d, c in ((rows[i], crows[j, k]), (rows[j], crows[k, i]), (rows[k], crows[i, j])):
            verify.add_product(out, d, c, n)
            verify.add_product(out, c, d, n, -1)
        if any(out):
            return False
    return True


def fraction_combination(coeffs, items, zero):
    """zero + sum_i coeffs[i] * items[i], folded one `Fraction` product and sum at a time,
    entry by entry: matrices are read through `.data`, tensors through `flatten()` and
    vectors as they are, and the result is rebuilt as the type of `zero`."""
    def entries(x):
        if isinstance(x, Matrix):
            return [v for row in x.data for v in row]
        return list(x.flatten() if isinstance(x, BilinearTensor) else x)
    acc = entries(zero)
    for f, x in zip(coeffs, items):
        f = Fraction(f)
        if f:
            acc = [a + f * b if b else a for a, b in zip(acc, entries(x))]
    if isinstance(zero, BilinearTensor):
        return BilinearTensor.from_flat(acc, zero.dim)
    if isinstance(zero, Matrix):
        c = zero.cols
        return Matrix([acc[r * c:(r + 1) * c] for r in range(zero.rows)]) if zero.rows else zero
    return tuple(acc)


def poly_terms_combination(coeffs, term_dicts):
    """sum_i coeffs[i] * P_i for poly-map term dicts, matrix by matrix with
    `fraction_combination`; all-zero matrices are dropped."""
    acc = {}
    for f, terms in zip(coeffs, term_dicts):
        for a, m in terms.items():
            acc.setdefault(a, []).append((f, m))
    out = {a: fraction_combination([f for f, _ in fm], [m for _, m in fm],
                                   Matrix.zeros(fm[0][1].rows, fm[0][1].cols))
           for a, fm in acc.items()}
    return {a: m for a, m in out.items() if not m.is_zero()}


def evaluate_decomposition(fs, x, y):
    """sum_i x_i f_i(y): a map rebuilt from its `scalar_maps.decompose_by_basis` grid."""
    n = len(fs)
    out = [Fraction(0)] * n
    for i in range(n):
        if not x[i]:
            continue
        for l in range(n):
            v = fs[i][l].evaluate(y)
            if v:
                out[l] += x[i] * v
    return tuple(out)


def serialize_map_reference(P):
    """A poly map's file text written from the `Fraction` matrices of `.terms`, entry
    by entry in monomial, row and column order, as the package once wrote it."""
    kind = "polyright" if isinstance(P, PolyRightMap) else "polyleft"
    n = P.dim
    lines = [f"map {kind}", f"dim {n}"]
    for alpha in sorted(P.terms):
        exp = "(" + ",".join(str(e) for e in alpha) + ")"
        for r in range(n):
            for c in range(n):
                v = P.terms[alpha].data[r][c]
                if v:
                    lines.append(f"m {exp} {r + 1} {c + 1} = {v}")
    return "\n".join(lines) + "\n"


def serialize_map_per_entry(P):
    """A poly map's file text written from its integer form entry by entry, skipping the
    zeros one at a time, each entry x / den reduced to `str(Fraction)`'s text, as the
    package once wrote it."""
    kind = "polyright" if isinstance(P, PolyRightMap) else "polyleft"
    n, den = P.dim, P.den
    at = [f" {r + 1} {c + 1} = " for r in range(n) for c in range(n)]
    text: dict[int, str] = {}  # each distinct entry is reduced once
    lines = [f"map {kind}", f"dim {n}"]
    for alpha in P.monomials:
        head = "m (" + ",".join(map(str, alpha)) + ")"
        for pos, x in zip(at, P.blocks[alpha]):
            if x:
                v = text.get(x)
                if v is None:
                    g = math.gcd(x, den)
                    v = text[x] = str(x // g) if g == den else f"{x // g}/{den // g}"
                lines.append(f"{head}{pos}{v}")
    return "\n".join(lines) + "\n"


def right_space_by_transpose(A):
    """The right space as the package once built it: the left basis with every row
    transposed, entry (i, j, k) read from entry (j, i, k), and the rows sorted by
    the first nonzero entry of each, found by a search along the row."""
    n, size = A.dim, A.dim ** 3
    left = left_bider_bilinear_space(A).basis
    swap = [(j * n + i) * n + k for i in range(n) for j in range(n) for k in range(n)]
    rows = sorted(([left.ints[r + c] for c in swap] for r in range(0, len(left.ints), size)),
                  key=lambda row: next(c for c, x in enumerate(row) if x))
    return SubspaceBasis._of(Matrix._of(left.rows, size, left.den,
                                        [x for row in rows for x in row]))


def bider_space_by_transpose(A):
    """The two-sided space as the package once solved it: the `Der` rows times the
    transpose of the right basis's blocks, row u * n + i holding block i of R_u, and
    system row (q, i) read off row q of that product by strides."""
    n, nn = A.dim, A.dim ** 2
    right = right_bider_bilinear_space(A)
    rows = derivation_rows(A)
    if not rows:
        return right
    blocks = Matrix._of(right.dim * n, nn, right.basis.den, right.basis.ints)
    values = Matrix._from_flat(len(rows), nn, (x for r in rows for x in r)) * blocks.transpose()
    w = values.cols
    return solve_over(right, (values.ints[q * w + i:(q + 1) * w:n]
                              for q in range(len(rows)) for i in range(n)))


def power_leibniz_reference(A, F):
    """The first (k, i, j), k = 2..n then basis pairs ascending, at which
    F^k[e_i, e_j] = sum_m C(k, m) [F^m e_i, F^(k-m) e_j] fails, or None: in `Fraction`s,
    each side from `Matrix.apply` and the product evaluated as written."""
    n = A.dim
    powers = [Matrix.identity(n)]
    for _ in range(n):
        powers.append(powers[-1] * F)
    for k in range(2, n + 1):
        for i in range(n):
            for j in range(n):
                x, y = basis_vector(i, n), basis_vector(j, n)
                lhs = powers[k].apply(bracket(A, x, y))
                rhs = (Fraction(0),) * n
                for m in range(k + 1):
                    term = bracket(A, powers[m].apply(x), powers[k - m].apply(y))
                    rhs = vec_add(rhs, tuple(math.comb(k, m) * v for v in term))
                if lhs != rhs:
                    return k, i, j
    return None


def random_scalar_poly_fractions(rng, n, max_degree=2):
    """`verify._random_scalar_poly` as the package once built it: each coefficient a
    `Fraction` of `random_ratio`'s draw, summed per monomial in `Fraction`s."""
    coeffs = {}
    [terms] = random_below(rng, (4,))
    for _ in range(terms + 1):
        alpha = random_multi_index(rng, n, max_degree)
        coeffs[alpha] = coeffs.get(alpha, Fraction(0)) + Fraction(*random_ratio(rng))
    return ScalarPoly(n, coeffs)


def to_poly_right_fractions(s):
    """`scalar_maps.to_poly_right` as the package once built it: the `Fraction` matrix
    c * F for each coefficient c of g, through the validating `PolyRightMap` constructor."""
    return PolyRightMap(s.dim, {a: c * s.F for a, c in s.g.coeffs.items()})


def entry_lines_reference(B, head):
    """`formats.entry_lines` as the package once wrote it: every entry of the `Fraction`
    rows of the tensor's matrix tested in index order, each nonzero one written by `str`."""
    n = B.dim
    return [f"{head} {p // n + 1} {p % n + 1} {k + 1} = {v}"
            for p, row in enumerate(B.matrix.data) for k, v in enumerate(row) if v]


def serialize_algebra_reference(A):
    lines = [f"algebra {A.name}", f"dim {A.dim}", f"kind {A.kind}"]
    return "\n".join(lines + entry_lines_reference(A.product, "c")) + "\n"


def serialize_bilinear_reference(B):
    return "\n".join(["map bilinear", f"dim {B.dim}"] + entry_lines_reference(B, "t")) + "\n"


def _json_text(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def der_output_reference(A, as_json):
    """`biderlie der` stdout as the CLI once wrote it, from the `Fraction` vectors of the
    `Der` basis: each text matrix rebuilt from its vector by `Matrix.from_col_major`."""
    space = derivation_space(A)
    if as_json:
        return _json_text({"command": "der", "algebra": A.name, "dim": A.dim, "kind": A.kind,
                           "derivation_dim": space.dim,
                           "basis_col_major": [[str(x) for x in v] for v in space.vectors]})
    lines = [f"algebra {A.name} (dim {A.dim}, kind {A.kind})", f"dim Der = {space.dim}"]
    for idx, v in enumerate(space.vectors, start=1):
        lines.append(f"basis matrix {idx}:")
        lines += ["  " + " ".join(str(x) for x in row)
                  for row in Matrix.from_col_major(v, A.dim).data]
    return "\n".join(lines) + "\n"


def bider_output_reference(A, side, as_json):
    """`biderlie bider --side <side>` stdout as the CLI once wrote it, from the `Fraction`
    vectors of the space and the `Fraction` rows of each basis tensor."""
    label, solve = {"right": ("right biderivation space (bilinear)", right_bider_bilinear_space),
                    "left": ("left biderivation space (bilinear)", left_bider_bilinear_space),
                    "both": ("biderivation space", bider_space)}[side]
    space = solve(A)
    if as_json:
        return _json_text({"command": "bider", "algebra": A.name, "dim": A.dim, "side": side,
                           "space_dim": space.dim,
                           "basis_flat": [[str(x) for x in v] for v in space.vectors]})
    lines = [f"algebra {A.name} (dim {A.dim}, kind {A.kind})", f"{label}: dim {space.dim}"]
    for idx, t in enumerate(basis_tensors(space, A.dim), start=1):
        lines.append(f"basis tensor {idx}:")
        lines += ["  " + line for line in entry_lines_reference(t, "t")] or ["  (zero)"]
    return "\n".join(lines) + "\n"
