"""Per-algebra verification suites behind the `verify` CLI command.

Each suite re-derives one family of identities the toolkit is built on and
returns deterministic CheckResults: the declared kind, derivation algebra
facts, the biderivation space structure, symmetric/skew interplay, the
bracket Lie-algebra laws, and the scalar-times-derivation family. Runs are
seeded and reproducible. A sampled check stacks its samples as they are
drawn, in integers, and decides them all in one Leibniz scan per run of
`report.SCAN_CHUNK` samples; its witness is the first failing sample.
"""

from __future__ import annotations

import itertools
import marshal
import os
import random
import signal
import threading
from fractions import Fraction

from .algebras import Algebra, bider_scan, check_kind, failing_stacks
from .bilinear import BilinearTensor, half_decomposition, random_tensor, skew_symmetrize, symmetrize
from .biderivations import (bider_space, left_bider_bilinear_space, right_bider_bilinear_space,
                            spaces_intersection)
from .brackets import (random_multi_index, random_ratios, verify_lie_algebra,
                       verify_transpose_interplay)
from .derivations import derivation_matrices, derivation_space, is_derivation
from .linalg import (Matrix, SubspaceBasis, _integers, add_product, mat_commutator, random_below,
                     solve_over)
from .report import CheckResult, check, sample_chunks, skip, witness_from_triple
from .scalar_maps import (ScalarPoly, ScalarTimesDerivation, bracket_matches_poly_form,
                          exp_curve_check, power_leibniz_witness, to_poly_right)


def kind_suite(A: Algebra) -> list[CheckResult]:
    rep = check_kind(A)
    witness = None if rep.ok else witness_from_triple(rep.witness)
    return [check("kind", f"declared-kind-{rep.kind}", rep.ok, witness)]


def derivation_suite(A: Algebra) -> list[CheckResult]:
    """The solved `Der` basis satisfies the rule, and `Der` is a Lie algebra.

    Each D_i is scaled once to the integer matrix d_i D_i, which leaves membership
    and the vanishing of the Jacobi sums unchanged; the Jacobi sum of a triple
    adds three integer commutators into one list, the same three as its rotations.
    """
    suite = "derivations"
    n = A.dim
    ders = derivation_matrices(A)
    space = derivation_space(A)
    basis_ok = all(is_derivation(A, d) for d in ders)
    scaled = [Matrix._of(n, n, 1, d.ints) for d in ders]
    comms = {(i, j): mat_commutator(a, b)
             for i, a in enumerate(scaled) for j, b in enumerate(scaled)}
    # each commutator's column-major integers, a row of one residual against Der
    closure_ok = space.residual(Matrix._of(len(comms), n * n, 1, [
        x for c in comms.values() for x in c.transpose().ints])).is_zero()
    rows, crows = [d.sparse for d in scaled], {ij: c.sparse for ij, c in comms.items()}

    def jacobi_sum(i, j, k) -> list[int]:
        out = [0] * (n * n)
        for d, c in ((rows[i], crows[j, k]), (rows[j], crows[k, i]), (rows[k], crows[i, j])):
            add_product(out, d, c, n)
            add_product(out, c, d, n, -1)
        return out

    jacobi_ok = not any(any(jacobi_sum(*t)) for t in itertools.product(range(len(ders)), repeat=3)
                        if t <= t[1:] + t[:1] and t <= t[2:] + t[:2])  # least rotation
    return [
        check(suite, "basis-satisfies-derivation-rule", basis_ok),
        check(suite, "commutator-closure", closure_ok),
        check(suite, "commutator-jacobi", jacobi_ok),
    ]


def space_suite(A: Algebra) -> list[CheckResult]:
    suite = "spaces"
    n = A.dim
    der = derivation_space(A)
    right = right_bider_bilinear_space(A)
    left = left_bider_bilinear_space(A)
    both = bider_space(A)

    def factor_ok(space, side: str) -> bool:
        """space = Der (x) Q^n: it has that dimension, and the column maps x -> B(x, e_j) of
        its basis tensors (of their transposes on the left side) all lie in Der, one
        residual. Column map j is column-major B(e_i, e_j)_k at i n + k."""
        if space.dim != n * der.dim:
            return False
        at = [((i * n + j) if side == "right" else (j * n + i)) * n + k
              for j in range(n) for i in range(n) for k in range(n)]
        ints = space.basis.ints
        maps = [ints[t + p] for t in range(0, len(ints), n ** 3) for p in at]
        return der.residual(Matrix._of(space.dim * n, n * n, space.basis.den, maps)).is_zero()

    return [
        check(suite, "right-space-is-derivation-valued", factor_ok(right, "right")),
        check(suite, "left-space-is-derivation-valued", factor_ok(left, "left")),
        check(suite, "right-space-members-pass-predicate",
              not bider_scan(A, right.basis.ints, "right")),
        check(suite, "left-space-members-pass-predicate",
              not bider_scan(A, left.basis.ints, "left")),
        check(suite, "biderivation-space-members-pass-both", not any(
            bider_scan(A, both.basis.ints, side) for side in ("right", "left"))),
        check(suite, "biderivation-space-is-intersection", both == spaces_intersection(A)),
    ]


def _lift(rng: random.Random, basis: Matrix) -> tuple[int, list[int]]:
    """A random member of the span of basis's rows, in integers (den, entries): the row
    of its drawn coordinates times the basis, one `add_product`."""
    den, coords = _integers(random_ratios(rng, basis.rows))
    out = [0] * basis.cols
    add_product(out, [[(u, x) for u, x in enumerate(coords) if x]], basis.sparse, basis.cols)
    return den * basis.den, out


def _random_member(rng: random.Random, space: SubspaceBasis, n: int) -> BilinearTensor:
    """A random member of a tensor space, its lift read as an n^2 x n tensor."""
    return BilinearTensor._of(n, Matrix._of(n * n, n, *_lift(rng, space.basis)))


def _transpose_part(right: SubspaceBasis, n: int, sign: int) -> SubspaceBasis:
    """Canonical basis of the members B of `right` with B^t = sign * B, sign = 1
    or -1: one row B_ijk - sign * B_jik per i >= j and k, solved over right."""
    ints, size = right.basis.ints, n ** 3
    pairs = [((i * n + j) * n + k, (j * n + i) * n + k)
             for i in range(n) for j in range(i + 1) for k in range(n)]
    return solve_over(right, ([x - sign * y for x, y in zip(ints[p::size], ints[q::size])]
                              for p, q in pairs))


def symmetry_suite(A: Algebra, samples: int = 25, seed: int = 0) -> list[CheckResult]:
    """Symmetrization identities, on the spaces where each one actually lives.

    The doubles B +/- B^t of a two-sided biderivation are biderivations;
    for a merely right biderivation the doubles can leave the right space,
    so the one-sided statement is the conditional: a symmetric or skew
    tensor that passes the right predicate also passes the left one.
    """
    suite = "symmetric-parts"
    chunks = sample_chunks(samples, "samples")
    n = A.dim
    rng = random.Random(seed)
    decomposition_ok = True
    twice_transpose_ok = True
    for _ in range(samples):
        B = random_tensor(rng, n)
        sym, skw = half_decomposition(B)
        if not (sym + skw == B and (2 * sym).is_symmetric() and (2 * skw).is_skew()):
            decomposition_ok = False
        if symmetrize(B) - skew_symmetrize(B) != 2 * B.transpose():
            twice_transpose_ok = False

    def failing(tensors, side) -> set[int]:
        return set(bider_scan(A, [x for t in tensors for x in t.matrix.ints], side))

    def doubles(space) -> list[BilinearTensor]:
        B = _random_member(rng, space, n)
        return [symmetrize(B), skew_symmetrize(B)]

    both = bider_space(A)
    doubles_are_biders = True
    for chunk in chunks:
        ds = [D for _ in chunk for D in doubles(both)]
        if not all(s.is_symmetric() and k.is_skew() for s, k in zip(ds[::2], ds[1::2])) or (
                failing(ds, "right") | failing(ds, "left")):
            doubles_are_biders = False
    right = right_bider_bilinear_space(A)
    sym_space = _transpose_part(right, n, 1)
    skew_space = _transpose_part(right, n, -1)
    onesided_ok = not bider_scan(A, sym_space.basis.ints + skew_space.basis.ints, "left")
    for chunk in chunks:
        members, ds = [], []
        for _ in chunk:
            members += [_random_member(rng, space, n) for space in (sym_space, skew_space)]
            ds += doubles(right)  # the conditional form on doubles of arbitrary right members
        if failing(members, "left") or failing(ds, "left") - failing(ds, "right"):
            onesided_ok = False
    closure_ok = not any(failing([_random_member(rng, right, n) for _ in chunk], "right")
                         for chunk in chunks)
    return [
        check(suite, "half-sum-decomposition", decomposition_ok),
        check(suite, "sym-minus-skew-is-twice-transpose", twice_transpose_ok),
        check(suite, "doubles-of-biderivations-are-biderivations", doubles_are_biders),
        check(suite, "symmetric-or-skew-right-is-left", onesided_ok),
        check(suite, "right-space-closed-under-combinations", closure_ok),
    ]


def _random_scalar_poly(rng: random.Random, n: int, max_degree: int = 2) -> ScalarPoly:
    """1 to 4 terms c y^a, each c drawn as `random_ratio` draws it, p/q with p in -2..2
    and q in 1..2, and summed per monomial in halves: 2c = p * (2 // q)."""
    halves = {}
    [terms] = random_below(rng, (4,))
    for _ in range(terms + 1):
        alpha = random_multi_index(rng, n, max_degree)
        p, q = random_below(rng, (5, 2))
        halves[alpha] = halves.get(alpha, 0) + (p - 2) * (2 - q)
    return ScalarPoly._of(n, {a: Fraction(h, 2) for a, h in halves.items() if h})


def _random_matrix(rng: random.Random, n: int) -> Matrix:
    return Matrix._of(n, n, 1, [x - 2 for x in random_below(rng, (5,) * (n * n))])


def scalar_suite(A: Algebra, seed: int = 0, sweep_samples: int = 100) -> list[CheckResult]:
    suite = "scalar-class"
    chunks = sample_chunks(sweep_samples, "sweep_samples")
    n = A.dim
    rng = random.Random(seed)
    # Der's canonical basis, each column-major row read back row-major: a lift over it is F
    der, size = derivation_space(A).basis, n * n
    at = [c % n * n + c // n for c in range(size)]
    der = Matrix._of(der.rows, size, der.den,
                     [der.ints[u + k] for u in range(0, der.rows * size, size) for k in at])
    equivalence_ok = True
    non_derivation_hits = 0
    for chunk in chunks:
        Fs, maps = [], []
        for i in chunk:
            g = _random_scalar_poly(rng, n)
            while g.is_zero():
                g = _random_scalar_poly(rng, n)
            F = (Matrix._of(n, n, *_lift(rng, der)) if i % 2 == 0 and der.rows
                 else _random_matrix(rng, n))
            Fs.append(F.ints)
            blocks = to_poly_right(ScalarTimesDerivation(g, F)).blocks.values()
            maps.append(list(itertools.chain.from_iterable(blocks)))
        bad, m = failing_stacks(A, Fs + maps), len(Fs)
        non_derivation_hits += sum(b < m for b in bad)
        if {b for b in bad if b < m} != {b - m for b in bad if b >= m}:
            equivalence_ok = False
    bracket_ok = True
    for _ in range(25):
        s1 = ScalarTimesDerivation(_random_scalar_poly(rng, n), _random_matrix(rng, n))
        s2 = ScalarTimesDerivation(_random_scalar_poly(rng, n), _random_matrix(rng, n))
        if not bracket_matches_poly_form(s1, s2):
            bracket_ok = False
    results = [
        check(suite, "derivation-equivalence-sweep", equivalence_ok,
              None if equivalence_ok else {"non_derivation_samples": non_derivation_hits}),
        check(suite, "bracket-stays-in-family", bracket_ok),
    ]
    if A.kind != "lie":
        results.append(skip(suite, "one-parameter-curve", "needs a Lie algebra"))
        return results
    ders = derivation_matrices(A)
    if not ders:
        results.append(skip(suite, "one-parameter-curve", "derivation algebra is trivial"))
        return results
    F = next((d for d in ders if not (d * d * d).is_zero()), ders[0])
    g = ScalarPoly.coordinate(n, 1 if n > 1 else 0)
    rep = exp_curve_check(A, ScalarTimesDerivation(g, F))
    bad = power_leibniz_witness(A, F)
    witness = {} if rep.ok else {
        "errors": [[f"{h:.0e}", f"{e:.3e}"] for h, e in rep.errors],
        "orders": [f"{p:.2f}" for p in rep.orders],
    }
    if bad:
        witness.update(k=bad[0], pair=[bad[1] + 1, bad[2] + 1])
    results.append(check(suite, "one-parameter-curve", rep.ok and bad is None, witness))
    return results


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the OS reports one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _drain(queue: int, suites, done: dict, catch=Exception) -> None:
    """Run the suites whose indices `queue` yields, one byte each, until it is empty.

    A suite's exception is kept as its result. One that is not an `Exception`
    (a `KeyboardInterrupt`) is kept too when `catch` allows it, and stops the drain.
    """
    while index := os.read(queue, 1):
        i = index[0]
        try:
            done[i] = suites[i]()
        except catch as exc:
            done[i] = exc
            if not isinstance(exc, Exception):
                return


def _worker(queue: int, out: int, suites) -> None:
    """A forked worker: drain the queue, send `{index: results or exception}`, exit.

    Results go as marshalled tuples, so that no pickle import weighs on every
    run; an exception, which marshal cannot write, goes pickled.
    """
    code = 1
    try:
        done: dict = {}
        _drain(queue, suites, done, BaseException)
        for i, r in done.items():
            if isinstance(r, BaseException):
                import pickle
                done[i] = pickle.dumps(r)
            else:
                done[i] = [(c.suite, c.identity, c.status, c.witness) for c in r]
        with open(out, "wb") as f:
            marshal.dump(done, f)
        code = 0
    finally:
        os._exit(code)


def _run_suites(suites, order: bytes) -> dict:
    """`{index: results or exception}` for every suite, run by this process and by
    min(usable CPUs, suites) - 1 forked workers, which take the indices of `order`
    from one pipe as each gets free. With one CPU, no `os.fork`, other threads in
    this process or a failed fork, this process runs them all in turn."""
    queue, feed = os.pipe()
    os.write(feed, order)
    os.close(feed)
    workers: dict[int, int] = {}  # pid -> read end of its result pipe, until reaped
    fds = [queue]
    done: dict = {}
    try:
        if hasattr(os, "fork") and threading.active_count() == 1:
            for _ in range(min(usable_cpus(), len(order)) - 1):
                r, w = os.pipe()
                fds.append(r)
                try:
                    pid = os.fork()
                except OSError:
                    os.close(w)
                    break
                if pid == 0:
                    _worker(queue, w, suites)
                os.close(w)
                workers[pid] = r
        _drain(queue, suites, done)
        for pid, r in list(workers.items()):
            with open(r, "rb", closefd=False) as f:
                data = f.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del workers[pid]
            try:
                sent = marshal.loads(data)
            except Exception:
                how = f"killed by signal {-status}" if status < 0 else f"exit status {status}"
                raise RuntimeError(f"verify worker {pid} ended without sending its suite "
                                   f"results ({how})") from None
            for i, got in sent.items():
                if isinstance(got, bytes):
                    import pickle
                    done[i] = pickle.loads(got)
                else:
                    done[i] = [CheckResult(*c) for c in got]
    except BaseException:
        for pid in workers:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid in workers:
            os.waitpid(pid, 0)
        for fd in fds:
            os.close(fd)
    return done


def run_all(A: Algebra, seed: int = 0, samples: int = 25) -> list[CheckResult]:
    """Every verification suite for one algebra, in a fixed order.

    A failed kind check short-circuits the rest: the solvers are only
    specified for algebras whose declared identity actually holds. The other
    suites share no state, so they run in parallel (`_run_suites`), costliest
    first. If suites raised, the exception of the first in the fixed order
    is raised here.
    """
    results = list(kind_suite(A))
    if any(r.status == "fail" for r in results):
        results.append(skip("verify", "remaining-suites",
                            "declared kind does not hold; downstream suites need it"))
        return results
    # looked up when each runs, so patched suites and functions reach forked workers too
    suites = (
        lambda: derivation_suite(A),
        lambda: space_suite(A),
        lambda: symmetry_suite(A, samples=samples, seed=seed),
        lambda: verify_lie_algebra(A, "right", samples=samples, seed=seed),
        lambda: verify_lie_algebra(A, "left", samples=samples, seed=seed),
        lambda: verify_transpose_interplay(A),
        lambda: scalar_suite(A, seed=seed),
    )
    # transpose, the Lie laws, symmetric parts, scalar class, spaces, Der
    done = _run_suites(suites, bytes((5, 3, 4, 2, 6, 1, 0)))
    for i in sorted(done):  # a worker stopped by an interrupt leaves suites unrun
        if isinstance(done[i], BaseException):
            raise done[i]
    for i in range(len(suites)):
        results += done[i]
    return results
