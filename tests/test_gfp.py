import math
from fractions import Fraction

import numpy as np
import pytest

from hilb3 import gfp
from hilb3.errors import InputError

P = gfp.DEFAULT_PRIME
P2 = gfp.SECOND_PRIME


def test_primes_are_prime():
    assert gfp.is_prime(P)
    assert gfp.is_prime(P2)
    assert not gfp.is_prime(2**31 - 3)
    assert not gfp.is_prime(1)


@pytest.mark.parametrize("p", [P, P2, 97])
def test_inv_mod_inverts(p):
    rng = np.random.default_rng(p)
    for a in [1, 2, p - 1, *map(int, rng.integers(1, p, size=50))]:
        inv = gfp.inv_mod(a, p)
        assert 0 < inv < p and a * inv % p == 1
        assert inv == pow(a, p - 2, p)  # Fermat's inverse, the same residue


@pytest.mark.parametrize("p", [P, P2, 97])
def test_inv_mod_reduces_its_input(p):
    assert gfp.inv_mod(-1, p) == p - 1
    assert gfp.inv_mod(-3, p) * 3 % p == p - 1
    assert gfp.inv_mod(p + 2, p) == gfp.inv_mod(2, p)
    assert gfp.inv_mod(np.int64(5), p) == gfp.inv_mod(5, p)


@pytest.mark.parametrize("p", [P, P2, 97])
def test_inv_mod_of_a_multiple_of_p_is_zero(p):
    # duality.gorenstein_type reads 0 as "p divides the colength"
    assert gfp.inv_mod(0, p) == 0
    assert gfp.inv_mod(p, p) == 0
    assert gfp.inv_mod(-2 * p, p) == 0


def test_kernel_identity_empty():
    a = np.eye(3, dtype=np.int64)
    k, free = gfp.kernel_basis(a, P)
    assert k.shape == (0, 3) and free == []


def test_kernel_zero_map():
    a = gfp.zeros(2, 3)
    k, free = gfp.kernel_basis(a, P)
    assert k.shape == (3, 3) and free == [0, 1, 2]
    assert gfp.rank(k, P) == 3


def test_kernel_hand_reduced():
    # [[1,1,0],[0,0,1]]: kernel spanned by (1, p-1, 0)
    a = np.array([[1, 1, 0], [0, 0, 1]], dtype=np.int64)
    k, free = gfp.kernel_basis(a, P)
    assert k.shape == (1, 3) and free == [1]
    v = k[0]
    assert (gfp.matmul(a, v.reshape(-1, 1), P) == 0).all()
    scale = gfp.inv_mod(int(v[0]), P)
    assert [int(c) * scale % P for c in v] == [1, P - 1, 0]


def test_zero_row_matrix_kernel():
    a = np.zeros((0, 4), dtype=np.int64)
    k, free = gfp.kernel_basis(a, P)
    assert k.shape == (4, 4) and free == [0, 1, 2, 3]


@pytest.mark.parametrize("p", [P, P2, 97])
def test_rank_nullity_random(p):
    rng = np.random.default_rng(20240811)
    for _ in range(25):
        n, m = rng.integers(1, 12, size=2)
        a = rng.integers(0, p, size=(n, m), dtype=np.int64)
        r = gfp.rank(a, p)
        k, _ = gfp.kernel_basis(a, p)
        assert r + k.shape[0] == m
        if k.size:
            assert (gfp.matmul(a, k.T, p) == 0).all()


def test_matmul_matches_python_ints():
    rng = np.random.default_rng(7)
    a = rng.integers(0, P, size=(5, 7), dtype=np.int64)
    b = rng.integers(0, P, size=(7, 4), dtype=np.int64)
    got = gfp.matmul(a, b, P)
    want = [[sum(int(a[i, k]) * int(b[k, j]) for k in range(7)) % P
             for j in range(4)] for i in range(5)]
    assert got.tolist() == want


@pytest.mark.parametrize("p", [P, P2])
def test_matmul_is_exact_at_its_worst_case(p):
    # every entry p - 1 and an inner dimension past 2^16: one sum over all
    # of it overflows int64, so this needs more than one chunk
    n = 70000
    a = np.full((2, n), p - 1, dtype=np.int64)
    b = np.full((n, 3), p - 1, dtype=np.int64)
    want = sum((p - 1) * (p - 1) for _ in range(n)) % p
    assert gfp.matmul(a, b, p).tolist() == [[want] * 3] * 2


# entries near 2^32 make int64 products overflow, so the answers would be wrong
BIG_PRIMES = [gfp.PRIME_LIMIT + 11, 4294967311]


@pytest.mark.parametrize("p", BIG_PRIMES)
def test_matmul_rejects_primes_from_2_31(p):
    a = np.ones((2, 2), dtype=np.int64)
    with pytest.raises(InputError):
        gfp.matmul(a, a, p)


@pytest.mark.parametrize("p", BIG_PRIMES)
def test_rref_rejects_primes_from_2_31(p):
    a = np.ones((2, 2), dtype=np.int64)
    with pytest.raises(InputError):
        gfp.rref(a, p)
    with pytest.raises(InputError):
        gfp.rank(a, p)


@pytest.mark.parametrize("p", BIG_PRIMES)
def test_sparse_rank_rejects_primes_from_2_31(p):
    with pytest.raises(InputError):
        gfp.sparse_rank([0], [0], [1], (1, 1), p)
    with pytest.raises(InputError):
        gfp.sparse_rank([], [], [], (0, 0), p)


def hidden_blocks(rng, p):
    """Blocks of random shape and rank on a diagonal, rows and columns then shuffled."""
    blocks = []
    for _ in range(int(rng.integers(1, 6))):
        n, m = (int(v) for v in rng.integers(1, 6, size=2))
        k = int(rng.integers(0, min(n, m) + 1))
        blocks.append(gfp.matmul(rng.integers(0, p, size=(n, k), dtype=np.int64),
                                 rng.integers(0, p, size=(k, m), dtype=np.int64), p))
    a = gfp.zeros(sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks))
    r = c = 0
    for b in blocks:
        a[r:r + b.shape[0], c:c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return a[rng.permutation(a.shape[0])][:, rng.permutation(a.shape[1])]


def scattered_coo(a, p, rng):
    """COO triples of a, each entry split into two summands plus multiples of p,
    with pairs that cancel mod p added at random positions, in random order."""
    r, c = np.nonzero(a)
    v = a[r, c]
    part = rng.integers(0, p, size=v.size, dtype=np.int64)
    zr = rng.integers(0, a.shape[0], size=4)
    zc = rng.integers(0, a.shape[1], size=4)
    x = rng.integers(1, p, size=4, dtype=np.int64)
    rows = np.concatenate([r, r, zr, zr])
    cols = np.concatenate([c, c, zc, zc])
    vals = np.concatenate([part + p, v - part, x, 2 * p - x])
    order = rng.permutation(rows.size)
    return rows[order], cols[order], vals[order]


@pytest.mark.parametrize("p", [P, P2, 3])
def test_sparse_rank_matches_dense_rank_on_hidden_blocks(p):
    rng = np.random.default_rng(p + 1)
    for _ in range(80):
        a = hidden_blocks(rng, p)
        assert gfp.sparse_rank(*scattered_coo(a, p, rng), a.shape, p) == gfp.rank(a, p)


@pytest.mark.parametrize("p", [P, 3])
def test_sparse_rank_of_zero_matrices(p):
    assert gfp.sparse_rank([], [], [], (0, 0), p) == 0
    assert gfp.sparse_rank([], [], [], (3, 4), p) == 0
    assert gfp.sparse_rank([0, 2], [1, 3], [0, p], (3, 4), p) == 0
    # every entry cancels against a duplicate
    assert gfp.sparse_rank([1, 1, 2, 2, 2], [0, 0, 3, 3, 3], [5, p - 5, 1, 1, -2], (3, 4), p) == 0


@pytest.mark.parametrize("p", [P, 3])
def test_sparse_rank_single_row_and_column_components(p):
    # row 0 meets columns 0-2 only, column 3 meets rows 1-3 only, and (4, 4) is alone
    rows = [0, 0, 0, 1, 2, 3, 4]
    cols = [0, 1, 2, 3, 3, 3, 4]
    vals = [1, 2, 1, 1, p - 1, 2, 1]
    a = gfp.zeros(5, 5)
    a[rows, cols] = vals
    assert gfp.rank(a, p) == 3
    assert gfp.sparse_rank(rows, cols, vals, (5, 5), p) == 3


def dense_from_coo(rows, cols, vals, shape, p):
    a = gfp.zeros(*shape)
    np.add.at(a, (np.asarray(rows), np.asarray(cols)), np.mod(vals, p))
    return a % p


def peel_cases(p, rng):
    """(name, rows, cols, vals, shape): COO inputs shaped for singleton peeling."""
    n = 12
    idx = np.arange(n)
    # upper bidiagonal: column k is a singleton only once row k - 1 is gone
    yield ("upper chain", np.r_[idx, idx[:-1]], np.r_[idx, idx[1:]],
           rng.integers(1, p, size=2 * n - 1), (n, n))
    # lower bidiagonal with one more row: no singleton column, so the row
    # step peels column k once column k - 1 is gone
    yield ("lower chain", np.r_[idx, idx + 1], np.r_[idx, idx],
           rng.integers(1, p, size=2 * n), (n + 1, n))
    # columns 0 and 1 are singletons on row 0: one pivot, not two
    yield "two singletons on one row", [0, 0, 0, 1], [0, 1, 2, 2], [1, 2, 1, 1], (2, 3)
    # row 0 is a singleton and its column 0 has two more entries; every
    # column has at least two, so the row step runs first
    yield "singleton row", [0, 1, 1, 2, 2], [0, 0, 1, 0, 1], [1, 1, 1, 1, 2], (3, 2)
    perm = rng.permutation(n)
    yield "permutation", idx, perm, rng.integers(1, p, size=n), (n, n)
    # (1, 0) and (2, 2) cancel: column 0 is left a singleton, and row and
    # column 2 must not count as a pivot
    yield ("cancelled duplicates", [0, 0, 1, 1, 1, 2, 2], [0, 1, 1, 0, 0, 2, 2],
           [1, 1, 1, 4, p - 4, 5, 2 * p - 5], (3, 3))
    for density in (0.05, 0.1, 0.2, 0.3):
        for _ in range(10):
            shape = tuple(int(v) for v in rng.integers(1, 25, size=2))
            a = np.where(rng.random(shape) < density,
                         rng.integers(0, p, size=shape, dtype=np.int64), 0)
            yield (f"random {density}", *scattered_coo(a, p, rng), shape)


@pytest.mark.parametrize("p", [3, P, P2])
def test_sparse_rank_peeling_matches_dense_oracle(p):
    rng = np.random.default_rng(p + 3)
    for name, rows, cols, vals, shape in peel_cases(p, rng):
        want = len(oracle_rref(dense_from_coo(rows, cols, vals, shape, p), p)[1])
        assert gfp.sparse_rank(rows, cols, vals, shape, p) == want, name


@pytest.mark.parametrize("p", [3, P])
def test_chains_and_permutations_peel_without_elimination(p, monkeypatch):
    calls = []
    monkeypatch.setattr(gfp, "_eliminate", lambda a, q: calls.append(a.shape))
    for name, rows, cols, vals, shape in peel_cases(p, np.random.default_rng(p)):
        if name in ("upper chain", "lower chain", "permutation"):
            assert gfp.sparse_rank(rows, cols, vals, shape, p) == min(shape), name
    assert calls == []


def oracle_sylvester(a, b, unknown, nunknowns, p):
    """Dense matrix of X -> A X - X B on row-major vec(X): kron(A, I) - kron(I, B^T),
    with the columns of entries sharing an unknown summed and fixed ones dropped."""
    d = len(unknown)
    eye = np.eye(d, dtype=np.int64)
    full = (np.kron(a, eye) - np.kron(eye, b.T)) % p
    merged = gfp.zeros(d * d, nunknowns)
    for pos, u in enumerate(unknown.ravel()):
        if u >= 0:
            merged[:, u] = (merged[:, u] + full[:, pos]) % p
    return merged


def sylvester_inputs(p, rng):
    """(A, B, unknown, number of unknowns): sparse and dense A and B, a zero
    one, and numberings with fixed zeros and shared unknowns."""
    for d in range(1, 6):
        for density in (0.3, 1.0):
            a, b = (np.where(rng.random((d, d)) < density,
                             rng.integers(0, p, size=(d, d), dtype=np.int64), 0) for _ in range(2))
            n = int(rng.integers(1, d * d + 1))
            yield a, b, rng.integers(-2, n, size=(d, d)), n  # fixed and shared
            yield a, b, rng.permutation(d * d).reshape(d, d), d * d  # one unknown each
            yield a, gfp.zeros(d, d), rng.integers(-1, n, size=(d, d)), n
            yield a, a.T.copy(), np.full((d, d), -1), 1  # nothing unknown


@pytest.mark.parametrize("p", [P, P2, 3])
def test_sylvester_entries_match_kronecker_oracle(p):
    rng = np.random.default_rng(p + 7)
    inputs = list(sylvester_inputs(p, rng))
    for a, b, unknown, n in inputs:
        d = len(unknown)
        rows, cols, vals = gfp.sylvester_entries(a, b, unknown)
        assert ((0 <= rows) & (rows < d * d) & (0 <= cols) & (cols < n)).all()
        got = gfp.zeros(d * d, n)
        np.add.at(got, (rows, cols), np.mod(vals, p))
        assert (got % p == oracle_sylvester(a, b, unknown, n, p)).all()
    # the pairs of each size stacked, under the first one's numbering: pair
    # v's block starts at row v d^2
    for d in range(1, 6):
        pairs = [(a, b) for a, b, _, _ in inputs if len(a) == d]
        unknown, n = next((u, n) for a, _, u, n in inputs if len(a) == d)
        a, b = (np.stack(x) for x in zip(*pairs))
        rows, cols, vals = gfp.sylvester_entries(a, b, unknown)
        got = gfp.zeros(len(pairs) * d * d, n)
        np.add.at(got, (rows, cols), np.mod(vals, p))
        want = np.vstack([oracle_sylvester(x, y, unknown, n, p) for x, y in pairs])
        assert (got % p == want).all()


def oracle_kernel_basis(a, p):
    """kernel_basis read off the full-width rref one free column and one
    pivot at a time, with the free columns."""
    a = np.asarray(a, dtype=np.int64)
    ncols = a.shape[1]
    if a.shape[0] == 0 or ncols == 0:
        return np.eye(ncols, dtype=np.int64), list(range(ncols))
    r, pivots = oracle_rref(a, p)
    free = [c for c in range(ncols) if c not in pivots]
    basis = gfp.zeros(len(free), ncols)
    for k, c in enumerate(free):
        basis[k, c] = 1
        for row, pc in enumerate(pivots):
            basis[k, pc] = (-int(r[row, c])) % p
    return basis, free


@pytest.mark.parametrize("p", [P, P2, 3])
def test_kernel_basis_matches_oracle(p):
    rng = np.random.default_rng(p)
    inputs = []
    for trial in range(120):
        n, m = (int(v) for v in rng.integers(1, 16, size=2))
        if trial % 3 == 0:  # rank at most k < min(n, m)
            k = int(rng.integers(0, min(n, m)))
            inputs.append(gfp.matmul(rng.integers(0, p, size=(n, k), dtype=np.int64),
                                     rng.integers(0, p, size=(k, m), dtype=np.int64), p))
        else:
            inputs.append(rng.integers(0, p, size=(n, m), dtype=np.int64))
    for a in inputs + [a for _ in range(4) for a in rref_inputs(p, rng)]:
        (got, got_free), (want, want_free) = gfp.kernel_basis(a, p), oracle_kernel_basis(a, p)
        assert got.shape == want.shape == (a.shape[1] - gfp.rank(a, p), a.shape[1])
        assert got.dtype == np.int64
        assert (got == want).all()
        assert got_free == want_free


def oracle_rref(a, p):
    """rref updating every column at each pivot: the full-width loop."""
    a = np.mod(np.array(a, dtype=np.int64, copy=True), p)
    nrows, ncols = a.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r] = a[r] * gfp.inv_mod(int(a[r, c]), p) % p
        rest = np.nonzero(a[:, c])[0]
        rest = rest[rest != r]
        if rest.size:
            a[rest] = (a[rest] - np.outer(a[rest, c], a[r])) % p
        pivots.append(c)
        r += 1
    return a, pivots


def rref_inputs(p, rng):
    """Tall, wide, rank-deficient (also with zero columns) and zero matrices,
    and sparse ones with rows of one entry for rref to peel."""
    out = [gfp.zeros(0, 3), gfp.zeros(3, 0), gfp.zeros(4, 5)]
    for n, m in ((20, 6), (6, 20), (12, 12), (1, 9), (9, 1)):
        out.append(rng.integers(0, p, size=(n, m), dtype=np.int64))
        k = int(rng.integers(1, min(n, m) + 1))
        low = gfp.matmul(rng.integers(0, p, size=(n, k), dtype=np.int64),
                         rng.integers(0, p, size=(k, m), dtype=np.int64), p)
        low[:, rng.integers(0, m, size=2)] = 0
        out.append(low)
    # upper bidiagonal: only the last row is a singleton, and each peel
    # leaves the row above it one; its rows shuffled peel the same way
    n = 9
    chain = gfp.zeros(n, n + 2)
    chain[np.arange(n), np.arange(n)] = rng.integers(1, p, size=n)
    chain[np.arange(n - 1), np.arange(1, n)] = rng.integers(1, p, size=n - 1)
    out += [chain, chain[rng.permutation(n)]]
    # two singleton rows on column 2, with different values, among dense rows
    twins = rng.integers(0, p, size=(5, 6), dtype=np.int64)
    twins[1], twins[3] = 0, 0
    twins[1, 2], twins[3, 2] = 1, p - 1
    out.append(twins)
    for n, m in ((8, 5), (5, 8), (12, 12)):
        # singleton rows on random columns beside dense rows, and zero rows
        # written as multiples of p
        a = rng.integers(0, p, size=(n, m), dtype=np.int64)
        for i in rng.choice(n, size=n // 2, replace=False):
            a[i] = 0
            a[i, rng.integers(0, m)] = rng.integers(1, p)
        a[rng.integers(0, n)] = p * rng.integers(0, 3, size=m)
        out.append(a)
        # sparse: each entry nonzero with probability 0.2
        out.append(np.where(rng.random((n, m)) < 0.2,
                            rng.integers(1, p, size=(n, m), dtype=np.int64), 0))
    return out


@pytest.mark.parametrize("p", [P, P2, 3])
def test_rref_matches_full_width_oracle(p):
    rng = np.random.default_rng(p + 5)
    for _ in range(8):
        for a in rref_inputs(p, rng):
            got, got_pivots = gfp.rref(a, p)
            want, want_pivots = oracle_rref(a, p)
            assert got_pivots == want_pivots
            assert got.shape == want.shape and (got == want).all()


@pytest.mark.parametrize("p", [101, 103, 3, 5])
def test_rational_reconstruction_matches_search(p):
    # every residue against the one fraction a/b with |a|, |b| <= sqrt(p/2)
    bound = math.isqrt(p // 2)
    found = {}
    for b in range(1, bound + 1):
        for a in range(-bound, bound + 1):
            if math.gcd(a, b) == 1:
                assert found.setdefault(a * gfp.inv_mod(b, p) % p, (a, b)) == (a, b)  # unique
    for c in range(p):
        assert gfp.rational_reconstruction(c, p) == found.get(c)


@pytest.mark.parametrize("p", [P, P2])
def test_rational_reconstruction_of_small_fractions(p):
    rng = np.random.default_rng(p)
    bound = math.isqrt(p // 2)
    nums = rng.integers(-bound, bound + 1, size=200)
    dens = rng.integers(1, bound + 1, size=200)
    for a, b in zip(nums, dens):
        q = Fraction(int(a), int(b))
        c = q.numerator * gfp.inv_mod(q.denominator, p) % p
        assert gfp.rational_reconstruction(c, p) == (q.numerator, q.denominator)
    assert gfp.rational_reconstruction(189949131, P) is None
