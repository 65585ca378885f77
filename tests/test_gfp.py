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


def test_kernel_identity_empty():
    a = gfp.identity(3)
    assert gfp.kernel_basis(a, P).shape == (0, 3)


def test_kernel_zero_map():
    a = gfp.zeros(2, 3)
    k = gfp.kernel_basis(a, P)
    assert k.shape == (3, 3)
    assert gfp.rank(k, P) == 3


def test_kernel_hand_reduced():
    # [[1,1,0],[0,0,1]]: kernel spanned by (1, p-1, 0)
    a = np.array([[1, 1, 0], [0, 0, 1]], dtype=np.int64)
    k = gfp.kernel_basis(a, P)
    assert k.shape == (1, 3)
    v = k[0]
    assert (gfp.matmul(a, v.reshape(-1, 1), P) == 0).all()
    scale = gfp.inv_mod(int(v[0]), P)
    assert [int(c) * scale % P for c in v] == [1, P - 1, 0]


def test_zero_row_matrix_kernel():
    a = np.zeros((0, 4), dtype=np.int64)
    assert gfp.kernel_basis(a, P).shape == (4, 4)


@pytest.mark.parametrize("p", [P, P2, 97])
def test_rank_nullity_random(p):
    rng = np.random.default_rng(20240811)
    for _ in range(25):
        n, m = rng.integers(1, 12, size=2)
        a = rng.integers(0, p, size=(n, m), dtype=np.int64)
        r = gfp.rank(a, p)
        k = gfp.kernel_basis(a, p)
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


def oracle_kernel_basis(a, p):
    """kernel_basis read off the rref one free column and one pivot at a time."""
    a = np.asarray(a, dtype=np.int64)
    ncols = a.shape[1]
    if a.shape[0] == 0 or ncols == 0:
        return gfp.identity(ncols)
    r, pivots = gfp.rref(a, p)
    free = [c for c in range(ncols) if c not in pivots]
    basis = gfp.zeros(len(free), ncols)
    for k, c in enumerate(free):
        basis[k, c] = 1
        for row, pc in enumerate(pivots):
            basis[k, pc] = (-int(r[row, c])) % p
    return basis


@pytest.mark.parametrize("p", [P, P2, 3])
def test_kernel_basis_matches_oracle(p):
    rng = np.random.default_rng(p)
    for trial in range(120):
        n, m = (int(v) for v in rng.integers(1, 16, size=2))
        if trial % 3 == 0:  # rank at most k < min(n, m)
            k = int(rng.integers(0, min(n, m)))
            a = gfp.matmul(rng.integers(0, p, size=(n, k), dtype=np.int64),
                           rng.integers(0, p, size=(k, m), dtype=np.int64), p)
        else:
            a = rng.integers(0, p, size=(n, m), dtype=np.int64)
        got, want = gfp.kernel_basis(a, p), oracle_kernel_basis(a, p)
        assert got.shape == want.shape == (m - gfp.rank(a, p), m)
        assert got.dtype == np.int64
        assert (got == want).all()
