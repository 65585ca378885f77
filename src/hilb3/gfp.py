"""Exact dense linear algebra over a prime field F_p.

Matrices are numpy ``int64`` arrays with entries reduced into ``[0, p)``.
With p < 2^31 every intermediate product fits in an int64, so plain
Gaussian elimination with ``% p`` after each row operation is exact;
``matmul`` and ``rref`` raise ``InputError`` for any larger p.
Pivoting always takes the first row with a nonzero entry, which makes
every result deterministic.

The default prime is 2^31 - 1.  Characteristic-zero statements are only
certified numerically by agreement over two large primes, so a second
prime (2^31 - 19) is provided for cross-checks.
"""
from __future__ import annotations

import numpy as np

from .errors import InputError

DEFAULT_PRIME = 2**31 - 1
SECOND_PRIME = 2**31 - 19  # 2147483629, the largest prime below 2^31 - 1
PRIME_LIMIT = 2**31  # every prime must lie below this for int64 exactness


def require_exact(p: int) -> None:
    """Raise InputError unless int64 arithmetic mod p is exact (p < 2^31)."""
    if int(p) >= PRIME_LIMIT:
        raise InputError(f"prime {p} is not below 2^31, where int64 "
                         "arithmetic mod p stops being exact")


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 3.3e24."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def inv_mod(a: int, p: int) -> int:
    return pow(int(a) % p, p - 2, p)


def zeros(nrows: int, ncols: int) -> np.ndarray:
    return np.zeros((nrows, ncols), dtype=np.int64)


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact product mod p, reducing after every slice of two inner indices.

    No int64 sum overflows: a reduced entry plus two products of residues
    is at most (p - 1) + 2 (p - 1)^2 < 2^63 - 1 for every p < 2^31.
    """
    require_exact(p)
    a = np.mod(a, p)
    b = np.mod(b, p)
    n = a.shape[1]
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    step = 2
    for k in range(0, n, step):
        out = (out + a[:, k:k + step] @ b[k:k + step, :]) % p
    return out


def rref(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    require_exact(p)
    a = np.mod(np.array(a, dtype=np.int64, copy=True), p)
    nrows, ncols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        col = a[r:, c]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r] = a[r] * inv_mod(int(a[r, c]), p) % p
        rest = np.nonzero(a[:, c])[0]
        rest = rest[rest != r]
        if rest.size:
            a[rest] = (a[rest] - np.outer(a[rest, c], a[r])) % p
        pivots.append(c)
        r += 1
    return a, pivots


def rank(a: np.ndarray, p: int) -> int:
    if a.size == 0:
        return 0
    return len(rref(a, p)[1])


def kernel_basis(a: np.ndarray, p: int) -> np.ndarray:
    """Basis of the right null space {v : a v = 0}, one vector per row.

    The number of rows returned is ncols - rank(a).  A 0 x n matrix has
    kernel all of F_p^n.
    """
    a = np.asarray(a, dtype=np.int64)
    ncols = a.shape[1]
    if a.shape[0] == 0 or ncols == 0:
        return identity(ncols)
    r, pivots = rref(a, p)
    free = np.setdiff1d(np.arange(ncols), pivots)
    basis = zeros(len(free), ncols)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = (-r[:len(pivots)][:, free]).T % p
    return basis

