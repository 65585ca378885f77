"""Exact dense linear algebra over a prime field F_p.

Matrices are numpy ``int64`` arrays with entries reduced into ``[0, p)``.
Each function here imports numpy in its own body, so importing the
package, or running only its combinatorial code, never loads numpy.
With p < 2^31 every intermediate product fits in an int64, so plain
Gaussian elimination with ``% p`` after each row operation is exact;
``matmul`` and ``rref`` raise ``InputError`` for any larger p.
``matmul`` splits its right factor into 16-bit limbs so that one product
per limb, reduced once, covers up to 2^15 inner indices (the delayed
reduction of FFLAS/FFPACK: Dumas, Giorgi and Pernet, ACM TOMS 35(3),
2008).  ``rref`` first peels rows with one nonzero entry, which are rows
of the reduced form as they stand; the rest go through a dense loop.
Pivoting always takes the first row with a nonzero entry, which makes
every result deterministic.  ``sparse_rank`` ranks a matrix given by its
nonzero entries.  It first peels off rows and columns with one entry,
exactly (the first step of structured Gaussian elimination: LaMacchia and
Odlyzko, CRYPTO '90, LNCS 537), then ranks the rest block by block: the
connected components of its row-column graph (the coarse
Dulmage-Mendelsohn decomposition) each go through the dense loop.
``sylvester_entries`` gives the entries of the Sylvester map
X -> A X - X B on a patterned X, for one pair (A, B) or a stack of
pairs in one pass (the linearised commutators of the
border-basis tangent space and the intertwiners behind the bicanonical
degree), ``dense_entries`` those of a dense matrix (each M_e of the
tangent space's syzygy matrix sum_e C_e (x) M_e).

The default prime is 2^31 - 1.  Characteristic-zero statements are only
certified numerically by agreement over two large primes, so a second
prime (2^31 - 19) is provided for cross-checks; rational_reconstruction
reads a residue as the small fraction it stands for, so answers with
rational coefficients can be compared across the two primes.
"""
from __future__ import annotations

import math

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
    """The inverse of a mod p, by the extended Euclidean algorithm
    (pow(a, -1, p)), and 0 when p divides a: duality.gorenstein_type
    relies on that 0 to reject a colength that p divides."""
    a = int(a) % p
    return pow(a, -1, p) if a else 0


def rational_reconstruction(c: int, p: int) -> tuple[int, int] | None:
    """The fraction a/b congruent to c mod p with |a|, |b| <= sqrt(p/2), as
    (a, b) in lowest terms with b > 0, or None when there is none.

    At most one such fraction exists, so a rational answer reads the same
    at every prime where it is found; the extended Euclidean algorithm on
    (p, c) stops at it (Wang, Guy and Davenport, SIGSAM Bull. 16(2), 1982).
    """
    bound = math.isqrt(p // 2)
    r0, r1, s0, s1 = p, int(c) % p, 0, 1  # r_i = s_i c (mod p) throughout
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if abs(s1) > bound or math.gcd(r1, s1) != 1:
        return None
    return (r1, s1) if s1 > 0 else (-r1, -s1)


def zeros(nrows: int, ncols: int) -> np.ndarray:
    import numpy as np

    return np.zeros((nrows, ncols), dtype=np.int64)


def matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact product mod p, by 16-bit limbs of the right factor.

    With b = 2^16 hi + lo, a b = 2^16 (a hi mod p) + a lo.  Over an inner
    chunk of at most 2^15 indices each of a hi and a lo is a sum of
    products of a residue (< 2^31) and a limb (< 2^16), so it stays below
    2^62; with 2^16 (a hi mod p) < 2^47 and the running total < p added,
    no int64 sum overflows, for every p < 2^31 and every size.
    """
    import numpy as np

    require_exact(p)
    a = np.mod(a, p)
    b = np.mod(b, p)
    hi, lo = b >> 16, b & 0xFFFF
    out = zeros(a.shape[0], b.shape[1])
    step = 2**15
    for k in range(0, a.shape[1], step):
        x = a[:, k:k + step]
        out = (out + ((x @ hi[k:k + step] % p) << 16) + x @ lo[k:k + step]) % p
    return out


def rref(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and the list of pivot columns.

    Rows with one nonzero entry are peeled first, exactly.  If row r's only
    entry is in column c, then e_c lies in the row space, so c is a pivot
    column and e_c is its row of the reduced form (a row-space vector is
    the sum of the reduced rows weighted by its pivot entries).  Zeroing
    column c in every other row keeps the row space, which is then
    <e_c> + the row space of the other rows, all zero at c; peeling repeats
    until no row has a single entry.  The rows left go through the dense
    loop (_eliminate), their pivot rows are zero at every peeled column,
    and the e_c are zero at their pivots, so merging the two sets of rows
    by pivot column gives the reduced form, which is unique.
    """
    import numpy as np

    require_exact(p)
    a = np.mod(np.array(a, dtype=np.int64, copy=True), p)
    nrows, ncols = a.shape
    units: list[int] = []
    rest = a
    while True:
        counts = np.count_nonzero(rest, axis=1)
        single = counts == 1
        if not single.any():
            break
        cols = np.unique(np.nonzero(rest[single])[1])
        units += cols.tolist()
        rest = rest[counts > 1]  # a copy: zero rows and peeled rows leave
        rest[:, cols] = 0
    red, dense = _eliminate(rest, p)
    pivots = sorted(units + dense)
    at = {c: i for i, c in enumerate(pivots)}
    out = zeros(nrows, ncols)
    out[[at[c] for c in units], units] = 1
    out[[at[c] for c in dense]] = red[:len(dense)]
    return out, pivots


def _eliminate(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """rref by dense Gauss-Jordan elimination, in place on a reduced int64 a.

    Pivoting takes the first row with a nonzero entry; a pivot row is zero
    left of its pivot, so each update touches only the columns from it on.
    """
    import numpy as np

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
        # row r is zero left of c, so only columns c.. change
        a[r, c:] = a[r, c:] * inv_mod(int(a[r, c]), p) % p
        rest = np.nonzero(a[:, c])[0]
        rest = rest[rest != r]
        if rest.size:
            a[rest, c:] = (a[rest, c:] - np.outer(a[rest, c], a[r, c:])) % p
        pivots.append(c)
        r += 1
    return a, pivots


def rank(a: np.ndarray, p: int) -> int:
    return len(rref(a, p)[1])


def sylvester_entries(a: np.ndarray, b: np.ndarray, unknown: np.ndarray):
    """COO entries (rows, cols, vals) of the linear map X -> A X - X B.

    A, B and X are d x d.  Entry (r, c) of X is the unknown numbered
    unknown[r, c]: a negative number is a fixed zero, and a number used
    twice is one unknown shared by both entries.  Entry (r, c) of the
    image is row r * d + c.  Entries at one position are not summed.
    A and B may also be stacks of n matrices each, n x d x d: then the
    map is X -> (A_v X - X B_v for each v), pair v's image starting at
    row v d^2, and one pass over the stacks gives every block.
    """
    import numpy as np

    d = len(unknown)
    a, b = np.reshape(a, (-1, d, d)), np.reshape(b, (-1, d, d))
    # A_v X: entry (r, c) gets A_v[r, k] X[k, c]
    v, r, k = np.nonzero(a)
    left = ((v * d * d + r * d)[:, None] + np.arange(d), unknown[k],
            np.repeat(a[v, r, k][:, None], d, 1))
    # - X B_v: entry (r, c) gets - X[r, k] B_v[k, c]
    v, k, c = np.nonzero(b)
    right = ((np.arange(d) * d)[:, None] + (v * d * d + c), unknown[:, k],
             np.repeat(-b[v, k, c][None], d, 0))
    rows, cols, vals = (np.concatenate((x.ravel(), y.ravel())) for x, y in zip(left, right))
    known = cols >= 0
    return rows[known], cols[known], vals[known]


def dense_entries(a: np.ndarray):
    """COO entries (rows, cols, vals) of the nonzero entries of a."""
    import numpy as np

    r, c = np.nonzero(a)
    return r, c, a[r, c]


def sparse_rank(rows, cols, vals, shape: tuple[int, int], p: int) -> int:
    """Rank of the matrix of the given shape with COO entries (rows, cols, vals).

    Entries at one position are summed mod p and positions that sum to
    zero are dropped.  Each value is reduced into [0, p) first, so the sum
    is exact in int64 while fewer than 2^32 entries share a position.

    Singletons are then peeled until none is left.  If some column holds
    one entry, every row holding such an entry is a pivot: the rank grows
    by the number of those rows, and all their entries go.  Otherwise, if
    some row holds one entry, the same is done with rows and columns
    swapped.  This is exact: when column c's only entry is at (r, c),
    column operations by c clear the rest of row r and leave
    [a_rc] + (the matrix without row r and column c) as a direct sum.
    Two singleton columns on one row give one pivot, the second column
    being empty once the row is gone.

    The rank of what is left is the sum of the ranks of the connected
    components of its row-column graph (a node per row and per column, an
    edge per nonzero entry), each densified as its own block and, having
    no singleton left to peel, sent straight to the dense loop.
    """
    import numpy as np

    require_exact(p)
    nrows, ncols = shape
    key = np.asarray(rows, dtype=np.int64) * ncols + np.asarray(cols, dtype=np.int64)
    if key.size == 0:
        return 0
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    vals = np.add.reduceat(np.mod(np.asarray(vals, dtype=np.int64)[order], p), starts) % p
    key = key[starts][vals != 0]
    vals = vals[vals != 0]
    r, c = np.divmod(key, ncols)
    total = 0
    while r.size:
        # a column with one entry makes its row a pivot; failing that, a
        # row with one entry makes its column one
        for lines, other, size in ((c, r, nrows), (r, c, ncols)):
            lone = np.bincount(lines)[lines] == 1
            if lone.any():
                pivot = np.zeros(size, dtype=bool)
                pivot[other[lone]] = True
                total += int(pivot.sum())
                keep = ~pivot[other]
                r, c, vals = r[keep], c[keep], vals[keep]
                break
        else:
            break
    if r.size == 0:
        return total
    # hook each root onto the least root across an edge, then jump pointers
    # to the roots, until every edge joins two nodes under one root
    cnode = nrows + c
    label = np.arange(nrows + ncols)
    while True:
        least = np.minimum(label[r], label[cnode])
        hooked = label.copy()
        np.minimum.at(hooked, label[r], least)
        np.minimum.at(hooked, label[cnode], least)
        while not np.array_equal(hooked[hooked], hooked):
            hooked = hooked[hooked]
        if np.array_equal(hooked, label):
            break
        label = hooked
    comp = label[r]
    order = np.argsort(comp, kind="stable")
    cuts = np.flatnonzero(np.diff(comp[order])) + 1
    for br, bc, bv in zip(*(np.split(a[order], cuts) for a in (r, c, vals))):
        ur, lr = np.unique(br, return_inverse=True)
        uc, lc = np.unique(bc, return_inverse=True)
        block = zeros(len(ur), len(uc))
        block[lr, lc] = bv
        total += len(_eliminate(block, p)[1])
    return total


def kernel_basis(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Basis of the right null space {v : a v = 0}, one vector per row, and
    the free (non-pivot) columns of a, ascending.

    Row i has a 1 at free[i], 0 at the other free columns, and its other
    entries at pivot columns of a left of free[i]: the basis is in reduced
    echelon form read right to left.  The number of rows is
    ncols - rank(a).  A 0 x n matrix has kernel all of F_p^n.
    """
    import numpy as np

    ncols = np.shape(a)[1]
    r, pivots = rref(a, p)
    free = np.ones(ncols, dtype=bool)
    free[pivots] = False
    free = np.flatnonzero(free)
    basis = zeros(len(free), ncols)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = (-r[:len(pivots)][:, free]).T % p
    return basis, free.tolist()
