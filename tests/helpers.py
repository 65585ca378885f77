"""Helpers shared by several test modules.

pyproject.toml puts tests/ on the pytest path, so test modules import
this one as `helpers` under any import mode.
"""
from hilb3 import gfp, poly3

RING = poly3.PolyRing(gfp.DEFAULT_PRIME)

# three quadrics, generic enough that linking by them gives a point
# that is not monomial
GENERIC_ALPHA = ("x^2 + 2*x*y + 3*y^2 + 5*x*z + 7*y*z + 11*z^2, "
                 "2*x^2 + x*y + y^2 + 3*x*z + y*z + 4*z^2, "
                 "x^2 + x*y + 5*y^2 + x*z + 2*y*z + 3*z^2")


def ev(text):
    """The exponent vector of one monomial, such as "z^2" or "x*y"."""
    (e,) = poly3.parse_poly(text, RING).terms
    return e


def is_strongly_stable(ideal):
    """True iff (x_i/x_j) m stays in I for every generator m, x_j | m, i < j
    (variable order x > y > z)."""
    for m in ideal.mingens:
        for j in range(3):
            if m[j] == 0:
                continue
            for i in range(j):
                shifted = list(m)
                shifted[j] -= 1
                shifted[i] += 1
                if tuple(shifted) not in ideal:
                    return False
    return True


IDENTITY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def linear_forms(ring, a, t):
    """The three polynomials sum_j a[i][j] x_j + t[i]."""
    return [ring.poly({IDENTITY[0]: a[i][0], IDENTITY[1]: a[i][1], IDENTITY[2]: a[i][2],
                       (0, 0, 0): t[i]}) for i in range(3)]


def shifts_to(ring, point):
    """x - a, y - b, z - c for the point (a, b, c)."""
    return linear_forms(ring, IDENTITY, [-c for c in point])


def linear_image(ideal, ring, a, t):
    """The monomial ideal after the change of coordinates x_i -> sum_j a[i][j] x_j + t[i]."""
    forms = linear_forms(ring, a, t)
    gens = []
    for g in ideal.mingens:
        f = ring.one()
        for form, k in zip(forms, g):
            for _ in range(k):
                f = f * form
        gens.append(f)
    return poly3.ideal(ring, gens)


def invertible(low, up, diag, perm):
    """perm . L . U with L unit lower triangular and U upper triangular with
    the given nonzero diagonal; every invertible 3x3 matrix has this form."""
    L = [[1, 0, 0], [low[0], 1, 0], [low[1], low[2], 1]]
    U = [[diag[0], up[0], up[1]], [0, diag[1], up[2]], [0, 0, diag[2]]]
    LU = [[sum(L[i][k] * U[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
    return [LU[i] for i in perm]


def random_change(rng, p):
    """A random invertible matrix over F_p and a random translation."""
    def entries():
        return [rng.randrange(p) for _ in range(3)]

    diag = [rng.randrange(1, p) for _ in range(3)]
    return invertible(entries(), entries(), diag, rng.sample(range(3), 3)), entries()
