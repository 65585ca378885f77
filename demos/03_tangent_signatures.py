"""Tangent spaces of monomial points, graded by the sign pattern of the weight.

Each torus weight a in Z^3 contributes dim Hom_S(I, S/I)_a, computed as
the number of bounded connected components of (I+a) \\ I.  Weights are
classed p (coordinate >= 0) or n (coordinate < 0); the three
doubly-negative classes nnp, npn, pnn vanish exactly at smooth points,
and each p-heavy class exceeds its mirror by exactly d.  The same
numbers come out of an entirely different computation: the conditions
that the syzygies of the generators impose on a hom, weight by weight.
"""
from hilb3 import mono3, tancomb, tanlin

for text in ["x^2, y^2, z^2, x*y, x*z, y*z",
             "x^3, y^3, z^3, y*z^2, x^2*z, x*y^2"]:
    ideal = mono3.parse_monomial_ideal(text)
    rep = tancomb.tangent_report(ideal)
    d = rep.colength
    print(f"I = ({text}),  d = {d}")
    print(f"  dim T = {rep.total}  (excess {rep.excess})")
    for sig in tancomb.SIGNATURES:
        mirror = {"ppn": "nnp", "pnp": "npn", "npp": "pnn"}.get(sig)
        extra = f"  = {mirror} + d" if mirror else ""
        print(f"    {sig}: {rep.by_signature[sig]}{extra}")
    print(f"  doubly-negative weights: "
          f"{[(list(a), n) for a, n in rep.doubly_negative_weights]}")
    total = tanlin.mono_hom_dim(ideal)
    print(f"  syzygy-route cross-check: {total}")
    assert total == rep.total
    print()
