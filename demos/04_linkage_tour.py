"""Walk a chain of links from a strongly stable ideal down to m^2.

Each step colons a length-3 regular sequence alpha contained in the
ideal: target = (alpha : source).  Valid links satisfy the double-link
identity, add colengths (d_source + d_target = d_alpha), and preserve
the tangent excess dim T - 3d, so every ideal in the chain sits in a
singularity of the same local type.  At the end, a parity check shows a
binomial ideal that cannot be linked to any homogeneous ideal at all.
"""
from hilb3 import gfp, linkage, poly3

ring = poly3.PolyRing(gfp.DEFAULT_PRIME)

# J(2,3,3) -> J(1,2,3) -> I^tri(2,2,3) -> (via the tripod family) ... -> m^2
steps = [
    linkage.family_jabb_to_j1(ring, 2, 3),
    linkage.family_j1_to_tripod(ring, 2, 3),
    linkage.family_tripod22_to_m2(ring, 3),
]
chain = [(src, alpha) for src, alpha, _ in steps]
report = linkage.verify_link_chain(chain)

print("chain of links, excess preserved at every step:")
for step, (e_src, e_tgt) in zip(report.steps, report.excesses):
    d_src, d_alpha, d_tgt = step.colengths
    print(f"  d = {d_src:>2} --(alpha of colength {d_alpha:>2})--> d = {d_tgt:>2}"
          f"   excess {e_src} -> {e_tgt}")
last = poly3.ideal(ring, poly3.groebner(report.steps[-1].target))  # reduced basis
print(f"target of the last step: {last}")
print(f"common excess along the chain: {report.excess}")

print()
binomial = poly3.parse_ideal(
    "x^2, x*y^2, x*y*z, x*z^2, y^2*z^2, y*z^3, z^4, y^3 - x*z", ring)
parity = linkage.parity_report(binomial)
print(f"binomial ideal: d = {parity.colength}, dim T = {parity.tangent_dim}")
print(f"verdict: {parity.verdict}")
