"""Smoothness and singularity diagnostics for points of Hilb^d(A^3).

Subpackages by theme:

- gfp:       exact dense linear algebra over a prime field
- mono3:     monomial ideals of k[x,y,z] as plane partitions (height arrays)
- tancomb:   tangent spaces of monomial points via bounded components
- smoothcls: singularizing triples, no-flip chains, smooth census
- poly3:     degrevlex Groebner bases, intersection by syzygies, colon as a kernel on S/I
             read off one elimination of its relations (span_ideal)
- tanlin:    tangent dimension of arbitrary finite algebras via syzygies,
             cross-checked by the border-basis scheme's tangent space
- linkage:   links by length-3 regular sequences, chain verification
- apolarity: contraction action and annihilator ideals (inverse systems)
- duality:   dual module, Gorenstein type, bicanonical degree
- pfaffian:  Pfaffians and the layered Gorenstein ideal constructor
- cli:       command-line front end with deterministic JSON/CSV output

All arithmetic is exact over a prime field (default p = 2^31 - 1).
Characteristic-zero statements are certified by agreement over two
large primes.
"""

from .gfp import DEFAULT_PRIME, SECOND_PRIME

__all__ = ["DEFAULT_PRIME", "SECOND_PRIME"]
__version__ = "0.1.0"
