"""Derive the smooth counts past d = 14 that the census check expects.

The paper lists smooth monomial point counts only up to d = 14.  For
larger d this script counts, over every staircase from the benchmark's
own enumeration, the ideals whose tangent excess dim T - 3d is zero by
the bounded-component route (hilb3.tancomb), which does not share code
with the singularizing-triple census it checks.  That exhaustive count is
the only guard on census rows past d = 14.

    PYTHONPATH=src python3 bench/derive_census_counts.py 15 16
"""
from __future__ import annotations

import sys

import inputs
from hilb3 import mono3, tancomb


def smooth_count(d: int) -> int:
    return sum(tancomb.tangent_report(mono3.from_generators(inputs.mingens(st))).excess == 0
               for st in inputs.staircases(d))


if __name__ == "__main__":
    for arg in sys.argv[1:]:
        print(f"d={arg} smooth={smooth_count(int(arg))}", flush=True)
