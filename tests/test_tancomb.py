from hypothesis import given, settings
from hypothesis import strategies as st

from hilb3 import mono3, tancomb

M = mono3.parse_monomial_ideal("x,y,z")
M2 = mono3.parse_monomial_ideal("x^2,y^2,z^2,x*y,x*z,y*z")


UP_TO_EIGHT = [I for d in range(1, 9) for I in mono3.enumerate_ideals(d)]


def oracle_bounded_components(ideal, a):
    """Bounded components of (I+a) \\ I by a search over exponent vectors.

    It builds each neighbour and tests staircase membership at every
    visited cell, where bounded_components works on the cached staircase
    bits.
    """
    st = ideal.staircase

    def in_shifted_ideal(v):
        return (v[0] - a[0], v[1] - a[1], v[2] - a[2]) in ideal

    visited = set()
    count = 0
    for s in sorted(v for v in st if in_shifted_ideal(v)):
        if s in visited:
            continue
        visited.add(s)
        stack = [s]
        bounded = True
        while stack:
            v = stack.pop()
            for i in range(3):
                for step in (1, -1):
                    w = list(v)
                    w[i] += step
                    w = tuple(w)
                    if w[i] < 0:
                        # outside N^3 hence outside I: in the set iff w - a is
                        # in I, and then the component is unbounded
                        if in_shifted_ideal(w):
                            bounded = False
                        continue
                    if w in visited or w not in st or not in_shifted_ideal(w):
                        continue
                    visited.add(w)
                    stack.append(w)
        if bounded:
            count += 1
    return count


def tripod(a, b, c):
    return mono3.from_generators(
        [(a, 0, 0), (0, b, 0), (0, 0, c), (1, 1, 0), (1, 0, 1), (0, 1, 1)])


class TestBoundedComponents:
    def test_point_single_component(self):
        assert tancomb.bounded_components(M, (-1, 0, 0)) == 1

    def test_doubly_negative_of_m2(self):
        assert tancomb.bounded_components(M2, (-1, -1, 1)) == 1

    def test_all_negative_is_unbounded(self):
        assert tancomb.bounded_components(M2, (-1, -1, -1)) == 0

    def test_matches_oracle_on_every_weight(self):
        # every candidate weight of every ideal of colength <= 8
        for ideal in UP_TO_EIGHT:
            for a in sorted(tancomb.weight_candidates(ideal)):
                assert tancomb.bounded_components(ideal, a) == \
                    oracle_bounded_components(ideal, a), (ideal, a)

    def test_matches_oracle_off_the_candidates(self):
        # weights that shift the staircase partly or wholly off N^3
        for ideal in [M, M2, tripod(2, 3, 4)]:
            for a in [(-3, 0, 0), (0, -2, -2), (5, 5, 5), (-1, 2, -1), (1, 0, -3)]:
                assert tancomb.bounded_components(ideal, a) == \
                    oracle_bounded_components(ideal, a), (ideal, a)

    def test_membership_is_inline(self, monkeypatch):
        # I+a membership is decided in the search, never by __contains__
        calls = [0]
        original = mono3.MonomialIdeal3.__contains__

        def counting(ideal, v):
            calls[0] += 1
            return original(ideal, v)

        monkeypatch.setattr(mono3.MonomialIdeal3, "__contains__", counting)
        assert tancomb.bounded_components(M2, (-1, -1, 1)) == 1
        ideal = tripod(2, 3, 4)
        assert tancomb.tangent_report(ideal).total == 3 * ideal.colength + 6
        assert calls == [0]


#: every plane partition with d <= 14 cells, largest d first
UP_TO_FOURTEEN = [pp for d in range(14, 0, -1) for pp in mono3.plane_partitions(d)]


@st.composite
def ideals_and_weights(draw):
    """A random ideal of colength <= 14 and a weight: a candidate of it, or
    one drawn from a range far outside its bounding box."""
    ideal = mono3.ideal_from_plane_partition(draw(st.sampled_from(UP_TO_FOURTEEN)))
    far = st.tuples(*[st.integers(-40, 40)] * 3)
    return ideal, draw(st.sampled_from(sorted(tancomb.weight_candidates(ideal))) | far)


class TestMatchesOracleOnRandomIdeals:
    @settings(max_examples=400, deadline=None)
    @given(ideals_and_weights())
    def test_bounded_components(self, case):
        ideal, a = case
        assert tancomb.bounded_components(ideal, a) == oracle_bounded_components(ideal, a)


def grid_cells(bits, mask):
    """The cells (i, j, k) of the grid bits set in mask, read off the strides."""
    sx, sy, _ = bits.strides
    out = set()
    while mask:
        n = (mask & -mask).bit_length() - 1
        mask &= mask - 1
        assert n % sy < bits.dims[2] and n % sx // sy < bits.dims[1], n
        out.add((n // sx, n % sx // sy, n % sy))
    return out


def grid_shift(mask, off):
    return mask << off if off >= 0 else mask >> -off


def grid_range(bits):
    """Every weight a with -n <= a_c < n for the box extents n."""
    X, Y, Z = bits.dims
    return [(a0, a1, a2) for a0 in range(-X, X) for a1 in range(-Y, Y) for a2 in range(-Z, Z)]


def minus(v, a):
    return (v[0] - a[0], v[1] - a[1], v[2] - a[2])


class TestStaircaseBits:
    def test_tangent_report_builds_the_bits_once_per_ideal(self):
        ideal = tripod(2, 3, 4)
        assert "staircase_bits" not in vars(ideal)
        tancomb.tangent_report(ideal)
        bits = vars(ideal)["staircase_bits"]
        tancomb.tangent_report(ideal)
        assert ideal.staircase_bits is bits
        assert "generator_lcms" not in vars(ideal)

    def test_cells_and_neighbours(self):
        # the mask is the staircase on the padded grid, and a unit shift
        # reaches exactly the unit-step neighbours
        for ideal in UP_TO_EIGHT:
            bits = ideal.staircase_bits
            stair = ideal.staircase
            X, Y, Z = bits.dims
            assert bits.dims == tuple(max(v[c] for v in stair) + 1 for c in range(3))
            assert bits.strides == (4 * Y * Z, 2 * Z, 1)
            assert grid_cells(bits, bits.mask) == stair
            for c in range(3):
                for step in (1, -1):
                    e = tuple(step if k == c else 0 for k in range(3))
                    moved = grid_shift(bits.mask, bits.offset(e)) & bits.mask
                    assert grid_cells(bits, moved) == {v for v in stair if minus(v, e) in stair}

    def test_coordinate_tables(self):
        for ideal in UP_TO_EIGHT:
            bits = ideal.staircase_bits
            stair = ideal.staircase
            for c in range(3):
                assert len(bits.ge[c]) == bits.dims[c] + 1
                for t, mask in enumerate(bits.ge[c]):
                    assert grid_cells(bits, mask) == {v for v in stair if v[c] >= t}
            assert sorted(bits.cone) == sorted(map(bits.offset, stair))
            for v in stair:
                assert grid_cells(bits, bits.cone[bits.offset(v)]) == \
                    {w for w in stair if all(x >= y for x, y in zip(w, v))}

    def test_no_shifted_cell_lands_on_a_cell_by_mistake(self):
        # over the whole grid range, shifting the mask by off(a) meets the
        # staircase in exactly the cells v with v - a in the staircase
        for ideal in UP_TO_EIGHT:
            bits = ideal.staircase_bits
            stair = ideal.staircase
            for a in grid_range(bits):
                moved = grid_shift(bits.mask, bits.offset(a)) & bits.mask
                assert grid_cells(bits, moved) == {v for v in stair if minus(v, a) in stair}, \
                    (ideal, a)

    def test_offsets_key_the_weights_in_order(self):
        for ideal in [M, M2, tripod(2, 3, 4), tripod(5, 1, 2)]:
            bits = ideal.staircase_bits
            weights = grid_range(bits)
            offsets = [bits.offset(a) for a in weights]
            assert offsets == sorted(set(offsets))
            assert [bits.weight(off) for off in offsets] == weights


class TestWeightCandidates:
    def test_maximal_ideal(self):
        assert tancomb.weight_candidates(M) == {(-1, 0, 0), (0, -1, 0), (0, 0, -1)}

    def test_m2_count(self):
        # 24 staircase x generator pairs, 18 distinct differences
        assert len(tancomb.weight_candidates(M2)) == 18

    def test_never_zero(self):
        for d in range(1, 7):
            for ideal in mono3.enumerate_ideals(d):
                assert (0, 0, 0) not in tancomb.weight_candidates(ideal)

    def test_candidates_cover_support(self):
        # weights outside the candidate set carry no bounded components
        for ideal in [M, M2, tripod(2, 3, 4)]:
            cands = tancomb.weight_candidates(ideal)
            lo = -max(sum(g) for g in ideal.mingens) - 1
            hi = max(sum(v) for v in ideal.staircase) + 1
            for a0 in range(lo, hi + 1):
                for a1 in range(lo, hi + 1):
                    for a2 in range(lo, hi + 1):
                        a = (a0, a1, a2)
                        if a == (0, 0, 0) or a in cands:
                            continue
                        assert tancomb.bounded_components(ideal, a) == 0, (ideal, a)


class TestTangentReport:
    def test_smooth_point(self):
        rep = tancomb.tangent_report(M)
        assert rep.total == 3
        assert rep.excess == 0
        assert rep.doubly_negative_weights == ()

    def test_m2(self):
        rep = tancomb.tangent_report(M2)
        assert rep.total == 18
        assert rep.excess == 6
        assert rep.colength == 4
        assert all(rep.by_signature[s] == 1 for s in tancomb.DOUBLY_NEGATIVE)

    def test_surplus_six_colength_14(self):
        ideal = mono3.parse_monomial_ideal("x^3, y^3, z^3, y*z^2, x^2*z, x*y^2")
        rep = tancomb.tangent_report(ideal)
        assert rep.colength == 14
        assert rep.total == 48

    def test_dims_are_the_nonzero_bounded_components(self):
        # tangent_report's walk over grid offsets counts the weights that
        # bounded_components counts, candidate by candidate
        for d in range(1, 10):
            for ideal in mono3.enumerate_ideals(d):
                want = {}
                for a in sorted(tancomb.weight_candidates(ideal)):
                    if n := tancomb.bounded_components(ideal, a):
                        want[a] = n
                dims = tancomb.tangent_report(ideal).dims
                assert list(dims.items()) == list(want.items()), ideal

    def test_total_is_signature_sum(self):
        for d in range(1, 6):
            for ideal in mono3.enumerate_ideals(d):
                rep = tancomb.tangent_report(ideal)
                assert rep.total == sum(rep.by_signature.values())
                assert rep.excess == rep.total - 3 * d


class TestSignatureOf:
    @given(st.tuples(*[st.integers(-5, 5)] * 3))
    def test_matches_sign_by_sign(self, a):
        assert tancomb.signature_of(a) == "".join("p" if c >= 0 else "n" for c in a)


class TestSignatureRelationsExhaustive:
    def test_plus_d_relations_and_parity(self):
        # exhaustive d <= 7 here; the acceptance suite pushes this to 10
        for d in range(1, 8):
            for ideal in mono3.enumerate_ideals(d):
                rep = tancomb.tangent_report(ideal)
                sig = rep.by_signature
                assert sig["ppn"] == sig["nnp"] + d
                assert sig["pnp"] == sig["npn"] + d
                assert sig["npp"] == sig["pnn"] + d
                assert rep.total % 2 == d % 2
