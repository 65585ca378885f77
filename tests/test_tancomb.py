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


def bits_of(ideal, cells):
    """The bitmask of the given cells of the ideal's staircase."""
    index = {v: n for n, v in enumerate(ideal.staircase_bits.cells)}
    return sum(1 << index[v] for v in cells)


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
        for ideal in UP_TO_EIGHT:
            cells, adj = ideal.staircase_bits[:2]
            assert cells == tuple(sorted(ideal.staircase))
            for v, near in zip(cells, adj):
                steps = [tuple(v[k] + (s if k == i else 0) for k in range(3))
                         for i in range(3) for s in (1, -1)]
                assert near == bits_of(ideal, [w for w in steps if w in ideal.staircase])

    def test_coordinate_tables(self):
        for ideal in UP_TO_EIGHT:
            cells, _, ge, blocked, face = ideal.staircase_bits
            for c in range(3):
                top = max(v[c] for v in cells)
                assert len(ge[c]) == top + 2
                for t in range(top + 2):
                    assert ge[c][t] == bits_of(ideal, [v for v in cells if v[c] >= t])
                assert face[c] == bits_of(ideal, [v for v in cells if v[c] == 0])
            diffs = {tuple(x - y for x, y in zip(v, u)) for v in cells for u in cells}
            assert blocked.keys() == diffs
            for b in diffs:
                assert blocked[b] == bits_of(ideal, [
                    v for v in cells if tuple(x - y for x, y in zip(v, b)) in ideal.staircase])


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
