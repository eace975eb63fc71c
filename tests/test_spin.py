"""Parity anchors: classification labels for small strata are known.

Genus 2 single-zero surfaces are all odd.  In genus 3 (both even
strata, degrees 5 to 8) the hyperelliptic orbits are even and the rest
odd, which pins every sign convention in the construction.  In genus 4
the single-zero stratum has non-hyperelliptic components of both
parities, told apart by their limiting slopes, and hyperelliptic ones
that are even: a hyperelliptic component of H(2g-2) has parity
floor((g+1)/2) mod 2 (Kontsevich-Zorich).
"""
import random

import pytest

from origami_census import spin
from origami_census.census import InvariantError
from origami_census.limits import component_label, reference_rows
from origami_census.orbits import decompose
from origami_census.perm import conjugate, inverse_word
from origami_census.spin import ParityUndefinedError, spin_parity
from origami_census.surface import canonical_key, make_origami
from conftest import all_perms, origami, strata_at
from reference_kernels import matrix_arf, matrix_spin_parity, walk_cycle_data


class TestPreconditions:
    def test_odd_zero_rejected(self, census_of):
        o = next(iter(census_of(6, (3, 1))))
        with pytest.raises(ParityUndefinedError):
            spin_parity(o)


class TestAnchors:
    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_genus2_single_zero_all_odd(self, d, census_of):
        for o in census_of(d, (2,)):
            assert spin_parity(o) == 1

    def test_degree5_single4_components(self, census_of):
        for comp in decompose(census_of(5, (4,))):
            want = 0 if comp.hyperelliptic else 1
            assert comp.parity == want

    @pytest.mark.parametrize(
        "d,mu",
        [(5, (4,)), (6, (4,)), (6, (2, 2)), (7, (4,)), (8, (4,)), (7, (2, 2)),
         (8, (2, 2))],
    )
    def test_hyperelliptic_even_others_odd(self, d, mu, census_of):
        census = census_of(d, mu)
        assert census.n_classes > 0
        for comp in decompose(census):
            assert comp.parity == (0 if comp.hyperelliptic else 1)

    def test_genus4_single_zero_hyperelliptic_orbits_even(self, census_of):
        comps = decompose(census_of(8, (6,)))
        hyperelliptic = [c for c in comps if c.hyperelliptic]
        assert (len(comps), len(hyperelliptic)) == (16, 5)
        assert all(c.parity == 0 for c in hyperelliptic)

    def test_genus4_single_zero_slopes_match_labels(self, census_of):
        want = {r.label: r.slope for r in reference_rows(4) if r.mu == (6,)}
        labels = set()
        for comp in decompose(census_of(7, (6,))):
            label = component_label(comp)
            labels.add(label)
            assert comp.slope == want[label], label
        assert labels == {"hyp", "even", "odd"}


class TestInvariance:
    @pytest.mark.parametrize("d,mu", [(5, (4,)), (6, (4,)), (6, (2, 2))])
    def test_constant_on_orbits(self, d, mu, census_of):
        census = census_of(d, mu)
        # decompose() asserts orbit-constancy of parity internally;
        # spell it out anyway
        for comp in decompose(census):
            parities = {
                spin_parity(census.members[k]) for k in comp.member_keys
            }
            assert parities == {comp.parity}

    def test_conjugation_invariance(self, census_of):
        rng = random.Random(20)
        taus = list(all_perms(5))
        members = list(census_of(5, (4,)))
        for o in members[::8]:
            want = spin_parity(o)
            for _ in range(100):
                tau = taus[rng.randrange(len(taus))]
                image = make_origami(
                    conjugate(o.alpha, tau), conjugate(o.beta, tau)
                )
                assert spin_parity(image) == want

    def test_degree7_examples(self):
        # larger degree exercises a bigger cycle space; genus-2 single
        # zero surfaces are odd at every degree
        o = origami("(1,2,3,4,5,6,7)", "(1,2)(3)(4)(5)(6)(7)")
        assert o.stratum.mu == (2,)
        assert spin_parity(o) == 1
        taus = list(all_perms(7))
        rng = random.Random(3)
        for _ in range(10):
            tau = taus[rng.randrange(len(taus))]
            image = make_origami(
                conjugate(o.alpha, tau), conjugate(o.beta, tau)
            )
            assert spin_parity(image) == 1


class TestInvariantErrors:
    def test_face_not_descending_names_the_key(self, monkeypatch, census_of):
        o = list(census_of(5, (4,)))[7]
        real = spin._face_masks

        def shifted(o):
            masks = real(o)
            return [masks[0] ^ 1] + masks[1:]

        monkeypatch.setattr(spin, "_face_masks", shifted)
        key = canonical_key(o.alpha, o.beta).hex()
        with pytest.raises(InvariantError, match=key) as err:
            spin_parity(o)
        assert "face boundary" in str(err.value)

    def test_self_pairing_and_asymmetry_are_caught(self, monkeypatch, census_of):
        # Swapping the sides of two edges in sigma changes the pairing
        # matrix to some M'.  The rows read it through sigma^-1 and the
        # transposed rows through sigma, so a nonzero diagonal and an
        # asymmetric M' must each be caught.
        o = list(census_of(6, (2, 2)))[5]
        d = o.degree
        _, _, cross, _ = spin._cycle_data(o)
        sigma = spin._skeleton_sides(
            d, inverse_word(o.alpha.word), inverse_word(o.beta.word)
        )
        caught = set()
        for a in range(2 * d):
            for b in range(a):
                swapped = list(sigma)
                swapped[a], swapped[b] = sigma[b], sigma[a]
                copies = [
                    sum(1 << swapped[e] for e in range(2 * d) if c >> e & 1)
                    for c in cross
                ]
                m = [[(c & k).bit_count() & 1 for k in copies] for c in cross]
                diagonal = any(m[i][i] for i in range(len(m)))
                symmetric = m == [list(col) for col in zip(*m)]
                if diagonal != symmetric:
                    continue  # neither or both checks apply
                monkeypatch.setattr(
                    spin, "_skeleton_sides", lambda *_, s=swapped: s
                )
                want = "self-pairing" if diagonal else "pairing must be symmetric"
                with pytest.raises(InvariantError, match=want):
                    spin_parity(o)
                caught.add(want)
        assert len(caught) == 2


def corner_union_find_masks(o):
    """Face masks from the orbits of square corners under the gluings.

    Corners are (square, c) with c = 0 lower-left, 1 lower-right,
    2 upper-right, 3 upper-left; one orbit per vertex of the surface.
    """
    d = o.degree
    aw, bw = o.alpha.word, o.beta.word
    parent = list(range(4 * d))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        parent[find(x)] = find(y)

    for i in range(d):
        union(4 * i + 1, 4 * aw[i])  # right side of i = left side of alpha(i)
        union(4 * i + 2, 4 * aw[i] + 3)
        union(4 * i + 3, 4 * bw[i])  # top side of i = bottom side of beta(i)
        union(4 * i + 2, 4 * bw[i] + 1)
    roots = sorted({find(x) for x in range(4 * d)})
    masks = dict.fromkeys(roots, 0)
    for i in range(d):
        # vertical side between i and alpha(i), then horizontal side
        # between i and beta(i), each from its lower or left end to
        # the upper-right corner of i
        for bit, lo in ((i, 4 * i + 1), (d + i, 4 * i + 3)):
            masks[find(lo)] ^= 1 << bit
            masks[find(4 * i + 2)] ^= 1 << bit
    return list(masks.values())


# Censuses of degree 5 to 7, odd strata included, on which the face
# masks are checked against the corner union-find.
FACE_CHECK_CENSUSES = [
    (5, (4,)), (5, (2,)), (6, (2, 2)), (6, (3, 1)), (7, (4,)), (7, (1, 1)),
    (7, (6,)),
]


class TestFaces:
    @pytest.mark.parametrize("d,mu", FACE_CHECK_CENSUSES)
    def test_face_masks_match_corner_union_find(self, d, mu, census_of):
        census = census_of(d, mu)
        assert census.n_classes > 0
        for o in census:
            faces = spin._face_masks(o)
            assert sorted(faces) == sorted(corner_union_find_masks(o))
            assert len(faces) == len(o.commutator_type.parts)


# Every stratum with only even zeros at degrees 3 to 7.
EVEN_CENSUSES = [
    (d, mu)
    for d in range(3, 8)
    for mu in strata_at(d)
    if all(m % 2 == 0 for m in mu)
]


class TestMatrixReference:
    @pytest.mark.parametrize("d,mu", EVEN_CENSUSES)
    def test_parity_matches_matrix_pipeline(self, d, mu, census_of):
        census = census_of(d, mu)
        assert census.n_classes > 0
        for o in census:
            assert spin_parity(o) == matrix_spin_parity(o)

    def test_arf_matches_matrix_reduction_on_random_forms(self):
        # Random alternating forms of every rank, not only the
        # pairings of surfaces.
        rng = random.Random(8)
        for _ in range(20000):
            n = rng.randrange(1, 12)
            matrix = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i):
                    matrix[i][j] = matrix[j][i] = rng.randrange(2)
            q = [rng.randrange(2) for _ in range(n)]
            rows = [sum(bit << j for j, bit in enumerate(r)) for r in matrix]
            genus = gf2_rank(rows) // 2
            assert spin._arf(rows, q, genus) == matrix_arf(matrix, q, genus)


# The walk reference runs on every census of EVEN_CENSUSES and on two
# degree-8 censuses the Frobenius tests also build.
@pytest.mark.parametrize("d,mu", EVEN_CENSUSES + [(8, (2, 2)), (8, (6,))])
def test_tree_pass_matches_walks(d, mu, census_of):
    census = census_of(d, mu)
    assert census.n_classes > 0
    for o in census:
        assert spin._cycle_data(o) == walk_cycle_data(o)


def gf2_rank(rows: list[int]) -> int:
    rank = 0
    rows = list(rows)
    while rows:
        pivot = rows.pop()
        if pivot:
            rank += 1
            low = pivot & -pivot
            rows = [r ^ pivot if r & low else r for r in rows]
    return rank
