"""Parity anchors: classification labels for small strata are known.

Genus 2 single-zero surfaces are all odd.  In genus 3 (both even
strata) the hyperelliptic orbits are even and the rest odd, which
pins every sign convention in the construction.
"""
import random

import pytest

from origami_census import spin
from origami_census.census import InvariantError
from origami_census.orbits import decompose
from origami_census.perm import all_perms, conjugate
from origami_census.spin import ParityUndefinedError, spin_parity
from origami_census.surface import canonical_key, make_origami
from conftest import origami


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

    @pytest.mark.parametrize("d,mu", [(5, (4,)), (6, (4,)), (6, (2, 2))])
    def test_hyperelliptic_even_others_odd(self, d, mu, census_of):
        census = census_of(d, mu)
        assert census.n_classes > 0
        for comp in decompose(census):
            assert comp.parity == (0 if comp.hyperelliptic else 1)


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
