"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they print.  Every expected value is exact; no tolerances appear
anywhere because every assertion is integer or rational equality (the
only non-exact limits are runtime ceilings).
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from fractions import Fraction

from origami_census import (
    StratumSignature,
    brute_force_census,
    canonical_key,
    commutator,
    decompose,
    enumerate_census,
    find_anti_involutions,
    has_order_two_automorphism,
    hyperelliptic_constants,
    is_hyperelliptic,
    load_reference_table,
    make_origami,
    perm_from_cycles,
    reference_rows,
    save_census,
    spin_parity,
)
from conftest import DEGREE5_ORBITS, DEGREE5_PAIRS, origami


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:02d}] FAIL  {description}")
        raise
    print(f"[criterion {number:02d}] PASS  {description}")


def pair_keys() -> dict[int, bytes]:
    return {
        n: canonical_key(perm_from_cycles(sa), perm_from_cycles(sb))
        for n, (sa, sb) in DEGREE5_PAIRS.items()
    }


def test_criterion_01_degree5_census(census_of):
    with criterion(1, "degree-5 single-zero census has exactly 40 classes"):
        t0 = time.monotonic()
        census = enumerate_census(5, StratumSignature((4,)))
        elapsed = time.monotonic() - t0
        assert census.n_classes == 40
        keys = pair_keys()
        assert len(set(keys.values())) == 40
        assert set(keys.values()) == set(census.keys())
        assert elapsed < 10.0, f"census took {elapsed:.1f}s (limit 10s)"


def test_criterion_02_orbit_membership(census_of):
    with criterion(2, "the 40 classes split into the four known orbits"):
        comps = decompose(census_of(5, (4,)))
        assert sorted(c.n_classes for c in comps) == [3, 10, 12, 15]
        cid_of = {}
        for c in comps:
            for k in c.member_keys:
                cid_of[k] = c.component_id
        partition: dict[int, set[int]] = {}
        for n, key in pair_keys().items():
            partition.setdefault(cid_of[key], set()).add(n)
        assert sorted(map(frozenset, partition.values()), key=sorted) == sorted(
            DEGREE5_ORBITS, key=sorted
        )


def _orbit_components(census_of):
    comps = decompose(census_of(5, (4,)))
    keys = pair_keys()
    out = {}
    for orbit in DEGREE5_ORBITS:
        rep = keys[min(orbit)]
        comp = next(c for c in comps if rep in c.member_keys)
        out[orbit] = comp
    return out


def test_criterion_03_exact_slopes(census_of):
    with criterion(3, "orbit slopes are exactly 28/3, 9, 9, 28/3"):
        stratum = StratumSignature((4,))
        assert stratum.kappa == Fraction(2, 5)
        by_orbit = _orbit_components(census_of)
        for orbit, comp in by_orbit.items():
            expected = (
                Fraction(28, 3) if len(orbit) in (3, 15) else Fraction(9)
            )
            assert comp.slope == expected
            # the slope really is the stated function of (N, M, kappa)
            assert comp.slope == 12 / (
                1 + Fraction(2, 5) * comp.n_classes / comp.total_weight
            )
        small = by_orbit[frozenset({2, 10, 13})]
        assert small.total_weight == Fraction(21, 5)


def test_criterion_04_hyperelliptic_classification(census_of):
    with criterion(4, "hyperelliptic orbits and involution fixed points"):
        for orbit, comp in _orbit_components(census_of).items():
            assert comp.hyperelliptic == (len(orbit) in (3, 15))

        o13 = origami(*DEGREE5_PAIRS[13])
        reports = {str(r.tau): r for r in find_anti_involutions(o13)}
        r = reports["(1,2)(3,4)(5)"]
        assert (
            r.square_centers, r.vertical_edges, r.horizontal_edges,
            r.regular_vertices,
        ) == (1, 1, 5, 0)
        assert r.total_fixed == 8
        assert is_hyperelliptic(o13)

        o39 = origami(*DEGREE5_PAIRS[39])
        assert any(r.total_fixed == 8 for r in find_anti_involutions(o39))
        assert is_hyperelliptic(o39)

        o8 = origami(*DEGREE5_PAIRS[8])
        (r8,) = find_anti_involutions(o8)
        assert str(r8.tau) == "(1,2)(3)(4,5)"
        assert (
            r8.square_centers, r8.vertical_edges, r8.horizontal_edges,
            r8.regular_vertices,
        ) == (1, 1, 1, 0)
        assert r8.total_fixed == 4
        assert not is_hyperelliptic(o8)


def test_criterion_05_genus2_pipeline():
    with criterion(5, "the degree-5 genus-2 cover classifies end to end"):
        alpha = perm_from_cycles("(1,2,3,4)(5)")
        beta = perm_from_cycles("(1,5)(2)(3)(4)")
        assert str(commutator(alpha, beta)) == "(1,5,4)(2)(3)"
        o = make_origami(alpha, beta)
        assert o.stratum.mu == (2,)
        assert o.genus == 2
        (r,) = find_anti_involutions(o)
        assert str(r.tau) == "(1)(2,4)(3)(5)"
        assert (
            r.square_centers, r.vertical_edges, r.horizontal_edges,
            r.regular_vertices,
        ) == (3, 1, 1, 0)
        assert r.total_fixed == 6 == 2 * o.genus + 2
        assert is_hyperelliptic(o)


def test_criterion_06_forced_genus2_identities(census_of):
    with criterion(6, "genus-2 orbits have slope exactly 10 at every degree"):
        for d in range(3, 8):
            for comp in decompose(census_of(d, (2,))):
                assert comp.slope == 10
                assert comp.total_weight / comp.n_classes == Fraction(10, 9)
        for d in range(3, 7):
            census = census_of(d, (1, 1))
            if census.n_classes == 0:
                continue
            for comp in decompose(census):
                assert comp.slope == 10
                assert comp.total_weight / comp.n_classes == Fraction(5, 4)


def test_criterion_07_oracle_equivalence():
    with criterion(7, "fast enumeration equals the brute-force oracle"):
        cases = [
            (d, mu)
            for d in range(1, 6)
            for mu in [(2,), (1, 1), (4,), (2, 2), (3, 1)]
        ] + [(6, (2,))]
        for d, mu in cases:
            t0 = time.monotonic()
            stratum = StratumSignature(mu)
            fast = enumerate_census(d, stratum)
            slow = brute_force_census(d, stratum)
            elapsed = time.monotonic() - t0
            assert fast == slow, (d, mu)
            assert fast.total_weight == slow.total_weight, (d, mu)
            assert fast.n_classes == slow.n_classes, (d, mu)
            assert elapsed < 300.0, f"({d},{mu}) took {elapsed:.0f}s"


def test_criterion_08_no_order_two_automorphisms(census_of):
    with criterion(8, "single-zero covers admit no order-two automorphism"):
        cases = [(d, (2,)) for d in range(3, 7)] + [(5, (4,)), (6, (4,))]
        for d, mu in cases:
            for o in census_of(d, mu).values():
                assert not has_order_two_automorphism(o)


def test_criterion_09_orbit_constant_labels(census_of):
    with criterion(9, "flags and parity are orbit-constant; H(4) rest is odd"):
        for mu in [(4,), (2, 2)]:
            for d in range(5, 7):
                census = census_of(d, mu)
                if census.n_classes == 0:
                    continue
                for comp in decompose(census):
                    flags = {
                        is_hyperelliptic(census[k])
                        for k in comp.member_keys
                    }
                    parities = {
                        spin_parity(census[k])
                        for k in comp.member_keys
                    }
                    assert flags == {comp.hyperelliptic}
                    assert parities == {comp.parity}
        for d in range(5, 7):
            for comp in decompose(census_of(d, (4,))):
                if not comp.hyperelliptic:
                    assert comp.parity == 1


def test_criterion_10_constants_suite():
    with criterion(10, "stratum constants and closed-form values"):
        assert StratumSignature((4,)).kappa == Fraction(2, 5)
        assert StratumSignature((2,)).kappa == Fraction(2, 9)
        assert StratumSignature((1, 1)).kappa == Fraction(1, 4)
        for g in range(2, 7):
            c, big_l, s = hyperelliptic_constants(g, zeros=1)
            assert c == Fraction(g * (2 * g + 1), 3 * (2 * g - 1))
            assert big_l == Fraction(g * g, 2 * g - 1)
            assert 12 * c / big_l == 8 + Fraction(4, g)
            c2, l2, s2 = hyperelliptic_constants(g, zeros=2)
            assert c2 == Fraction((g + 1) * (2 * g + 1), 6 * g)
            assert l2 == Fraction(g + 1, 2)
            assert 12 * c2 / l2 == 8 + Fraction(4, g)
        table = {
            (r.genus, r.mu, r.label): r.slope for r in load_reference_table()
        }
        assert table[(3, (4,), "hyp")] == Fraction(28, 3)
        assert table[(4, (6,), "hyp")] == Fraction(9)
        assert table[(5, (8,), "hyp")] == Fraction(44, 5)
        assert table[(6, (10,), "hyp")] == Fraction(26, 3)


def test_criterion_11_reference_asset_integrity():
    with criterion(11, "reference table parses exactly; genus-3 block matches"):
        rows = load_reference_table()
        assert len(rows) >= 80
        for r in rows:
            assert 3 <= r.genus <= 6
            assert r.slope.denominator >= 1
        g3 = [r.slope for r in reference_rows(3)]
        assert g3 == [
            Fraction(28, 3), Fraction(9), Fraction(28, 3), Fraction(44, 5),
            Fraction(9), Fraction(98, 11), Fraction(468, 53),
        ]


def test_criterion_12_performance_and_determinism(tmp_path):
    with criterion(12, "degree-8 genus-2 census: fast and worker-independent"):
        stratum = StratumSignature((2,))
        t0 = time.monotonic()
        par = enumerate_census(8, stratum, workers=8)
        elapsed = time.monotonic() - t0
        assert elapsed < 600.0, f"8-worker census took {elapsed:.0f}s"
        seq = enumerate_census(8, stratum, workers=1)
        f1, f8 = tmp_path / "w1.jsonl", tmp_path / "w8.jsonl"
        save_census(seq, f1)
        save_census(par, f8)
        assert f1.read_bytes() == f8.read_bytes()
        assert par.total_weight / par.n_classes == Fraction(10, 9)
