"""Shared fixtures: memoized censuses and ground-truth degree-5 data."""
from __future__ import annotations

from itertools import permutations
from typing import Iterator

import pytest

from origami_census import (
    Census,
    Perm,
    StratumSignature,
    enumerate_census,
    make_origami,
    perm_from_cycles,
)

_census_memo: dict[tuple[int, tuple[int, ...]], Census] = {}


@pytest.fixture(scope="session")
def census_of():
    """Callable (degree, mu tuple) -> Census, memoized per session."""

    def get(degree: int, mu: tuple[int, ...]) -> Census:
        key = (degree, tuple(mu))
        if key not in _census_memo:
            _census_memo[key] = enumerate_census(
                degree, StratumSignature.from_parts(mu)
            )
        return _census_memo[key]

    return get


def origami(alpha: str, beta: str):
    return make_origami(perm_from_cycles(alpha), perm_from_cycles(beta))


def all_perms(degree: int) -> Iterator[Perm]:
    """All of S_d in lexicographic word order, for brute-force oracles."""
    for w in permutations(range(degree)):
        yield Perm(w)


def strata_at(degree: int) -> list[tuple[int, ...]]:
    """Every zero profile mu whose census at this degree can be nonempty:
    one cycle of length m+1 per zero fits in the degree."""
    from origami_census.census import partitions_desc

    return [
        mu
        for total in range(2, degree, 2)
        for mu in partitions_desc(total)
        if total + len(mu) <= degree
    ]


# Ground truth for degree 5 with a single order-4 zero: the forty
# classes, their split into four twist orbits, and the orbit slopes.
DEGREE5_PAIRS = {
    1: ("(1,2)(3,4)(5)", "(1,2,3,4,5)"),
    2: ("(1,2)(3,5)(4)", "(1,2,3,4,5)"),
    3: ("(1,2,4)(3)(5)", "(1,2,3,4,5)"),
    4: ("(1,4,2)(3)(5)", "(1,2,3,4,5)"),
    5: ("(1,2,4,5,3)", "(1,2,3,4,5)"),
    6: ("(1,3,2,5,4)", "(1,2,3,4,5)"),
    7: ("(1,4)(2,5)(3)", "(1,2,3)(4)(5)"),
    8: ("(1,2,4,3,5)", "(1,2,3)(4)(5)"),
    9: ("(1,3,4,2,5)", "(1,2,3)(4)(5)"),
    10: ("(1,5)(2,3)(4)", "(1,2)(3,4)(5)"),
    11: ("(1,3,5)(2)(4)", "(1,2)(3,4)(5)"),
    12: ("(1,2,3,4,5)", "(1,2)(3,4)(5)"),
    13: ("(1,2,3,5,4)", "(1,2)(3,4)(5)"),
    14: ("(1,2,4,3)(5)", "(1,2,3,4,5)"),
    15: ("(1,3,4,2)(5)", "(1,2,3,4,5)"),
    16: ("(1,5)(2,3)(4)", "(1,2,3,4)(5)"),
    17: ("(1,5)(2,4)(3)", "(1,2,3,4)(5)"),
    18: ("(1,5)(3,4)(2)", "(1,2,3,4)(5)"),
    19: ("(1,3,5)(2)(4)", "(1,2,3,4)(5)"),
    20: ("(1,2,5)(3,4)", "(1,2,3,4)(5)"),
    21: ("(1,5,2)(3,4)", "(1,2,3,4)(5)"),
    22: ("(1,3,2,5)(4)", "(1,2,3,4)(5)"),
    23: ("(1,3,5,2)(4)", "(1,2,3,4)(5)"),
    24: ("(1,5,2,3)(4)", "(1,2,3,4)(5)"),
    25: ("(1,2,5,3)(4)", "(1,2,3,4)(5)"),
    26: ("(1,2,4,3,5)", "(1,2,3,4)(5)"),
    27: ("(1,4,2,3,5)", "(1,2,3,4)(5)"),
    28: ("(1,4)(2,3)(5)", "(1,2,3)(4,5)"),
    29: ("(1,2,4)(3)(5)", "(1,2,3)(4,5)"),
    30: ("(1,3,4)(2)(5)", "(1,2,3)(4,5)"),
    31: ("(1,4,5)(2,3)", "(1,2,3)(4,5)"),
    32: ("(1,2,4,5)(3)", "(1,2,3)(4,5)"),
    33: ("(1,3,4,5)(2)", "(1,2,3)(4,5)"),
    34: ("(1,4,2,5)(3)", "(1,2,3)(4)(5)"),
    35: ("(1,2,4)(3,5)", "(1,2,3)(4)(5)"),
    36: ("(1,4,2)(3,5)", "(1,2,3)(4)(5)"),
    37: ("(1,4,3)(2,5)", "(1,2)(3,4)(5)"),
    38: ("(1,3,4,5)(2)", "(1,2)(3,4)(5)"),
    39: ("(1,3,5,4)(2)", "(1,2)(3,4)(5)"),
    40: ("(1,5,3,4)(2)", "(1,2)(3,4)(5)"),
}

DEGREE5_ORBITS = [
    frozenset({2, 10, 13}),
    frozenset({1, 3, 4, 5, 6, 7, 8, 9, 11, 12}),
    frozenset({14, 15, 16, 18, 22, 23, 24, 25, 26, 27, 38, 40}),
    frozenset(
        {17, 19, 20, 21, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 39}
    ),
]

# orbit index (into DEGREE5_ORBITS) -> (slope, hyperelliptic)
DEGREE5_ORBIT_FACTS = {
    0: ("28/3", True),
    1: ("9", False),
    2: ("9", False),
    3: ("28/3", True),
}
