"""One word format: every word a package function hands on is
``bytes``, one byte per letter, and every key is the census's own.

Each case returns (words, keys) for the census of (5, (4,)): the words
must all be ``bytes``, and ``keys``, where given, must be the census's
keys in order.
"""
import pytest

from origami_census.census import Census
from origami_census.involutions import find_anti_involutions
from origami_census.perm import (
    centralizer_generators,
    class_representative,
    class_words,
    compose,
    conjugators_onto,
    cycle_rotations,
    inverse_word,
    perm_from_cycles,
)
from origami_census.surface import canonical_form

A = perm_from_cycles("(1,2,3,4)(5)")
B = perm_from_cycles("(1,5)(2)(3)(4)")


def member_words(census: Census):
    members = [census.member(k) for k in census]
    return (
        [w for o in members for w in (o.alpha.word, o.beta.word)],
        [o.alpha.word + o.beta.word for o in members],
    )


CASES = {
    "perm_from_cycles": lambda c: ([A.word, B.word], None),
    "compose": lambda c: ([compose(A, B).word], None),
    "Perm.inverse": lambda c: ([A.inverse().word], None),
    "inverse_word": lambda c: ([inverse_word(A.word)], None),
    "class_words": lambda c: (list(class_words((3, 1, 1), 5)), None),
    "conjugators_onto": lambda c: (
        list(conjugators_onto(A.word, cycle_rotations(A.word), [(4,)])), None
    ),
    "class_representative": lambda c: (
        [class_representative((3, 2))], None
    ),
    "centralizer_generators": lambda c: (
        centralizer_generators(A.word), None
    ),
    "canonical_form": lambda c: (
        [], [canonical_form(o.alpha.word, o.beta.word) for o in c.values()]
    ),
    "Census.member": member_words,
    "find_anti_involutions": lambda c: (
        [r.tau for o in c.values() for r in find_anti_involutions(o)],
        None,
    ),
}


@pytest.mark.parametrize("name", list(CASES))
def test_words_are_bytes_and_keys_the_census_own(name, census_of):
    census = census_of(5, (4,))
    words, keys = CASES[name](census)
    assert words or keys
    assert all(type(w) is bytes for w in words)
    if keys is not None:
        assert all(type(k) is bytes for k in keys)
        assert keys == list(census)
