"""Pinned outputs beyond the golden files: key lists to degree 11 and
orbit documents at degrees 9-11.

- ``KEY_LIST_SHA256`` pins, per census, the keys that
  ``_enumerate_alpha_class`` returns for each alpha class, in the
  order it returns them, with the classes in ``partitions_desc`` order:
  the sha256 of one line per class, ``parts:hex hex ...``.  It covers
  every stratum to degree 8 and H(2) at degrees 10 and 11.
- ``ORBIT_PIN_SHA256`` pins the stdout of ``orbits --format json
  --workers 1`` at (9,(4)), (10,(2)) and (11,(2)), where both label
  kernels and the twist pass run on more than eight squares.

Where an exact oracle checks a pinned census, the oracle vouches for
its content and the pin adds the order and the bytes:

- the Frobenius counts of ``test_frobenius`` check every stratum to
  degree 7, (8,(2)), (8,(3,1)), (8,(2,2)), (8,(6)) and (9,(4)), and
  each alpha-class chunk of H(2) at degree 10;
- the H(2) counts of ``test_genus2_orbits`` (Eskin-Masur-Schmoll and
  Hubert-Lelievre totals, McMullen's orbit split) check (8,(2)),
  (10,(2)) and (11,(2)) and their orbits;
- the brute-force sweep of ``test_census`` checks the censuses it
  lists, all of degree 6 or less.

The other degree-8 strata, (1,1), (4), (2,1,1), (1,1,1,1), (5,1),
(4,2) and (3,3), have the pin alone.  Every value was recorded with
the enumeration and orbit code that the pins were added beside.
"""
import hashlib

import pytest

from origami_census import StratumSignature
from origami_census.census import (
    _enumerate_alpha_class,
    partitions_desc,
    target_class,
)
from origami_census.cli import main
from conftest import strata_at

KEY_LIST_SHA256 = {
    (3, (2,)): "d6a4e8330d32e2133cf215d2e174980807be40468cece9f3dca9c8d5e6ee1e1b",
    (4, (2,)): "d160b559e315caeef148aee7945a212f252aa42df2f86cffbbca690c81088e8c",
    (4, (1, 1)): "8b99cf9b6acea149e13ca8b4a0b3dc7daab772543b5abf8818835741c271e55d",
    (5, (2,)): "d533ce2fb2b7a9453836f374ce125f7155c67635d245dc8180eb5101fd61daf0",
    (5, (1, 1)): "e6cd0bbc79eb717266ea31259aed4e242b50ee8a4a353d77cfd3d9a4e6681f7a",
    (5, (4,)): "4ae34a5442d242011611c962e1f27bb334973a3c233e9a785c1f546c7870c268",
    (6, (2,)): "f7e46bb04b2dff7de77fac8c43fbfe061b2961bb802b4a5083f620141d583342",
    (6, (1, 1)): "26f08b6c77b11c01112c4bf277bcb68975692220507dc2e56273708dc8ab3522",
    (6, (4,)): "2c636a84dbefb783d2b619afa6f6a36ad768fa4a974c4632503d0ad3a1aa6870",
    (6, (3, 1)): "28b20d42d4f9a960af740ad1b8ccaf052ab24d5daa85a1455b0fafab092c545d",
    (6, (2, 2)): "e3e9cc04bf05a6b4bb3594bb8126b999da0e1cdaa64cffe7a8f790acfa37e727",
    (7, (2,)): "7a907b509a9ed2d90a06c7199a5be95aee47a9e83f94390021fb892fbe05bbd2",
    (7, (1, 1)): "5b290d48dfc8987c382d970e54fce6bccbe151f34cc26f766537df00c953f45c",
    (7, (4,)): "282a4f9d819fe85dde6d179f7ca60c9da6eb18ea85ce8167d93d8ccf11dc386a",
    (7, (3, 1)): "3324feded12c979a223f3f2468faf07b680bc9cf29285368eb145e578d9d1011",
    (7, (2, 2)): "b758e2b5ce02df857b1b694c0fe16044d8198142e19c0cd7129ec11200bd25f2",
    (7, (2, 1, 1)): "1cc4c6fbad5d06095e8f27aa16e58c17741673864a5ee8372f8f4413162df144",
    (7, (6,)): "7dcca61eb6c92d23162b93d41cfdaa97e441633438b842de99fc7ea55524944a",
    (8, (2,)): "51d944a26eb75de4eeba79efd4cd140761cb8c7e5d75282727b172b9180cfca0",
    (8, (1, 1)): "38e17aa8036fca6aeea42ec0e2de7e876c900aa75d0c9fbc90b73d6ecff6154d",
    (8, (4,)): "7ee462767b1fb60066a52d561b0a397006ec1c1a5b3627b34c8752d427b0a6f2",
    (8, (3, 1)): "f7b01a7bd8c2d9697df05b81d176bee4945165477498433e1bd4bb89076e39b9",
    (8, (2, 2)): "c3b764448748f847297e2519d4ac3bdebd732fc1e43973d31833343bb0b15e5d",
    (8, (2, 1, 1)): "adca667fb723412dd60e5740c68d0dbc9ffd8c43b34d185b089e9035e7392a9a",
    (8, (1, 1, 1, 1)): "6aadd36c18ad7e13d46b400c5a2fbb33213f176f814940f5fe3d1780c6aef478",
    (8, (6,)): "ae428898db13e1b91e3273e49bb154dcf918d4b598c25bebbde75de0f88a5d70",
    (8, (5, 1)): "30b620d72c657c6fb241b934a494a8da0bc67b593db557f8499d2589b58f28de",
    (8, (4, 2)): "884911685bd27b0bf6f4ec2d8907e367672dfeeb65335c714e14617739347831",
    (8, (3, 3)): "3110a683730ab24a8da8696e04bfec0517a6ab28179ad99360573a508f97b6a0",
    (10, (2,)): "916a5b9a45331740204fa50af2c306e61e9caee40b958a549e0e7edba09146a9",
    (11, (2,)): "9cc33e802eb7bb070081c15e8fce3d1e980ff5a7da4c5f19ef1a21d1090b03ae",
}

ORBIT_PIN_SHA256 = {
    (9, "4"): "f7833a1a60a84a94565fab090cb25c136b44b40f63fa11e50d7e7439ba1810d8",
    (10, "2"): "ccc79ce49eb7876cbb6b1316893db875e4a003f35514ee1d4dc4bc6acd00fa79",
    (11, "2"): "94f1a3fbcd775517bda436758a8bf5ac0bbd78585cc056508a4d0b08dec43f67",
}


def key_list_digest(d: int, mu: tuple[int, ...]) -> str:
    target = target_class(d, StratumSignature.from_parts(mu))
    h = hashlib.sha256()
    for alpha in partitions_desc(d):
        keys = _enumerate_alpha_class(d, alpha, target)
        line = ",".join(map(str, alpha)) + ":" + " ".join(k.hex() for k in keys)
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def test_key_list_pins_cover_every_stratum_to_degree_8():
    assert {k for k in KEY_LIST_SHA256 if k[0] <= 8} == {
        (d, mu) for d in range(1, 9) for mu in strata_at(d)
    }


@pytest.mark.parametrize("d,mu", sorted(KEY_LIST_SHA256))
def test_key_lists_match_pin(d, mu):
    assert key_list_digest(d, mu) == KEY_LIST_SHA256[(d, mu)]


@pytest.mark.parametrize("d,mu", sorted(ORBIT_PIN_SHA256))
def test_orbits_json_matches_pin(capsys, tmp_path, d, mu):
    code = main([
        "orbits", "--degree", str(d), "--mu", mu, "--format", "json",
        "--workers", "1", "--cache-dir", str(tmp_path),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ORBIT_PIN_SHA256[(d, mu)]
