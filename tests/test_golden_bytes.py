"""Pinned canonical bytes of the search, the transforms and the driver.

The hashes were taken from the library before the tilt self-checks were
memoised. A change that only makes the library faster or smaller must leave
every one of them as it is; a deliberate format change updates them.
"""
import hashlib

import pytest

from flatwall.config import unit_params
from flatwall.flatness import generate_fixture
from flatwall.homogeneity import example_coloring, find_homogeneous
from flatwall.leveling import representation
from flatwall.pipeline import (OracleAnswer, ScriptedOracle,
                               ScriptedTreewidthDecider, flat_wall_driver)
from flatwall.serialize import (canonical_bytes, outcome_to_json,
                                pair_to_json, representation_to_json)
from flatwall.tilt import regularize


def _sha(obj) -> str:
    return hashlib.sha256(canonical_bytes(obj)).hexdigest()


def test_homogeneous_search_bytes():
    G, F = generate_fixture(0, 9, "with-flaps")
    res = find_homogeneous(G, F, example_coloring(F, 2), 5, allow_short=True)
    assert _sha(pair_to_json(G, res.pair)) == (
        "c57dbac24e5458b90b2c86376f9cc7ae0070a0fc1412e3bba514933114fddfc4")


def test_regularize_and_representation_bytes():
    G, F = generate_fixture(0, 7, "combined")
    out = regularize(G, F)
    assert _sha(pair_to_json(G, out)) == (
        "59c02aa645cd64ff28394d3828b8f3b688d03133ecb582f82c8c4197a8507369")
    assert _sha(representation_to_json(representation(out))) == (
        "b97498c980aa491217727938dc08b2344cbad285554f71c10500873f47462636")


@pytest.mark.parametrize("height, t, kind, digest", [
    # below the height the compass search needs, the driver reports a minor
    (9, 2, "minor",
     "f9e88a0ba6c9c434edaefd62fa8390dcd226d5bb57ab2a9789092ffaf6894081"),
    # a flat wall, through the four tilts of the compass search
    (33, 2, "flat-wall",
     "ecc85a93b261f0c8587e3a9f06eb927411a844b1551ef18ed210e83259d24f97"),
])
def test_driver_outcome_bytes(height, t, kind, digest):
    UP = unit_params()
    G, F = generate_fixture(0, height)
    rows = tuple(range(1, height + 1))
    ans = OracleAnswer("flat", pair=F, subwall_rows=rows, subwall_cols=rows)
    out = flat_wall_driver(G, 3, t, ScriptedOracle([ans]), UP,
                           ScriptedTreewidthDecider(["high", "default"], UP))
    assert out.kind == kind
    assert _sha(outcome_to_json(out)) == digest
