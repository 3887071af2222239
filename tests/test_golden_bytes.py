"""Pinned canonical bytes of the search, the transforms, the tilts, the
driver, tightening and the min-fill decomposition.

The hashes were taken from the library before the tilt self-checks were
memoised, the tightening hash before `tighten` took its worklists from the
detectors of `check_tightness` (and again when it stopped keeping the
condition (v) notes of passes before its last, which changed the notes of
17 `separated_fan` draws and no rendition), the min-fill hash from the scan
that sorted every remaining vertex on each step, and the tilt-corpus hash
from the tilt that built its rotation system by hand instead of through the
tightening editor, and the height-21 search hash from the search that built
every candidate subwall. The driver hashes were taken again when the unused
parameter function f_confrontation left the
`params` of every outcome. A change that only makes the library faster or
smaller must leave every one of them as it is; a deliberate change of the
output updates them.
"""
import hashlib
import random

import pytest

from flatwall.config import unit_params
from flatwall.errors import FlatwallError
from flatwall.flatness import generate_fixture
from flatwall.graph import min_fill_decomposition, vkey
from flatwall.homogeneity import example_coloring, find_homogeneous
from flatwall.leveling import representation
from flatwall.pipeline import (OracleAnswer, ScriptedOracle,
                               ScriptedTreewidthDecider, flat_wall_driver)
from flatwall.rendition import check_tightness, tighten
from flatwall.serialize import (canonical_bytes, outcome_to_json,
                                pair_to_json, representation_to_json,
                                rendition_to_json)
from flatwall.serialize import enc
from flatwall.tilt import compute_tilt, regularize
from flatwall.wall import choices_of_pegs_corners, elementary_wall

from oracles import enumerate_subwalls
from test_rendition import (ground_separator_rendition, random_chords,
                            ring_rendition, separated_fan,
                            shared_boundary_chords)
from test_wall import random_subdivision


def _sha(obj) -> str:
    return hashlib.sha256(canonical_bytes(obj)).hexdigest()


def test_homogeneous_search_bytes():
    G, F = generate_fixture(0, 9, "with-flaps")
    res = find_homogeneous(G, F, example_coloring(F, 2), 5, allow_short=True)
    assert _sha(pair_to_json(G, res.pair)) == (
        "c57dbac24e5458b90b2c86376f9cc7ae0070a0fc1412e3bba514933114fddfc4")


def test_homogeneous_search_bytes_at_height_21():
    # the search of the benchmark's transforms workload
    G, F = generate_fixture(0, 21, "base")
    res = find_homogeneous(G, F, example_coloring(F, 2), 5, allow_short=True)
    assert _sha(pair_to_json(G, res.pair)) == (
        "2767e404e7cedf0c406e54a1445d98018de791162d54070a559e7fd48f4119df")


def test_regularize_and_representation_bytes():
    G, F = generate_fixture(0, 7, "combined")
    out = regularize(G, F)
    assert _sha(pair_to_json(G, out)) == (
        "59c02aa645cd64ff28394d3828b8f3b688d03133ecb582f82c8c4197a8507369")
    assert _sha(representation_to_json(representation(out))) == (
        "b97498c980aa491217727938dc08b2344cbad285554f71c10500873f47462636")


def test_representation_bytes_at_height_21():
    # taken from the recursive search with the recursion limit raised
    G, F = generate_fixture(0, 21, "with-flaps")
    out = regularize(G, F)
    assert _sha(representation_to_json(representation(out))) == (
        "45834ebd91481e23a1be308961f98f0cbee981d3c789c9f88d37c6c6f4250da2")


def test_tilt_corpus_bytes():
    # every 3-subwall tilt of three defect profiles; the with-untidy2
    # subwalls whose tilt fails its own check (ROADMAP item 9) give their
    # error instead
    digest = hashlib.sha256()
    for profile in ("with-untidy", "with-untidy2", "combined"):
        for seed in range(4):
            G, F = generate_fixture(seed, 5, profile)
            for rows, cols, Wp in enumerate_subwalls(F.wall, 3):
                try:
                    res = compute_tilt(G, F, Wp)
                except FlatwallError as exc:
                    out = [type(exc).__name__, str(exc)]
                else:
                    out = [pair_to_json(G, res.pair),
                           [[enc(k), enc(c), i] for k, (c, i) in
                            sorted(res.provenance.items(),
                                   key=lambda kv: vkey(kv[0]))]]
                digest.update(canonical_bytes([profile, seed, rows, cols,
                                               out]))
    assert digest.hexdigest() == (
        "d612d9b85ba3dce879c705c5fe3ae37ef46f114941df698b732291537af2d012")


@pytest.mark.parametrize("height, t, kind, digest", [
    # below the height the compass search needs, the driver reports a minor
    (9, 2, "minor",
     "8dba7b4b870ffb2590301e43601c50427a02cbc9ccc2fed3d9c08763dc605a24"),
    # a flat wall, through the four tilts of the compass search
    (33, 2, "flat-wall",
     "170516987e2c1e6c0e8104e5678a640bc2576f859e1aa7de66c390d007b299a6"),
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


def _tightening(G, R):
    notes = []
    T = tighten(G, R, notes)
    return [check_tightness(G, R).violations, rendition_to_json(T), notes,
            check_tightness(G, T).violations]


def test_tightening_bytes():
    # the ring draws of criterion 1, then draws that violate (iv) and (v)
    runs = [_tightening(*ring_rendition(random_chords(random.Random(s))))
            for s in range(100)]
    runs += [_tightening(*ring_rendition(
        shared_boundary_chords(random.Random(s)))) for s in range(60)]
    runs += [_tightening(*separated_fan(random.Random(s))) for s in range(60)]
    runs.append(_tightening(*ground_separator_rendition()))
    assert _sha(runs) == (
        "9c05bfe81b9153cf4f9253574abfa0fdab3b02d4d1dce161902ee9b5ab830188")


def test_min_fill_decomposition_bytes():
    # the graphs on which the cli workload runs the default decider
    decs = []
    for seed in (1401000, 1401001):
        for height in (21, 25):
            td = min_fill_decomposition(generate_fixture(seed, height)[0])
            decs.append([[sorted(td.bags[i], key=vkey)
                          for i in range(len(td.bags))],
                         [list(e) for e in td.tree_edges]])
    assert _sha(decs) == (
        "93abcb74d60e58355fa3bf08ece306a231b32818ba863249acc9f287c7657a3d")


def test_pegs_corners_sequence_bytes():
    # every choice in the order it is yielded, over walls with one skeleton
    # embedding (heights 5, 7) and with several (height 3, subdivisions)
    walls = [elementary_wall(r) for r in (3, 5, 7)]
    walls += [random_subdivision(elementary_wall(3), s) for s in (7, 8)]
    seqs = [[[sorted(pc.pegs, key=vkey), sorted(pc.corners, key=vkey)]
             for pc in choices_of_pegs_corners(W)] for W in walls]
    assert _sha(seqs) == (
        "dff661749ad93c3ab94a2ed2f6262a35b5d118a275e70a6b4bb8c06f4a089ba2")
