"""The integer painting kernel against the tuple-dart tracer it replaced.

Faces, the face of every dart, the spokes, the connected components, the
outer face and `validate_painting`'s messages must agree with
`tests/oracles.py`'s tracer, in its ("n", node) / ("c", cell) terms, on
every painting the golden corpora build (recorded as they are made) and on
a family of broken paintings. An error of the trace must agree too: its
message and its witness.
"""
import itertools

import pytest

import test_golden_bytes as golden
from flatwall.errors import FlatwallError
from flatwall.flatness import generate_fixture
from flatwall.painting import (Painting, _incidence, outer_face, trace_faces,
                               validate_painting)
from oracles import (components_by_tuples, outer_face_by_tuples,
                     painting_problems_by_tuples, spokes_by_table,
                     spokes_by_tuples, trace_faces_by_tuples)
from test_painting import ring


def kernel_view(P):
    inc = _incidence(P)
    out = {"components": [frozenset(inc.keys[v] for v in comp)
                          for comp in inc.comps],
           "problems": validate_painting(P)}
    try:
        out["faces"] = trace_faces(P)
    except FlatwallError as e:
        out["faces"] = e.as_dict()
        return out
    out["face index"] = {(inc.keys[u], inc.keys[v]): f for u, v, f in
                         zip(inc.tail, inc.head, inc.face_of)}
    out["spokes"] = spokes_by_table(P)
    out["outer face"] = outer_face(P)
    return out


def tracer_view(P):
    out = {"components": components_by_tuples(P),
           "problems": painting_problems_by_tuples(P)}
    try:
        faces = out["faces"] = trace_faces_by_tuples(P)
    except FlatwallError as e:
        out["faces"] = e.as_dict()
        return out
    out["face index"] = {d: i for i, f in enumerate(faces) for d in f}
    out["spokes"] = spokes_by_tuples(P)
    out["outer face"] = outer_face_by_tuples(P)
    return out


def _content(P):
    return (P.nodes, tuple(P.cells.items()), tuple(P.rotations.items()),
            P.outer)


def _driver_cases():
    (mark,) = golden.test_driver_outcome_bytes.pytestmark
    return [lambda args=args: golden.test_driver_outcome_bytes(*args)
            for args in mark.args[1]]


CORPORA = {
    "homogeneous search": [golden.test_homogeneous_search_bytes,
                           golden.test_homogeneous_search_bytes_at_height_21],
    "regularize and representation": [
        golden.test_regularize_and_representation_bytes,
        golden.test_representation_bytes_at_height_21],
    "tilt corpus": [golden.test_tilt_corpus_bytes],
    "driver": _driver_cases(),
    "tightening": [golden.test_tightening_bytes],
}


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_kernel_matches_tuple_tracer_on_golden_corpora(corpus, monkeypatch):
    made = []
    init = Painting.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(Painting, "__init__", recording)
    for run in CORPORA[corpus]:
        run()
    monkeypatch.undo()
    seen = set()
    for P in made:
        key = _content(P)
        if key not in seen:
            seen.add(key)
            assert kernel_view(P) == tracer_view(P)
    assert len(seen) > 1


def k5():
    """K5 drawn with a 2-node cell per edge: no rotation system is plane."""
    nodes = list(range(5))
    cells = {f"e{i}{j}": (i, j) for i, j in itertools.combinations(nodes, 2)}
    rot = {i: [cid for cid, b in sorted(cells.items()) if i in b]
           for i in nodes}
    return Painting(nodes, cells, rot, tuple(nodes))


def tampered(P):
    """P broken one way at a time, each a new painting."""
    rot = dict(P.rotations)
    x = next(n for n in P.nodes if len(rot.get(n, ())) >= 3)
    r = list(rot[x])
    r[0], r[1] = r[1], r[0]
    c = max(P.cells, key=lambda c: len(P.cells[c]))
    yield "two rotation entries swapped", Painting(
        P.nodes, P.cells, {**rot, x: r}, P.outer)
    yield "an incidence dropped from a rotation", Painting(
        P.nodes, P.cells, {**rot, x: rot[x][1:]}, P.outer)
    yield "an incidence dropped from a boundary", Painting(
        P.nodes, {**P.cells, c: P.cells[c][1:]}, rot, P.outer)
    yield "a duplicate incidence", Painting(
        P.nodes, P.cells, {**rot, x: rot[x] + rot[x][:1]}, P.outer)
    yield "a boundary node repeated", Painting(
        P.nodes, {**P.cells, c: P.cells[c][:2] + P.cells[c][:1]}, rot,
        P.outer)
    yield "the outer order reversed", Painting(
        P.nodes, P.cells, rot, P.outer[::-1])
    yield "a second component", Painting(
        P.nodes + ("z1", "z2"), {**P.cells, "far": ("z1", "z2")},
        {**rot, "z1": ["far"], "z2": ["far"]}, P.outer)


def _family():
    bases = {"ring": ring(),
             "fixture": generate_fixture(0, 5, "combined")[1]
             .rendition.painting}
    for name, P in bases.items():
        yield name, P
        for how, Q in tampered(P):
            yield f"{name}, {how}", Q
    yield "empty", Painting([], {}, {}, ())
    yield "non-planar", k5()
    # two faces of one length show the outer nodes: the first one wins
    yield "digon", Painting(["a", "b"], {"e1": ("a", "b"), "e2": ("a", "b")},
                            {"a": ["e1", "e2"], "b": ["e1", "e2"]}, ("a", "b"))
    # an outer node without cells is on no face, and is passed over
    P = ring()
    yield "an isolated outer node", Painting(
        P.nodes + ("z",), P.cells, P.rotations, P.outer + ("z",))


FAMILY = list(_family())


@pytest.mark.parametrize("name, P", FAMILY, ids=[name for name, _ in FAMILY])
def test_kernel_matches_tuple_tracer_on_broken_paintings(name, P):
    assert kernel_view(P) == tracer_view(P)
