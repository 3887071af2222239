"""Flap colorings, palettes, and the homogeneous-subwall search.

A flap coloring assigns each cell one of w colors; the palette of a cycle
is the color set of its influence flaps. A pair is homogeneous when every
internal brick shows the same palette. Walls of height h(r, w) always
contain an r-subwall all of whose tilts are homogeneous, so searching the
subwalls in lexicographic order is guaranteed to succeed at that height.
The search reads each subwall's brick palettes off the source pair and
tilts only the first subwall that passes.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Sequence, Union

from .errors import InputError, InternalError
from .flatness import FlatnessPair, influence
from .tilt import TiltResult, compute_tilt
from .wall import Wall, check_height, enumerate_subwalls


@dataclass(frozen=True)
class FlapColoring:
    """A total map from cell ids to colors 1..w.

    `color` raises `InputError` for a cell the map lacks. A tilt's chain
    cells are new cells, so a coloring of F has no color for them.
    """

    colors: Dict[object, int]
    w: int

    def __post_init__(self):
        if self.w < 1:
            raise InputError("a coloring needs at least one color")
        bad = [c for c, k in self.colors.items()
               if not isinstance(k, int) or not 1 <= k <= self.w]
        if bad:
            raise InputError("color outside 1..w", witness=sorted(bad, key=str))

    def color(self, cid) -> int:
        if cid in self.colors:
            return self.colors[cid]
        raise InputError("coloring misses a flap", witness=cid)


def example_coloring(F: FlatnessPair, k: int = 2) -> FlapColoring:
    """A demo coloring by boundary size and flap order mod k; not canonical."""
    colors = {}
    for cid, g in F.rendition.sigma.items():
        b = len(F.rendition.painting.cells[cid])
        colors[cid] = 1 + (b + g.n) % k
    return FlapColoring(colors, max(k, max(colors.values(), default=1)))


def h(r: int, w: int) -> int:
    check_height(r)
    if w < 1:
        raise InputError("color count must be positive", witness=w)
    val = r
    for _ in range(w - 1):
        val = r * (val - 1) + 1
    return val


Cycle = Union[Wall, Sequence]


def palette(F: FlatnessPair, zeta: FlapColoring, C: Cycle) -> FrozenSet:
    """The colors of C's influence flaps; `InputError` if zeta misses one."""
    return frozenset(zeta.color(cid) for cid in influence(F, C))


def is_homogeneous(F: FlatnessPair, zeta: FlapColoring) -> bool:
    return _one_palette(F, zeta, F.wall.internal_bricks())


def _one_palette(F: FlatnessPair, zeta: FlapColoring, bricks) -> bool:
    """All bricks show one palette; stops at the first brick that differs."""
    pals = (palette(F, zeta, b) for b in bricks)
    first = next(pals, None)
    return all(p == first for p in pals)


def find_homogeneous(G, F: FlatnessPair, zeta: FlapColoring, r: int,
                     allow_short: bool = False) -> Optional[TiltResult]:
    """Tilt of the first r-subwall (lexicographic) whose tilt is homogeneous.

    A subwall S is tested on F itself: it passes when every internal brick
    of S has the same palette in F. This is exact, because a brick keeps its
    palette under the tilt to S:
    - an internal brick B of S shares no vertex with S's perimeter, so every
      cell that B runs through or encloses is an S-internal cell;
    - the tilt keeps every S-internal cell with its own id and flap (tilt
      properties (ii) and (iii)) and rewires only the perimeter, so B keeps
      its vertex sequence;
    - so B's influence, and with it B's palette, is the same in F and in
      the tilt, and zeta colors every cell of it.
    Only the first subwall that passes is tilted, with all of the tilt's
    self-checks; an `InternalError` is raised if its tilt is not
    homogeneous after all, or shows a brick flap that zeta does not color.
    The tilt's chain cells get no color: a palette of a cycle larger than a
    brick may meet them, and `palette` then raises `InputError`. This is
    deliberate: a caller who wants such palettes colors the chain cells
    itself, say from the tilt's `provenance`, which maps each chain cell to
    its (source cell, piece index).
    """
    need = h(r, zeta.w)
    if F.height < need and not allow_short:
        raise InputError(
            f"height {F.height} is below the guarantee threshold {need}",
            witness=(r, zeta.w))
    for rows, cols, S in enumerate_subwalls(F.wall, r):
        if not _one_palette(F, zeta, S.internal_bricks()):
            continue
        res = compute_tilt(G, F, S)
        where = {"rows": list(rows), "cols": list(cols)}
        try:
            same = is_homogeneous(res.pair, zeta)
        except InputError as exc:
            raise InternalError("tilt of a homogeneous subwall has a brick "
                                "flap the coloring misses",
                                witness=where) from exc
        if not same:
            raise InternalError("tilt of a homogeneous subwall is not "
                                "homogeneous", witness=where)
        return res
    if allow_short:
        return None
    raise InternalError(
        "no homogeneous subwall found despite admissible height")
