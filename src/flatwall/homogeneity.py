"""Flap colorings, palettes, and the homogeneous-subwall search.

A flap coloring assigns each cell one of w colors; the palette of a cycle
is the color set of its influence flaps. A pair is homogeneous when every
internal brick shows the same palette. Walls of height h(r, w) always
contain an r-subwall all of whose tilts are homogeneous, so searching the
subwalls in lexicographic order is guaranteed to succeed at that height.

The search decides each subwall from a table of the source wall's brick
palettes, each computed once, and builds and tilts only the subwall it
returns: a search costs one palette per brick of the wall it reaches.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional

from .errors import InputError, InternalError
from .flatness import Cycle, FlatnessPair, influence
from .tilt import TiltResult, compute_tilt
from .wall import (check_height, internal_slots, subwall, subwall_selections,
                   temp_brick)


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


def palette(F: FlatnessPair, zeta: FlapColoring, C: Cycle) -> FrozenSet:
    """The colors of C's influence flaps; `InputError` if zeta misses one."""
    return frozenset(zeta.color(cid) for cid in influence(F, C))


def is_homogeneous(F: FlatnessPair, zeta: FlapColoring) -> bool:
    return _all_equal(palette(F, zeta, b) for b in F.wall.internal_bricks())


def _all_equal(pals) -> bool:
    """All palettes are one; stops at the first palette that differs."""
    first = next(pals, None)
    return all(p == first for p in pals)


def _brick_palettes(F: FlatnessPair, zeta: FlapColoring):
    """A function from a selection (rows, cols) of W = F.wall to the palettes
    in F of its subwall's internal bricks, in `Wall.internal_bricks` order,
    each computed when it is read, without building the subwall.

    Brick (band k, slot l) of the subwall S bounds the region of W between
    rows rows[k-1], rows[k] and vertical paths cols[l-1], cols[l], or
    cols[r-l-1], cols[r-l] when S is mirrored (rows[1] odd, see `subwall`).
    Its palette is the union of the palettes of W's bricks in the region,
    as its influence is the union of theirs: they tile the disk D that S's
    brick B bounds, each edge of B lies on one of them and each other edge
    of them on two. A cell B runs through holds an edge of B, so a brick of
    W in D runs through it; a cell inside B holds an edge of a brick of W in
    D, which runs through it, or lies inside one. Conversely, a cell such a
    brick runs through or encloses lies in D, so B runs through it or
    encloses it. W's bricks get their palette once, through `palette`, and
    regions their union once, keyed by (row pair, column pair): a region is
    one cycle, whichever subwall has it as a brick.
    """
    W = F.wall
    of_brick: Dict = {}
    of_region: Dict = {}

    def region(ys, ms):
        got = of_region.get((ys, ms))
        if got is None:
            got = frozenset()
            for y in range(*ys):
                for m in range(*ms):
                    pal = of_brick.get((y, m))
                    if pal is None:
                        pal = of_brick[y, m] = palette(
                            F, zeta, W.expand_cycle(temp_brick(y, m)))
                    got |= pal
            of_region[ys, ms] = got
        return got

    def palettes(rows, cols):
        r = len(rows)
        for k, l in internal_slots(r):
            if rows[1] % 2:
                l = r - l
            yield region((rows[k - 1], rows[k]), (cols[l - 1], cols[l]))

    return palettes


def find_homogeneous(G, F: FlatnessPair, zeta: FlapColoring, r: int,
                     allow_short: bool = False) -> Optional[TiltResult]:
    """Tilt of the first r-subwall (lexicographic) whose tilt is homogeneous.

    A subwall S is tested on F itself, from the table of F's brick palettes
    and without building S (`_brick_palettes`): it passes when every
    internal brick of S has the same palette in F. This is exact, because a
    brick keeps its palette under the tilt to S:
    - an internal brick B of S shares no vertex with S's perimeter, so every
      cell that B runs through or encloses is an S-internal cell;
    - the tilt keeps every S-internal cell with its own id and flap (tilt
      properties (ii) and (iii)) and rewires only the perimeter, so B keeps
      its vertex sequence;
    - so B's influence, and with it B's palette, is the same in F and in
      the tilt, and zeta colors every cell of it.
    Only the first subwall that passes is built and tilted, with all of the
    tilt's self-checks; an `InternalError` is raised if its tilt is not
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
    palettes = _brick_palettes(F, zeta)
    for rows, cols in subwall_selections(F.wall, r):
        if not _all_equal(palettes(rows, cols)):
            continue
        S = subwall(F.wall, rows, cols)
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
