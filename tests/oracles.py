"""Reference helpers that only the tests need, kept apart from the library."""

from spherotree.thorn import AbstractThorn, SubThorn
from spherotree.tree import Ball, down, up


def split_ball(ball: Ball, arity: int) -> tuple[Ball, ...]:
    """The n balls obtained by moving the cut one edge deeper into the branch."""
    if not ball.up:
        return tuple(down(ball.cut + (c,)) for c in range(arity))
    cut = ball.cut
    if len(cut) == 1:
        return tuple(down((c,)) for c in range(arity + 1) if c != cut[0])
    stem = cut[:-1]
    sibs = tuple(down(stem + (c,)) for c in range(arity) if c != cut[-1])
    return sibs + (up(stem),)


def meets(a: SubThorn, b: SubThorn) -> bool:
    """Cell-level intersection: shared vertices or shared mid-edge points."""
    return bool(a.vertices & b.vertices or a.midpoint_cells() & b.midpoint_cells())


def skeleton_diameter(t: AbstractThorn) -> int:
    """Longest skeleton path in edges, by two breadth-first sweeps."""
    if t.vertex_count <= 1:
        return 0
    far, _ = _farthest(t, 0)
    return _farthest(t, far)[1]


def _farthest(t: AbstractThorn, start: int) -> tuple[int, int]:
    dist = {start: 0}
    frontier = [start]
    best = (start, 0)
    while frontier:
        v = frontier.pop(0)
        for w in t.adjacency[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                if dist[w] > best[1]:
                    best = (w, dist[w])
                frontier.append(w)
    return best
