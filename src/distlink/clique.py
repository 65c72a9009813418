"""Exact maximum-clique search on simple undirected graphs.

The solver is a sequential branch-and-bound with greedy-colouring upper
bounds over bitset adjacency rows.  It is deterministic: with the fixed
vertex ordering (descending degree, ties by ascending index) the same
input always yields the same clique.  The same search, told to keep
ties, enumerates every maximum clique.  A configurable node budget turns
runaway instances into an explicit error instead of a silent heuristic
answer.  Brute-force oracles for small graphs live here as well; the
test suite checks the solver against them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .errors import InputFormatError, ResourceBudgetError, SizeLimitError

DEFAULT_NODE_BUDGET = 10**8


class SimpleGraph:
    """Undirected graph stored as one adjacency bitmask per vertex."""

    def __init__(self, n: int, rows: Sequence[int], validate: bool = True) -> None:
        if n < 0:
            raise InputFormatError("vertex count must be nonnegative")
        rows = list(rows)
        if len(rows) != n:
            raise InputFormatError(f"expected {n} adjacency rows, got {len(rows)}")
        if validate:
            for i, row in enumerate(rows):
                if row < 0 or row >> n:
                    raise InputFormatError(f"row {i} references vertices outside 0..{n - 1}")
                if row >> i & 1:
                    raise InputFormatError(f"self-loop at vertex {i}")
            for i in range(n):
                for j in _bits(rows[i]):
                    if not rows[j] >> i & 1:
                        raise InputFormatError(f"asymmetric adjacency between {i} and {j}")
        self.n = n
        self.rows = rows

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple]) -> "SimpleGraph":
        rows = [0] * n
        for i, j in edges:
            if i == j:
                raise InputFormatError(f"self-loop at vertex {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise InputFormatError(f"edge ({i}, {j}) out of range")
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        return cls(n, rows)

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.rows[i] >> j & 1)

    def degree(self, i: int) -> int:
        return self.rows[i].bit_count()

    def edge_count(self) -> int:
        return sum(self.degree(i) for i in range(self.n)) // 2

    def edges(self) -> list:
        return [(i, j) for i in range(self.n) for j in _bits(self.rows[i]) if i < j]


def _bits(mask: int):
    """Yield set bit positions of a mask, ascending."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


@dataclass(frozen=True)
class CliqueResult:
    vertices: tuple
    size: int
    nodes_explored: int
    elapsed_seconds: float


def _check_clique(g: SimpleGraph, vertices: Sequence[int]) -> None:
    for a in vertices:
        for b in vertices:
            if a != b and not g.has_edge(a, b):
                raise AssertionError(f"reported clique not pairwise adjacent: {a}, {b}")


def _colour_classes(rows: Sequence[int], cand: int) -> list:
    """Greedy colouring of the candidate set by colour classes.

    Returns (vertex, colour) pairs grouped by ascending colour; a
    vertex's colour bounds the largest clique containing it within the
    candidates, which drives the search's pruning.
    """
    out = []
    rest = cand
    colour = 0
    while rest:
        colour += 1
        avail = rest
        while avail:
            b = avail & -avail
            v = b.bit_length() - 1
            out.append((v, colour))
            avail &= ~(rows[v] | b)
            rest ^= b
    return out


class _Search:
    """Branch-and-bound over a degree-sorted copy of the graph, run on
    construction.

    best_masks holds cliques of size best_size, starting from the empty
    clique: the first one found, or with keep_ties every one that ties
    the incumbent.
    """

    def __init__(self, g: SimpleGraph, node_budget: int, keep_ties: bool = False) -> None:
        order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
        pos = {v: k for k, v in enumerate(order)}
        rows = [0] * g.n
        for v in range(g.n):
            for w in _bits(g.rows[v]):
                rows[pos[v]] |= 1 << pos[w]
        self.rows = rows
        self.order = order
        self.budget = node_budget
        self.keep_ties = keep_ties
        self.nodes = 0
        self.best_size = 0
        self.best_masks = [0]
        if g.n:
            self.expand(0, 0, (1 << g.n) - 1)

    def _spend(self) -> None:
        self.nodes += 1
        if self.nodes > self.budget:
            raise ResourceBudgetError(
                f"clique search exceeded its node budget of {self.budget}")

    def expand(self, size: int, mask: int, cand: int) -> None:
        for v, colour in reversed(_colour_classes(self.rows, cand)):
            # a branch that cannot beat the incumbent (or, keeping ties,
            # cannot reach it) is cut, together with every lower colour
            if size + colour + self.keep_ties <= self.best_size:
                return
            self._spend()
            b = 1 << v
            nxt = cand & self.rows[v]
            if nxt:
                self.expand(size + 1, mask | b, nxt)
            elif size + 1 > self.best_size:
                self.best_size = size + 1
                self.best_masks = [mask | b]
            elif self.keep_ties and size + 1 == self.best_size:
                self.best_masks.append(mask | b)
            cand &= ~b

    def vertices(self, mask: int) -> tuple:
        return tuple(sorted(self.order[v] for v in _bits(mask)))


def max_clique(g: SimpleGraph, node_budget: int = DEFAULT_NODE_BUDGET) -> CliqueResult:
    """Find a maximum clique exactly.

    Deterministic and sequential; among multiple maximum cliques the
    first optimum under the fixed search order is returned.  Raises
    ResourceBudgetError when node_budget branch nodes are exceeded.
    """
    start = time.perf_counter()
    search = _Search(g, node_budget)
    vertices = search.vertices(search.best_masks[0])
    _check_clique(g, vertices)
    return CliqueResult(vertices, len(vertices), search.nodes,
                        time.perf_counter() - start)


def enumerate_maximum_cliques(g: SimpleGraph, node_budget: int = DEFAULT_NODE_BUDGET) -> list:
    """All maximum cliques, each as a sorted vertex tuple, in ascending
    lexicographic order; the empty graph gives [()].

    One pass of the branch-and-bound behind max_clique that keeps every
    clique tying the incumbent and drops them when it grows.  Raises
    ResourceBudgetError when node_budget branch nodes are exceeded.
    """
    search = _Search(g, node_budget, keep_ties=True)
    return sorted(search.vertices(mask) for mask in search.best_masks)


def brute_force_max_clique(g: SimpleGraph, max_n: int = 25) -> CliqueResult:
    """Exhaustive oracle: recursively extend cliques in index order.

    Independent of the branch-and-bound solver (no colouring, no vertex
    reordering), which is what makes it a trustworthy cross-check.
    """
    if g.n > max_n:
        raise SizeLimitError(f"brute force limited to {max_n} vertices, got {g.n}")
    start = time.perf_counter()
    best = [0, 0]
    nodes = [0]

    def extend(mask: int, size: int, cand: int) -> None:
        nodes[0] += 1
        if size > best[0]:
            best[0] = size
            best[1] = mask
        rest = cand
        while rest:
            b = rest & -rest
            v = b.bit_length() - 1
            rest ^= b
            extend(mask | b, size + 1, cand & g.rows[v] & ~((b << 1) - 1))

    extend(0, 0, (1 << g.n) - 1)
    vertices = tuple(sorted(_bits(best[1])))
    _check_clique(g, vertices)
    return CliqueResult(vertices, best[0], nodes[0], time.perf_counter() - start)


def greedy_coloring_bound(g: SimpleGraph, candidate_set: Optional[Iterable[int]] = None) -> int:
    """Number of colour classes of a greedy colouring of the induced
    subgraph; an upper bound on its clique number."""
    if candidate_set is None:
        cand = (1 << g.n) - 1
    else:
        cand = 0
        for v in candidate_set:
            if not 0 <= v < g.n:
                raise InputFormatError(f"vertex {v} out of range")
            cand |= 1 << v
    classes = _colour_classes(g.rows, cand)
    return classes[-1][1] if classes else 0


def count_cliques_of_size(g: SimpleGraph, k: int) -> int:
    """Number of vertex subsets of size k that are cliques, by recursive
    subset enumeration in index order.  k = 0 counts the empty clique."""
    if k < 0:
        raise InputFormatError("k must be nonnegative")
    if k == 0:
        return 1

    def rec(depth: int, cand: int) -> int:
        if depth == k:
            return 1
        total = 0
        rest = cand
        while rest:
            b = rest & -rest
            v = b.bit_length() - 1
            rest ^= b
            nxt = cand & g.rows[v] & ~((b << 1) - 1)
            if k - depth - 1 <= nxt.bit_count():
                total += rec(depth + 1, nxt)
        return total

    return rec(0, (1 << g.n) - 1)


def write_dimacs(g: SimpleGraph, path, comment: Optional[str] = None) -> None:
    """Write the graph in DIMACS ascii clique format (1-based vertices)."""
    path = Path(path)
    lines = []
    if comment:
        for part in comment.splitlines():
            lines.append(f"c {part}")
    edges = g.edges()
    lines.append(f"p edge {g.n} {len(edges)}")
    for i, j in edges:
        lines.append(f"e {i + 1} {j + 1}")
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def read_dimacs(path) -> SimpleGraph:
    path = Path(path)
    n = None
    edges = []
    with path.open(encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            parts = line.split()
            if parts[0] == "p":
                if n is not None:
                    raise InputFormatError(f"{path}:{lineno}: repeated problem line")
                if len(parts) != 4 or parts[1] != "edge":
                    raise InputFormatError(f"{path}:{lineno}: malformed problem line")
                n = int(parts[2])
            elif parts[0] == "e":
                if n is None:
                    raise InputFormatError(f"{path}:{lineno}: edge before problem line")
                if len(parts) != 3:
                    raise InputFormatError(f"{path}:{lineno}: malformed edge line")
                i, j = int(parts[1]) - 1, int(parts[2]) - 1
                if i == j:
                    raise InputFormatError(f"{path}:{lineno}: self-loop")
                if not (0 <= i < n and 0 <= j < n):
                    raise InputFormatError(f"{path}:{lineno}: vertex out of range")
                edges.append((i, j))
            else:
                raise InputFormatError(f"{path}:{lineno}: unknown line type '{parts[0]}'")
    if n is None:
        raise InputFormatError(f"{path}: missing problem line")
    return SimpleGraph.from_edges(n, edges)
