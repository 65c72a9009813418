"""Exact maximum-clique search on simple undirected graphs.

A graph is held in one sparse format, a symmetric CSR with ascending
rows; bitsets exist only inside the search.  The solver is a sequential
branch-and-bound with greedy-colouring bounds over bitset candidate
sets.  It is deterministic: with the fixed vertex ordering (descending
degree, ties by ascending index) the same input always yields the same
clique.  The same search, told to keep ties, enumerates every maximum
clique.  A node budget turns runaway instances into an explicit error
instead of a silent heuristic answer.  Brute-force oracles for small
graphs, on a bitset view of the graph, live here as well; the test
suite checks the solver against them.

Graphs with more than SPLIT_MIN_VERTICES vertices are split at the root
(the ego-network reduction of Chang, KDD 2019).  One pass over the CSR
rows, a block at a time, colours the root first-fit, which gives the
colours of the class-by-class colouring and so the same root order, and
hands each edge to its end swept first.  Each root branch v then
searches only the candidates it would have had (v's neighbours not yet
swept) on local bitsets |S| bits wide instead of |V|, with ids in
ascending global order, so colourings, pruning, node counts and the
cliques found are those of the unsplit search, which stays as the oracle
and as the path for smaller graphs.  A branch whose candidates cannot
hold a large enough clique by a degree bound is skipped before
any rows are built, exactly where the unsplit search would have cut it.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import InputFormatError, ResourceBudgetError, SizeLimitError

DEFAULT_NODE_BUDGET = 10**8

#: graphs with more vertices than this are searched split at the root; the
#: per-branch gathers cost more than narrow big-int masks below it
SPLIT_MIN_VERTICES = 4096

#: array entries the product join and the CSR builder handle at once
BLOCK = 1 << 16


class SimpleGraph:
    """Undirected graph in symmetric CSR form: the neighbours of vertex v
    are indices[indptr[v]:indptr[v + 1]], in ascending order.

    rows is a bitset view (one int of n bits per vertex) built on first
    use, for the small-graph oracles; the solver never reads it.
    """

    def __init__(self, n: int, indptr, indices, validate: bool = True) -> None:
        indptr = np.asarray(indptr, dtype=np.int64)
        if validate:
            indices = np.asarray(indices, dtype=np.int64)
            if n < 0:
                raise InputFormatError("vertex count must be nonnegative")
            if indptr.shape != (n + 1,) or indptr[0] != 0 or indptr[-1] != len(indices) \
                    or np.any(np.diff(indptr) < 0):
                raise InputFormatError(f"indptr must be {n + 1} nondecreasing offsets, 0 to {len(indices)}")
            src = np.repeat(np.arange(n), np.diff(indptr))
            own = csr_graph(n, _edge_keys(n, src, indices))  # the CSR of its own edges
            if not (np.array_equal(own.indptr, indptr) and np.array_equal(own.indices, indices)):
                raise InputFormatError("adjacency must be symmetric, each row strictly ascending")
        self.n = n
        self.indptr = indptr
        self.indices = np.asarray(indices, dtype=np.int32)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple]) -> "SimpleGraph":
        """The graph with the given edges; repeats and reversals merge."""
        pairs = np.array(list(edges) or np.empty((0, 2)), dtype=np.int64)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise InputFormatError("edges must be vertex pairs")
        return csr_graph(n, _edge_keys(n, pairs[:, 0], pairs[:, 1]))

    def has_edge(self, i: int, j: int) -> bool:
        return j in self.indices[self.indptr[i]:self.indptr[i + 1]]

    def degree(self, i: int) -> int:
        return int(self.indptr[i + 1] - self.indptr[i])

    def edge_count(self) -> int:
        return len(self.indices) // 2

    def edge_array(self) -> tuple:
        """The edges as two int32 arrays (x, y), x < y, in ascending
        (x, y) order: the upper triangle of the CSR."""
        src = np.repeat(np.arange(self.n, dtype=np.int32), np.diff(self.indptr))
        upper = src < self.indices
        return src[upper], self.indices[upper]

    def edges(self) -> list:
        x, y = self.edge_array()
        return list(zip(x.tolist(), y.tolist()))

    @functools.cached_property
    def rows(self) -> list:
        return bitset_rows(self.n, *self.edge_array())


def _edge_keys(n: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The int64 keys min * n + max of the edges (x[k], y[k]), for
    csr_graph, after refusing n outside 0..2**31 - 1 (int32 ids),
    self-loops and ids outside 0..n-1."""
    if not 0 <= n < 2**31:
        raise InputFormatError("vertex count must be nonnegative and below 2**31")
    bad = np.flatnonzero((x == y) | (np.minimum(x, y) < 0) | (np.maximum(x, y) >= n))
    if bad.size:
        i, j = int(x[bad[0]]), int(y[bad[0]])
        raise InputFormatError(f"self-loop at vertex {i}" if i == j else f"edge ({i}, {j}) out of range")
    key = np.minimum(x, y, dtype=np.int64)
    key *= n
    key += np.maximum(x, y)
    return key


def csr_graph(n: int, key: np.ndarray) -> SimpleGraph:
    """The graph on 0..n-1 with the edges x < y given by the int64 keys
    x * n + y, repeats merged; self-loops and out-of-range ids are the
    caller's to exclude.  The keys, taken over and overwritten, are sorted
    as they are, for the rows' upper halves, then transposed in place, for
    the lower ones: each half is scattered in blocks straight into the
    int32 indices."""
    key.sort()
    fresh = key[1:] != key[:-1]
    if not fresh.all():
        key = key[np.concatenate(([True], fresh))]
    del fresh
    # edges in rows below v: upper[v] as the lower end, lower[v] as the upper end
    upper = np.searchsorted(key, np.arange(n + 1) * n)
    lower = np.concatenate(([0], np.cumsum(np.bincount(key % n, minlength=n))))
    indices = np.empty(2 * len(key), np.int32)
    for transposed, offset in enumerate((lower[1:], upper[:-1])):
        if transposed:
            key.sort()
        # the i-th key, r * n + c, puts c at indices[offset[r] + i]
        for start in range(0, len(key), BLOCK):
            part = key[start:start + BLOCK]
            r = part // n
            c = part - r * n
            indices[offset[r] + np.arange(start, start + len(part))] = c
            if not transposed:
                part[:] = c * n + r
    return SimpleGraph(n, upper + lower, indices, validate=False)


def bitset_rows(n: int, x: np.ndarray, y: np.ndarray) -> list:
    """Adjacency bitmask rows of the undirected graph on vertices 0..n-1
    with edges (x[k], y[k]), through a transient n * ceil(n / 8) byte
    buffer.  Repeated edges are harmless; self-loops and out-of-range ids
    are the caller's to exclude."""
    nb = (n + 7) // 8
    buf = np.zeros(n * nb, np.uint8)
    for a, b in ((x, y), (y, x)):
        b = np.asarray(b, dtype=np.int64)
        np.bitwise_or.at(buf, np.asarray(a, dtype=np.int64) * nb + (b >> 3),
                         np.left_shift(1, b & 7).astype(np.uint8))
    view = memoryview(buf)
    return [int.from_bytes(view[k * nb:(k + 1) * nb], "little") for k in range(n)]


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
    """Raise AssertionError unless the vertices are pairwise adjacent: one
    gather of their CSR rows, where each member must find the other |C| - 1
    members; only a failure walks the pairs, to name one that is missing."""
    # not np.unique: its first call imports numpy.ma, 1.7 MB of peak RSS
    members = np.array(sorted(set(vertices)), dtype=np.int64)
    nbrs, lengths = _gather(g.indptr, g.indices, members)
    owner = np.repeat(np.arange(len(members)), lengths)
    pos = np.minimum(np.searchsorted(members, nbrs), len(members) - 1)
    hits = np.bincount(owner[members[pos] == nbrs], minlength=len(members))
    if np.all(hits == len(members) - 1):
        return
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


def _gather(indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray) -> tuple:
    """The CSR lists of the given rows, concatenated, and their lengths."""
    starts = indptr[rows]
    lens = indptr[rows + 1] - starts
    ends = np.cumsum(lens)
    return indices[np.arange(lens.sum()) + np.repeat(starts - ends + lens, lens)], lens


def _root_split(g: SimpleGraph, order: np.ndarray, pos: np.ndarray, block: int = 256) -> tuple:
    """The root level of the search on g relabelled so that vertex i is
    g's order[i] (pos inverts order): the sweep order (colour descending,
    then index descending, as expand takes its candidates), each swept
    vertex's colour, and a CSR (indptr, indices) listing each vertex's
    neighbours later in the sweep, ascending: the candidates its branch
    starts with.  The indices are int64: the sweep indexes with them,
    int32 costs casts.

    One pass over the relabelled rows, block vertices at a time, colours
    first-fit and emits the CSR keys.  Each vertex takes the least colour
    c >= 1 that no lower neighbour has: _colour_classes' colours on the
    whole vertex set, since a class takes vertices in ascending order and
    so refuses a vertex colour c exactly when a lower neighbour holds c.
    Lower neighbours in earlier blocks give one forbidden-colour mask per
    vertex at once; those inside the block are added edge by edge.  Each
    edge is then met once, from its later end in degree order, with both
    ends coloured: neighbours differ in colour, and the end with the
    higher colour is swept first, so it lists the other.  One sort of the
    |E| keys gives the CSR.
    """
    colour = np.zeros(g.n, np.int64)
    key = np.empty(g.edge_count(), np.int64)
    top = m = 0
    for start in range(0, g.n, block):
        nbr, lens = _gather(g.indptr, g.indices, order[start:start + block])
        nbr = pos[nbr]
        v = start + np.repeat(np.arange(len(lens)), lens)
        lower = nbr < v
        v, nbr = v[lower], nbr[lower]
        before = nbr < start
        taken = np.zeros((len(lens), top + 1), bool)
        taken[:, 0] = True
        taken.reshape(-1)[((v - start) * (top + 1) + colour[nbr])[before]] = True
        width = (top + 8) // 8
        packed = memoryview(np.packbits(taken, axis=1, bitorder="little").tobytes())
        hs, ls = (v[~before] - start).tolist(), (nbr[~before] - start).tolist()
        col = []
        j = 0
        for i in range(len(lens)):
            mask = int.from_bytes(packed[i * width:(i + 1) * width], "little")
            while j < len(hs) and hs[j] == i:
                mask |= 1 << col[ls[j]]
                j += 1
            col.append((~mask & (mask + 1)).bit_length() - 1)
        colour[start:start + len(col)] = col
        top = max(top, max(col))
        owner = np.where(colour[v] > colour[nbr], v, nbr)
        key[m:m + len(v)] = owner * g.n + (v + nbr - owner)
        m += len(v)
    key.sort()
    indptr = np.searchsorted(key, np.arange(g.n + 1) * g.n)
    sweep = np.lexsort((-np.arange(g.n), -colour))
    return sweep.tolist(), colour[sweep].tolist(), indptr, np.remainder(key, g.n, out=key)


class _Search:
    """Branch-and-bound over a degree-sorted copy of the graph, run on
    construction; split at the root above SPLIT_MIN_VERTICES vertices.

    best_masks holds cliques of size best_size, starting from the empty
    clique: the first one found, or with keep_ties every one that ties
    the incumbent.
    """

    def __init__(self, g: SimpleGraph, node_budget: int, keep_ties: bool = False) -> None:
        order = np.argsort(-np.diff(g.indptr), kind="stable")
        pos = np.empty(g.n, np.int64)
        pos[order] = np.arange(g.n)
        self.order = order.tolist()
        self.budget = node_budget
        self.keep_ties = keep_ties
        self.nodes = 0
        self.best_size = 0
        self.best_masks = [0]
        if g.n > SPLIT_MIN_VERTICES:
            self._sweep(*_root_split(g, order, pos))
        else:
            x, y = g.edge_array()
            self.rows = bitset_rows(g.n, pos[x], pos[y])
            if g.n:
                self.expand(self.rows, 0, 0, (1 << g.n) - 1)

    def _spend(self) -> None:
        self.nodes += 1
        if self.nodes > self.budget:
            raise ResourceBudgetError(
                f"clique search exceeded its node budget of {self.budget}")

    def _found(self, size: int, mask: int) -> None:
        if size > self.best_size:
            self.best_size = size
            self.best_masks = [mask]
        elif self.keep_ties and size == self.best_size:
            self.best_masks.append(mask)

    def expand(self, rows: Sequence[int], size: int, mask: int, cand: int) -> None:
        for v, colour in reversed(_colour_classes(rows, cand)):
            # a branch that cannot beat the incumbent (or, keeping ties,
            # cannot reach it) is cut, together with every lower colour
            if size + colour + self.keep_ties <= self.best_size:
                return
            self._spend()
            b = 1 << v
            nxt = cand & rows[v]
            if nxt:
                self.expand(rows, size + 1, mask | b, nxt)
            else:
                self._found(size + 1, mask | b)
            cand &= ~b

    def _sweep(self, sweep: list, colours: list, indptr: np.ndarray, adj: np.ndarray) -> None:
        """expand(rows, 0, 0, all) on _root_split's arrays: each root
        branch v is searched on local rows of its candidates cand, the
        vertices adj lists for v; local id i is cand[i]."""
        mark = np.zeros(len(indptr) - 1, np.int64)
        for v, colour in zip(sweep, colours):
            if colour + self.keep_ties <= self.best_size:
                return
            self._spend()
            cand = adj[indptr[v]:indptr[v + 1]]
            s = len(cand)
            if not s:
                self._found(1, 1 << v)
                continue
            # the edges among cand, each once, as local ids (a, b): one
            # gather of the candidates' own lists
            nbrs, lens = _gather(indptr, adj, cand)
            mark[cand] = np.arange(1, s + 1)
            local = mark[nbrs]
            mark[cand] = 0
            hit = np.flatnonzero(local)
            a = np.searchsorted(np.cumsum(lens), hit, side="right")
            b = local[hit] - 1
            # a greedy colour is at most 1 + the vertex's lower neighbours;
            # when that cannot reach the incumbent, expand(rows, 1, ...)
            # would return at once without spending a node
            bound = 1 + int(np.bincount(np.maximum(a, b), minlength=1).max())
            if 1 + bound + self.keep_ties <= self.best_size:
                continue
            # collect the branch's cliques apart, as local masks, and map
            # them back: they replace the outer ones if the branch grew
            outer, size = self.best_masks, self.best_size
            self.best_masks = []
            self.expand(bitset_rows(s, a, b), 1, 0, (1 << s) - 1)
            ids = cand.tolist()
            found = [sum(1 << ids[i] for i in _bits(m)) | 1 << v for m in self.best_masks]
            self.best_masks = found if self.best_size > size else outer + found

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
    x, y = g.edge_array()
    lines = [f"c {part}" for part in (comment or "").splitlines()]
    lines.append(f"p edge {g.n} {len(x)}")
    lines.extend(f"e {i} {j}" for i, j in zip((x + 1).tolist(), (y + 1).tolist()))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def read_dimacs(path) -> SimpleGraph:
    """Read a DIMACS ascii clique file (1-based vertices).  Raises
    InputFormatError naming path:line for any malformed line, non-ASCII
    bytes or non-integer fields included."""
    path = Path(path)
    n = None
    edges = []
    with path.open("rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            where = f"{path}:{lineno}"
            try:
                line = raw.decode("ascii").strip()
            except UnicodeDecodeError:
                raise InputFormatError(f"{where}: non-ASCII bytes") from None
            if not line or line.startswith("c"):
                continue
            parts = line.split()
            if parts[0] == "p":
                if n is not None:
                    raise InputFormatError(f"{where}: repeated problem line")
                if len(parts) != 4 or parts[1] != "edge":
                    raise InputFormatError(f"{where}: malformed problem line")
                n, n_edges = (_dimacs_int(part, where, "problem") for part in parts[2:])
                if n < 0:
                    raise InputFormatError(f"{where}: negative vertex count")
                if n_edges < 0:
                    raise InputFormatError(f"{where}: negative edge count")
            elif parts[0] == "e":
                if n is None:
                    raise InputFormatError(f"{where}: edge before problem line")
                if len(parts) != 3:
                    raise InputFormatError(f"{where}: malformed edge line")
                i, j = (_dimacs_int(part, where, "edge") - 1 for part in parts[1:])
                if i == j:
                    raise InputFormatError(f"{where}: self-loop")
                if not (0 <= i < n and 0 <= j < n):
                    raise InputFormatError(f"{where}: vertex out of range")
                edges.append((i, j))
            else:
                raise InputFormatError(f"{where}: unknown line type '{parts[0]}'")
    if n is None:
        raise InputFormatError(f"{path}: missing problem line")
    return SimpleGraph.from_edges(n, edges)


def _dimacs_int(field: str, where: str, kind: str) -> int:
    try:
        return int(field)
    except ValueError:
        raise InputFormatError(f"{where}: malformed {kind} line: '{field}' is not an integer") from None
