"""Exact maximum-clique search on simple undirected graphs.

A graph is held in one sparse format, a symmetric CSR with ascending
rows; bitsets exist only inside the search.  The solver is a sequential
branch-and-bound with greedy-colouring bounds over bitset candidate
sets.  It is deterministic: with the fixed vertex ordering (descending
degree, ties by ascending index) the same input always yields the same
clique.  It also records the ties it meets and the subproblems it cuts
with a colour bound equal to its incumbent; the tie pass resumes it
there, keeping ties, and so enumerates every maximum clique without
searching again from the empty clique.  A node budget turns runaway
instances into an explicit error instead of a silent heuristic answer.

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
That bound and the branch's local edges never read the incumbent: once
the sweep has computed LAZY_CHUNKS chunks of CHUNK branches itself, with
more than one usable CPU (worker_cpus), forked workers compute the rest
ahead, a chunk at a time in sweep order (fan_out, which also spreads the
simulation grid), while the search, its incumbent and its node count
stay in one process, so every result is the one-CPU result.

The root level runs as C (_kernel.c, through distlink.native), built on
the first split search unless the product build or the matrix reader
has built it: the first-fit colouring, one scan of each row; the
branches' bounds and edges, up to CHUNK branches per call, whose bounds
the sweep walks as Python ints, so that a branch its bound cuts costs
only that test; and each searched branch's first colouring, class by
class on 64-bit words, which most branches end at with a tie cut, so
that their bitset rows are built only where that colouring lets them
spend a node.  Without a compiler, or when the build or the load fails,
the numpy code runs instead, with the same results; it stays as the
kernels' oracle.
"""

from __future__ import annotations

import contextlib
import copy
import itertools
import multiprocessing
import operator
import os
import signal
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from . import native
from .errors import InputFormatError, ResourceBudgetError

DEFAULT_NODE_BUDGET = 10**8

#: graphs with more vertices than this are searched split at the root; below
#: it the per-branch gathers in numpy cost more than narrow big-int masks
SPLIT_MIN_VERTICES = 2048

#: array entries the product join and the CSR builder handle at once
BLOCK = 1 << 16

#: root branches per chunk, which the sweep or a worker computes whole
CHUNK = 128

#: chunks of CHUNK root branches the sweep computes itself before it forks
#: workers for the rest: a shorter sweep costs less than starting them
LAZY_CHUNKS = 64

class SimpleGraph:
    """Undirected graph in symmetric CSR form: the neighbours of vertex v
    are indices[indptr[v]:indptr[v + 1]], in ascending order."""

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
    #: max_clique's search, for enumerate_maximum_cliques to resume
    _search: Optional[_Search] = field(default=None, repr=False, compare=False)


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


def _colour_classes(outs: Sequence[int], cand: int, kmin: int) -> list:
    """Greedy colouring of the candidate set by colour classes, each
    taking in ascending order the vertices left that none in it is
    adjacent to.  outs[v] is the nonnegative mask of the vertices that are
    neither v nor its neighbours: one AND drops both, where ~mask would
    build a negative int.  Returns the (vertex, colour) pairs with colour
    above kmin, grouped by ascending colour.  A vertex's colour bounds the
    largest clique containing it within the candidates; the search cuts a
    colour up to kmin at once, so those go unlisted.
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
            if colour > kmin:
                out.append((v, colour))
            avail &= outs[v]
            rest ^= b
    return out


def _complements(rows: list) -> list:
    """_colour_classes' outs for the adjacency rows of vertices 0..n-1."""
    full = (1 << len(rows)) - 1
    return [full ^ (row | 1 << v) for v, row in enumerate(rows)]


def _gather(indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray) -> tuple:
    """The CSR lists of the given rows, concatenated, and their lengths."""
    starts = indptr[rows]
    lens = indptr[rows + 1] - starts
    ends = np.cumsum(lens)
    return indices[np.arange(lens.sum()) + np.repeat(starts - ends + lens, lens)], lens


class _Branches:
    """On _root_split's forward CSR, the part of each root branch v that
    never reads the incumbent, (bound, a, b): the edges among v's
    candidates, each once, as local ids (a[k], b[k]), from one gather of
    their forward lists, and 1 + the most lower neighbours a candidate has
    among them, which bounds its greedy colour.  chunk gives them for a run
    of branches in one format, for the sweep and its workers alike, and
    colour a searched branch's first colouring.  The compiled kernels
    compute them where they load; the numpy code is their oracle."""

    def __init__(self, indptr: np.ndarray, adj: np.ndarray) -> None:
        self.indptr = indptr = np.ascontiguousarray(indptr, np.int64)
        self.adj = adj = np.ascontiguousarray(adj, np.int64)
        self.fdeg = np.diff(indptr)
        top = int(self.fdeg.max(initial=0))
        self.kernel = native.kernel()
        if self.kernel is None:
            self.mark = np.zeros(len(self.fdeg), np.int64)
            # a gather takes at most min(top**2, |adj|) entries
            self.ramp = np.arange(min(top * top, len(adj)) + top + 1)
            return
        self.mark = np.zeros(len(self.fdeg), np.int32)
        self.lower = np.empty(top, np.int64)
        # a branch has at most min(top * (top - 1) / 2, |adj|) edges
        self.edges = np.empty((2, max(min(top * (top - 1) // 2, len(adj)), BLOCK)), np.int32)
        self.rows = np.empty((top + 2) * ((top + 63) // 64), np.uint64)
        self.pairs = np.empty((2, top), np.int32)
        self.inputs = [a.ctypes.data for a in (indptr, adj, self.mark, self.lower)]
        self.outputs = [a.ctypes.data for a in self.edges]

    def __call__(self, v: int) -> tuple:
        if self.kernel is not None:
            (bound,), _, a, b = self.chunk([v])
            return bound, a, b
        cand = self.adj[self.indptr[v]:self.indptr[v + 1]]
        lens = self.fdeg[cand]
        ends = np.cumsum(lens)
        if not len(cand):
            return 0, ends, ends
        nbrs = self.adj[self.ramp[:ends[-1]] + np.repeat(self.indptr[cand] + lens - ends, lens)]
        self.mark[cand] = self.ramp[1:len(cand) + 1]
        local = self.mark[nbrs]
        self.mark[cand] = 0
        hit = np.flatnonzero(local)
        a = np.searchsorted(ends, hit, side="right")
        b = local[hit]
        b -= 1
        return 1 + int(np.bincount(np.maximum(a, b, out=hit), minlength=1).max()), a, b

    def chunk(self, vs: list) -> tuple:
        """The branches of vs: their bounds and the running ends of their
        edge lists, as lists, and their a and b concatenated, int32.  The
        kernel takes as many branches per call as its edge buffer surely
        holds, all of vs unless they are dense."""
        if self.kernel is None:
            bounds, a, b = zip(*map(self, vs))
            return (list(bounds), np.cumsum([len(x) for x in a]).tolist(),
                    np.concatenate(a, dtype=np.int32), np.concatenate(b, dtype=np.int32))
        vs = np.array(vs, np.int64)
        bounds, ends = np.empty((2, len(vs)), np.int64)
        parts = []
        done = 0
        while done < len(vs):
            count = self.kernel.branches(*self.inputs, vs[done:].ctypes.data, len(vs) - done,
                                         self.edges.shape[1], bounds[done:].ctypes.data,
                                         ends[done:].ctypes.data, *self.outputs)
            parts.append(self.edges[:, :ends[done + count - 1]].copy())
            if done:
                ends[done:done + count] += ends[done - 1]
            done += count
        a, b = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
        return bounds.tolist(), ends.tolist(), a, b

    def colour(self, s: int, a: np.ndarray, b: np.ndarray, kmin: int) -> list:
        """_colour_classes(outs, all, kmin) for the s local vertices of a
        branch with the edges (a, b), outs their _complements."""
        if self.kernel is None:
            return _colour_classes(_complements(bitset_rows(s, a, b)), (1 << s) - 1, kmin)
        a, b = (np.ascontiguousarray(x, np.int32) for x in (a, b))
        listed = self.kernel.local_colour(s, a.ctypes.data, b.ctypes.data, len(a), kmin,
                                          self.rows.ctypes.data, *(x.ctypes.data for x in self.pairs))
        return list(zip(*self.pairs[:, :listed].tolist()))


def worker_cpus() -> int:
    """The CPUs forked workers may spread work over: the affinity mask's
    size, or 1 in a child process, without fork, or beside other threads,
    where a fork is unsafe."""
    if multiprocessing.parent_process() is not None or threading.active_count() > 1:
        return 1
    if not hasattr(os, "sched_getaffinity") or "fork" not in multiprocessing.get_all_start_methods():
        return 1
    return len(os.sched_getaffinity(0))


@contextlib.contextmanager
def forked(fn, item_lists: list):
    """The inboxes of forked children, one per item list, each sending
    fn(item) for each of its items in turn through the pipe its inbox
    reads.  A child that cannot start, fails or dies reads as EOF, and
    its work is the parent's.  Children ignore interrupts and are killed
    and joined on exit."""
    fork = multiprocessing.get_context("fork")
    children, inboxes = [], []
    try:
        for items in item_lists:
            inbox, outbox = fork.Pipe(duplex=False)
            inboxes.append(inbox)
            child = fork.Process(target=_child_main, args=(fn, items, outbox), daemon=True)
            with contextlib.suppress(OSError):
                child.start()
                children.append(child)
            outbox.close()
        yield inboxes
    finally:
        for child in children:
            child.kill()
            child.join()
        for inbox in inboxes:
            inbox.close()


def _child_main(fn, items: Sequence, outbox) -> None:
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    with contextlib.suppress(Exception):
        for item in items:
            outbox.send(fn(item))


def fan_out(fn, items: Sequence, most: int):
    """fn(item) for each item in turn.  With w = min(most, len(items),
    worker_cpus()) >= 2, forked child k computes items k, k + w, ... and
    sends them ahead, and a dead child's are computed here; otherwise
    every item is computed here on demand."""
    workers = min(most, len(items), worker_cpus())
    if workers < 2:
        yield from map(fn, items)
        return
    with forked(fn, [items[k::workers] for k in range(workers)]) as inboxes:
        for j, item in enumerate(items):
            try:
                result = inboxes[j % workers].recv()
            except (EOFError, OSError):
                result = fn(item)
            yield result


def _branch_stream(branch: _Branches, sweep: list):
    """branch.chunk of each run of CHUNK vertices of sweep in turn: on
    demand for the first LAZY_CHUNKS runs, then, with more than one worker
    CPU and run left, fanned out."""
    chunks = [sweep[start:start + CHUNK] for start in range(0, len(sweep), CHUNK)]
    yield from map(branch.chunk, chunks[:LAZY_CHUNKS])
    yield from fan_out(branch.chunk, chunks[LAZY_CHUNKS:], len(chunks))


def _root_split(g: SimpleGraph, order: np.ndarray, pos: np.ndarray, block: int = 256) -> tuple:
    """The root level of the search on g relabelled so that vertex i is
    g's order[i] (pos inverts order): the sweep order (colour descending,
    then index descending, as expand takes its candidates), each swept
    vertex's colour, and a CSR (indptr, indices) listing each vertex's
    neighbours later in the sweep, ascending: the candidates its branch
    starts with.  The indices are int64: the sweep indexes with them,
    int32 costs casts.

    The compiled kernel, or else _first_fit, colours first-fit and emits
    the CSR keys.  Each vertex takes the least colour c >= 1 that no
    lower neighbour has: _colour_classes' colours on the whole vertex set
    with kmin <= 0, since a class takes vertices in ascending order and
    so refuses a vertex colour c exactly when a lower neighbour holds c.
    Each edge is met once, from its later end in degree order, with both
    ends coloured: neighbours differ in colour, and the end with the
    higher colour is swept first, so it lists the other.  One sort of the
    |E| keys gives the CSR.
    """
    kernel = native.kernel()
    if kernel is None:
        colour, key = _first_fit(g, order, pos, block)
    else:
        colour, key = np.zeros(g.n, np.int64), np.empty(g.edge_count(), np.int64)
        lower = np.empty(np.diff(g.indptr).max(initial=0), np.int64)
        seen = np.zeros(g.n + 2, np.int64)
        inputs = [np.ascontiguousarray(a, dtype) for a, dtype in
                  ((g.indptr, np.int64), (g.indices, np.int32), (order, np.int64), (pos, np.int64))]
        kernel.root_colour(g.n, *(a.ctypes.data for a in inputs + [lower, seen, colour, key]))
    key.sort()
    indptr = np.searchsorted(key, np.arange(g.n + 1) * g.n)
    sweep = np.lexsort((-np.arange(g.n), -colour))
    return sweep.tolist(), colour[sweep].tolist(), indptr, np.remainder(key, g.n, out=key)


def _first_fit(g: SimpleGraph, order: np.ndarray, pos: np.ndarray, block: int) -> tuple:
    """_root_split's colours, by relabelled vertex, and its unsorted CSR
    keys, in numpy: one pass over the relabelled rows, block vertices at a
    time.  Lower neighbours in earlier blocks give one forbidden-colour
    mask per vertex at once; those inside the block are added edge by
    edge."""
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
    return colour, key


class _Search:
    """Branch-and-bound over a degree-sorted copy of the graph, run on
    construction; split at the root above SPLIT_MIN_VERTICES vertices.

    best_masks holds the cliques of size best_size the search met, starting
    from the empty clique, the first one found first; with keep_ties they
    are every maximum clique.  Without keep_ties, ties holds the
    subproblems the search cut with a colour bound exactly equal to
    best_size, where the other maximum cliques can hide, for resumed().
    Both start over whenever the incumbent grows.
    """

    def __init__(self, g: SimpleGraph, node_budget: int, keep_ties: bool = False) -> None:
        order = np.argsort(-np.diff(g.indptr), kind="stable")
        pos = np.empty(g.n, np.int64)
        pos[order] = np.arange(g.n)
        self.graph = g
        self.order = order.tolist()
        self.budget = node_budget
        self.keep_ties = keep_ties
        self.nodes = 0
        self.best_size = 0
        self.best_masks = [0]
        #: (root branch or None, size, mask, cand, the (vertex, colour)
        #: pairs of the cut colour left in cand), or (root branch, whether
        #: its root node is still to spend) for a root branch to search whole
        self.ties = []
        self.root = self.adj = None
        if g.n > SPLIT_MIN_VERTICES:
            self._sweep(*_root_split(g, order, pos))
        else:
            x, y = g.edge_array()
            self.rows = bitset_rows(g.n, pos[x], pos[y])
            self.outs = _complements(self.rows)
            if g.n:
                self.expand(self.rows, self.outs, 0, 0, (1 << g.n) - 1)

    def _spend(self, nodes: int = 1) -> None:
        self.nodes += nodes
        if self.nodes > self.budget:
            raise ResourceBudgetError(
                f"clique search exceeded its node budget of {self.budget}")

    def _found(self, size: int, mask: int) -> None:
        if size > self.best_size:
            self.best_size = size
            self.best_masks = [mask]
            self.ties = []
        elif size == self.best_size:
            self.best_masks.append(mask)

    def expand(self, rows: list, outs: list, size: int, mask: int, cand: int,
               coloured=None) -> None:
        """Extend the clique mask, of size vertices, by the candidates
        cand, on adjacency rows and their _complements outs, branching on
        the (vertex, colour) pairs coloured, an iterator by descending
        colour: by default cand's colour classes.  Colours below
        best_size - size go unlisted: their branches can neither beat nor
        reach the incumbent as it stands, and it only grows."""
        if coloured is None:
            coloured = reversed(_colour_classes(outs, cand, self.best_size - size - 1))
        for v, colour in coloured:
            # a branch that cannot beat the incumbent (or, keeping ties,
            # cannot reach it) is cut, together with every lower colour;
            # a cut that could reach it is a tie cut, never met keeping ties
            if size + colour + self.keep_ties <= self.best_size:
                if size + colour == self.best_size:
                    top = [(v, colour), *itertools.takewhile(lambda p: p[1] == colour, coloured)]
                    self.ties.append((self.root, size, mask, cand, top))
                return
            self._spend()
            b = 1 << v
            nxt = cand & rows[v]
            if nxt:
                self.expand(rows, outs, size + 1, mask | b, nxt)
            else:
                self._found(size + 1, mask | b)
            cand ^= b

    def _sweep(self, sweep: list, colours: list, indptr: np.ndarray, adj: np.ndarray) -> None:
        """expand(rows, outs, 0, 0, all) on _root_split's arrays, kept for
        resumed(): each root branch v is searched on local rows of its
        candidates, the vertices adj lists for v.  The branches' skip
        bounds and local edges come from _branch_stream, a chunk at a time
        in sweep order; the incumbent, the cuts and the node count stay
        here, and a branch its bound cuts costs no more than that test."""
        self.indptr, self.adj = indptr, adj
        roots = zip(sweep, colours)
        branch = _Branches(indptr, adj)
        with contextlib.closing(_branch_stream(branch, sweep)) as chunks:
            for bounds, ends, a, b in chunks:
                for bound, start, end in zip(bounds, [0] + ends, ends):
                    v, colour = next(roots)
                    if colour + self.keep_ties <= self.best_size:
                        if colour == self.best_size:
                            rest = itertools.takewhile(lambda p: p[1] == colour, roots)
                            self.ties += [(v, True)] + [(u, True) for u, _ in rest]
                        return
                    self._spend()
                    # _root_branch's bound cut, without its call
                    if bound and 1 + bound + self.keep_ties <= self.best_size:
                        if 1 + bound == self.best_size:
                            self.ties.append((v, False))
                    else:
                        self._root_branch(branch, v, bound, a[start:end], b[start:end])

    def _root_branch(self, branch: _Branches, v: int, bound: int, a: np.ndarray, b: np.ndarray,
                     ties=None) -> None:
        """Root branch v, its node spent, on its skip bound and its local
        edges (a[k], b[k]): local id i is the candidate adj lists i-th.
        Searched whole, from branch.colour's first colouring, or only at
        the tie cuts recorded in it; its rows are built only where a node
        in it is spent."""
        cand = self.adj[self.indptr[v]:self.indptr[v + 1]]
        s = len(cand)
        if not s:
            self._found(1, 1 << v)
            return
        # expand(rows, outs, 1, ...) would return at once without spending
        # a node; at the incumbent's size it could make a tie cut, so the
        # branch is recorded whole
        if 1 + bound + self.keep_ties <= self.best_size:
            if 1 + bound == self.best_size:
                self.ties.append((v, False))
            return
        # collect the branch's cliques apart, as local masks, and map them
        # back: they replace the outer ones if the branch grew
        outer, size = self.best_masks, self.best_size
        self.best_masks, self.root = [], v
        coloured = None if ties else branch.colour(s, a, b, self.best_size - 2)
        rows = outs = None
        # a first colour the incumbent cuts ends the branch at a tie cut,
        # which needs only the candidates
        if ties or coloured and 1 + coloured[-1][1] + self.keep_ties > self.best_size:
            rows = bitset_rows(s, a, b)
            outs = _complements(rows)
        if coloured is not None:
            self.expand(rows, outs, 1, 0, (1 << s) - 1, reversed(coloured))
        for _, at, mask, sub, top in ties or ():
            self.expand(rows, outs, at, mask, sub, iter(top))
        ids = cand.tolist()
        found = [sum(1 << ids[i] for i in _bits(m)) | 1 << v for m in self.best_masks]
        self.best_masks = found if self.best_size > size else outer + found

    def resumed(self, node_budget: int) -> "_Search":
        """A copy that keeps ties and searches, with the incumbent fixed,
        only this search's tie cuts, so that its best_masks are every
        maximum clique; its nodes count on from this search's against
        node_budget."""
        tie = copy.copy(self)
        tie.budget, tie.keep_ties = node_budget, True
        tie.best_masks, tie.ties = list(self.best_masks), []
        tie._spend(0)  # max_clique alone may have spent node_budget
        if self.adj is None:
            for _, size, mask, cand, top in self.ties:
                tie.expand(self.rows, self.outs, size, mask, cand, iter(top))
        elif self.ties:
            branch = _Branches(self.indptr, self.adj)
            for v, group in itertools.groupby(self.ties, operator.itemgetter(0)):
                group = list(group)
                if len(group[0]) == 2:  # a root branch to search whole
                    tie._spend(group[0][1])
                    group = None
                tie._root_branch(branch, v, *branch(v), group)
        return tie

    def vertices(self, mask: int) -> tuple:
        return tuple(sorted(self.order[v] for v in _bits(mask)))


def max_clique(g: SimpleGraph, node_budget: int = DEFAULT_NODE_BUDGET) -> CliqueResult:
    """Find a maximum clique exactly.

    Deterministic and sequential; among multiple maximum cliques the
    first optimum under the fixed search order is returned.  Raises
    ResourceBudgetError when node_budget branch nodes are exceeded.  The
    result also carries, unseen, what enumerate_maximum_cliques needs to
    resume the search: the ties met and the tie cuts made at the optimum's
    size, and the search's bitset rows (at most 2 * n * ceil(n / 8) bytes)
    or, split at the root, its forward lists.
    """
    start = time.perf_counter()
    search = _Search(g, node_budget)
    vertices = search.vertices(search.best_masks[0])
    _check_clique(g, vertices)
    return CliqueResult(vertices, len(vertices), search.nodes,
                        time.perf_counter() - start, search)


def enumerate_maximum_cliques(g: SimpleGraph, node_budget: int = DEFAULT_NODE_BUDGET,
                              clique: Optional[CliqueResult] = None) -> list:
    """All maximum cliques, each as a sorted vertex tuple, in ascending
    lexicographic order; the empty graph gives [()].

    Resumes the search behind clique, max_clique's result on g, which is
    run first when not given: with the incumbent fixed at its size, the
    search keeps ties and explores only the subproblems max_clique cut
    with a colour bound equal to it, then adds the maximum cliques
    max_clique met.  The nodes count on from clique.nodes_explored: raises
    ResourceBudgetError once the total exceeds node_budget, and
    InputFormatError for a clique that max_clique did not find on g.
    """
    if clique is None:
        clique = max_clique(g, node_budget)
    if clique._search is None or clique._search.graph is not g:
        raise InputFormatError("clique is not max_clique's result on this graph")
    search = clique._search.resumed(node_budget)
    cliques = sorted(search.vertices(mask) for mask in search.best_masks)
    for c in cliques:
        _check_clique(g, c)
    return cliques


def write_dimacs(g: SimpleGraph, path, comment: Optional[str] = None) -> None:
    """Write the graph in DIMACS ascii clique format (1-based vertices).
    A non-ASCII comment raises InputFormatError before path is opened."""
    if comment is not None and not comment.isascii():
        raise InputFormatError(f"{path}: DIMACS comment must be ASCII")
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
