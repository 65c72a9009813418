"""In-memory spans around calls into distlink's public functions.

The tracer replaces a module attribute (say distlink.attack.max_clique)
with a wrapper that records a span, so calls the program makes through
that name are timed without touching the program's source.  Spans stay
in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager

from distlink.clique import DEFAULT_NODE_BUDGET


def _product_stats(args, kwargs, product) -> dict:
    graph = product.graph
    n = product.n
    edges = graph.edge_count()
    return {"vertices": n, "edges": edges,
            "max_degree": max((graph.degree(v) for v in range(n)), default=0),
            "density": 2 * edges / (n * (n - 1)) if n > 1 else 0.0,
            "bitset_bytes": n * ((n + 7) // 8)}


def _clique_stats(args, kwargs, result) -> dict:
    budget = args[1] if len(args) > 1 else kwargs.get("node_budget", DEFAULT_NODE_BUDGET)
    return {"omega": result.size, "nodes": result.nodes_explored, "budget": budget}


def _enumerate_stats(args, kwargs, cliques) -> dict:
    return {"count": len(cliques)}


def _distance_pairs(args, kwargs, matrix) -> dict:
    return {"pairs": matrix.n * (matrix.n - 1) // 2}


#: (module, attribute, span name, attribute extractor): the layer
#: boundaries behind the per-layer metrics.  The module named is the one
#: whose global the caller reads, so each boundary sees the calls it
#: should.  evaluation._run_repetition is private; it is the only place
#: one simulation repetition starts and ends.
LAYERS = (
    ("distlink.cli", "load_table", "core.load_table", None),
    ("distlink.cli", "load_matrix", "core.load_matrix", None),
    ("distlink.cli", "write_results_csv", "evaluation.write", None),
    ("distlink.cli", "write_aggregate_csv", "evaluation.write", None),
    ("distlink.cli", "write_ru_csv", "evaluation.write", None),
    ("distlink.attack", "build_graph", "graph.build_graph", None),
    ("distlink.attack", "build_product_graph", "graph.build_product_graph", _product_stats),
    ("distlink.attack", "max_clique", "clique.max_clique", _clique_stats),
    ("distlink.attack", "enumerate_maximum_cliques", "clique.enumerate", _enumerate_stats),
    ("distlink.evaluation", "_run_repetition", "evaluation.rep", None),
    ("distlink.evaluation", "generate_synthetic_pair", "evaluation.generate_pair", None),
    ("distlink.evaluation", "distance_matrix", "core.distance_matrix", _distance_pairs),
    ("distlink.evaluation", "calibrate", "masking.calibrate", None),
    ("distlink.evaluation", "evaluate", "evaluation.evaluate", None),
    ("distlink.masking", "calibrate", "masking.calibrate", None),
)

#: what an untraced run wraps, around its CLI attacks only: the instance
#: statistics the gate checks (|V|, |E|, omega, solver nodes), at a few
#: milliseconds per attack
STATS = tuple(layer for layer in LAYERS if layer[0] == "distlink.attack" and layer[3])


class Tracer:
    """Spans (id, name, start, end, parent, attrs) of one run."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list = []
        self._patches: list = []

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1]["id"] if self._stack else None,
               "start": time.perf_counter(), "end": None, "attrs": {}}
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def wrapping(self, layers):
        """Wrap the given boundaries for the duration of the block.
        Blocks nest.  A boundary the program no longer has raises
        LookupError: the metrics and checks behind it would otherwise
        read nothing without notice."""
        outer = len(self._patches)
        try:
            for module_name, attr, name, describe in layers:
                module = importlib.import_module(module_name)
                if not hasattr(module, attr):
                    raise LookupError(f"{module_name}.{attr} not found; "
                                      "spans.LAYERS must follow the program")
                original = getattr(module, attr)
                self._patches.append((module, attr, original))
                setattr(module, attr, self._traced(original, name, describe))
            yield self
        finally:
            while len(self._patches) > outer:
                module, attr, original = self._patches.pop()
                setattr(module, attr, original)

    def _traced(self, original, name, describe):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = original(*args, **kwargs)
            if describe is not None:
                rec["attrs"] = describe(args, kwargs, result)
            return result
        return traced
