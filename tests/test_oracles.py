"""The reference implementations live in distlink.oracles, apart from the
modules that `distlink attack` and `simulate` run, and the package still
exports them under their old names."""

import ast
from pathlib import Path

import pytest

import distlink
from distlink import oracles

#: the public names of the distlink package when the oracles were spread
#: over clique.py, attack.py and graph.py, less the two functions that were
#: deleted rather than moved (classical_linkage, greedy_coloring_bound)
PUBLIC_NAMES = (
    "Absolute", "AttackReport", "BandSpec", "CalibrationTable", "CliqueResult",
    "CommonSubgraphWitness", "DEFAULT_NODE_BUDGET", "DegenerateSampleError",
    "DistanceMatrix", "DistlinkError", "EARTH_RADIUS_KM", "EvaluationReport", "GERMANY",
    "GeoPoint", "GroundTruth", "InputFormatError", "LabeledWeightedGraph", "MatchList",
    "MicrodataRecord", "MicrodataTable", "ProductGraph", "QuantileBand", "Region",
    "ResourceBudgetError", "SimpleGraph", "SimulationConfig", "SimulationResult",
    "SizeLimitError", "attack", "band_from_table", "brute_force_max_clique", "build_graph",
    "build_product_graph", "calibrate", "clique", "core", "count_cliques_of_size",
    "datasets", "distance_matrix", "enumerate_common_subgraphs",
    "enumerate_maximum_cliques", "errors", "evaluate", "evaluation",
    "generate_synthetic_pair", "graph", "great_circle_distance", "load_calibration",
    "load_matrix", "load_table", "masking", "max_clique", "perturb_points",
    "product_vertex_count_check", "read_dimacs", "ru_map_data", "run_attack",
    "run_simulation", "save_calibration", "save_matrix", "save_table", "seeding",
    "theorem1_check", "utility_score", "write_dimacs",
)

#: the names defined in distlink.oracles, and the two deleted functions
ORACLE_NAMES = ("brute_force_max_clique", "count_cliques_of_size", "CommonSubgraphWitness",
                "_WITNESS_ORDER_LIMIT", "_edge_compatible", "enumerate_common_subgraphs",
                "theorem1_check", "product_vertex_count_check", "GeneralGraph", "label_pairs",
                "_product_edges_general", "general_product_graph")
DELETED_NAMES = ("classical_linkage", "greedy_coloring_bound")

SRC = Path(distlink.__file__).parent
PRODUCTION = ("clique.py", "graph.py", "attack.py", "evaluation.py", "cli.py")


def test_public_names_still_import():
    for name in PUBLIC_NAMES:
        exec(f"from distlink import {name}", {})


@pytest.mark.parametrize("name", DELETED_NAMES)
def test_deleted_names_are_gone(name):
    with pytest.raises(ImportError):
        exec(f"from distlink import {name}", {})


def test_production_modules_do_not_import_the_oracles():
    for module in PRODUCTION:
        for node in ast.walk(ast.parse((SRC / module).read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [f"{node.module or ''}.{a.name}".lstrip(".")
                                               for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            assert not any(n in ("oracles", "distlink.oracles") for n in names), \
                f"{module}:{node.lineno} imports the oracles"


def test_production_modules_define_no_oracle():
    for module in ("clique.py", "graph.py", "attack.py"):
        tree = ast.parse((SRC / module).read_text())
        defined = {node.name for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        defined |= {t.id for node in tree.body if isinstance(node, ast.Assign)
                    for t in node.targets if isinstance(t, ast.Name)}
        assert not defined & {*ORACLE_NAMES, *DELETED_NAMES}, module
    assert all(hasattr(oracles, name) for name in ORACLE_NAMES)


def test_graph_module_builds_complete_graphs_only():
    tree = ast.parse((SRC / "graph.py").read_text())
    mentions = {getattr(node, attr) for node in ast.walk(tree)
                for attr in ("id", "attr", "arg") if isinstance(getattr(node, attr, None), str)}
    assert "edge_present" not in mentions


def test_absent_edge_references_are_exported():
    assert distlink.GeneralGraph is oracles.GeneralGraph
    assert distlink.general_product_graph is oracles.general_product_graph
