"""distlink: how much identity-disclosure risk does publishing a distance
matrix next to anonymised microdata create?

The library models a dataset as a complete vertex-labelled edge-weighted
graph, reduces linking two such datasets to a maximum-clique problem on
their product graph, and solves it exactly.  Around that core it ships
the defender-side Gaussian coordinate masking, empirical calibration of
the distance-tolerance relation, and a seeded simulation harness that
measures attack precision and recall against known ground truth.  The
brute-force references the tests check all this against are in
distlink.oracles.
"""

from .attack import AttackReport, MatchList, run_attack
from .clique import (
    DEFAULT_NODE_BUDGET,
    CliqueResult,
    SimpleGraph,
    enumerate_maximum_cliques,
    max_clique,
    read_dimacs,
    write_dimacs,
)
from .core import (
    EARTH_RADIUS_KM,
    DistanceMatrix,
    GeoPoint,
    MicrodataRecord,
    MicrodataTable,
    distance_matrix,
    great_circle_distance,
    load_matrix,
    load_table,
    save_matrix,
    save_table,
)
from .errors import (
    DegenerateSampleError,
    DistlinkError,
    InputFormatError,
    ResourceBudgetError,
    SizeLimitError,
)
from .evaluation import (
    EvaluationReport,
    GroundTruth,
    SimulationConfig,
    SimulationResult,
    evaluate,
    generate_synthetic_pair,
    ru_map_data,
    run_simulation,
)
from .graph import (
    Absolute,
    LabeledWeightedGraph,
    ProductGraph,
    QuantileBand,
    build_graph,
    build_product_graph,
)
from .masking import (
    GERMANY,
    BandSpec,
    CalibrationTable,
    Region,
    band_from_table,
    calibrate,
    load_calibration,
    perturb_points,
    save_calibration,
    utility_score,
)
from .oracles import (
    CommonSubgraphWitness,
    GeneralGraph,
    brute_force_max_clique,
    count_cliques_of_size,
    enumerate_common_subgraphs,
    general_product_graph,
    product_vertex_count_check,
    theorem1_check,
)

__version__ = "0.1.0"
