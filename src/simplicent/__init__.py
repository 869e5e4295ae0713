"""simplicent: centrality analysis of clique simplicial complexes.

Lift an undirected network to its clique complex, build the lower / upper /
combined adjacency among the k-simplices at every level, and compute
shortest-path and spectral centralities, degree-distribution model
selection, inter-level rank correlations, and essential-node detection
curves on top of them.
"""

from .adjacency import (
    LevelAdjacency,
    combined_adjacency,
    interaction_count,
    lower_adjacency,
    simplex_degrees,
    upper_adjacency,
)
from .centrality import (
    MEASURES,
    CentralityVector,
    SpectralDecomposition,
    betweenness,
    closeness,
    communicability,
    compute,
    degree_centrality,
    eigenvector_centrality,
    harmonic_closeness,
    katz,
    spectral_decomposition,
    subgraph_centrality,
)
from .complexes import (
    CliqueComplex,
    EdgeListReport,
    Graph,
    Simplex,
    build_clique_complex,
    example_complex,
    example_graph,
    generate_P,
    generate_S,
    generate_T,
    parse_edge_list,
    read_edge_list,
    write_edge_list,
)
from .errors import InsufficientDepthError, NonConvergenceError
from .essential import (
    DetectionCurve,
    EssentialityAnnotation,
    detection_curve,
    project_to_nodes,
    random_baseline,
    rank_nodes,
    read_annotations,
)
from .paths import (
    ComponentLabeling,
    connected_components,
    level_summary,
    shortest_distances,
)
from .stats import (
    FAMILIES,
    CorrelationTable,
    DegreeDistribution,
    FitResult,
    ModelSelection,
    correlation_table,
    degree_distribution,
    fit_all,
    fit_mle,
    select_model,
    spearman,
)

__version__ = "0.1.0"
