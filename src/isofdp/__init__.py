"""isofdp: community detection via manifold embedding + density-peaks clustering.

Pipeline: structure-similarity distances over the graph, Isomap projection to a
low-dimensional space, density-peaks statistics there, and an automatic sweep
of the community count scored by a penalized partition density.
"""

from .graph import (
    Graph,
    GraphParseError,
    connected_components,
    from_json,
    load_edge_list,
    load_gml,
    to_edge_list,
    to_gml,
    to_json,
)
from .similarity import (
    MEASURES,
    similarity_matrix,
    structure_similarity,
    to_distance,
)
from .isomap import (
    Embedding,
    NeighborGraph,
    build_neighbor_graph,
    classical_mds,
    geodesic_distances,
    isomap,
)
from .density_peaks import (
    DensityProfile,
    assign,
    compute_profile,
    select_dc,
)
from .partition import (
    Partition,
    SweepRecord,
    SweepResult,
    local_partition_density,
    partition_density,
    select_k,
)
from .generators import (
    GenerationError,
    GnSpec,
    LabeledGraph,
    LfrSpec,
    generate_gn,
    generate_lfr,
)
from .metrics import ContingencyTable, accuracy, contingency_table, max_weight_matching, nmi
from .baselines import DbscanSpec, KmeansSpec, dbscan, dbscan_labels, dbscan_parameter_search, kmeans
from .pipeline import DetectionResult, default_k_max, detect_communities

__version__ = "0.1.0"
