"""isofdp: community detection via manifold embedding + density-peaks clustering.

Pipeline: structure-similarity distances over the graph, Isomap projection to a
low-dimensional space, density-peaks statistics there, and an automatic sweep
of the community count scored by a penalized partition density.
"""

from .graph import (
    Graph,
    GraphParseError,
    load_edge_list,
    load_gml,
    to_edge_list,
    to_gml,
)
from .similarity import prepared_distances
from .isomap import (
    Embedding,
    NeighborGraph,
    build_neighbor_graph,
    classical_mds,
    geodesic_distances,
)
from .density_peaks import (
    DensityProfile,
    assign,
    compute_profile,
    select_dc,
)
from .partition import (
    Partition,
    SweepResult,
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
from .metrics import accuracy, nmi
from .baselines import DbscanSpec, KmeansSpec, dbscan_parameter_search, kmeans
from .pipeline import DetectionResult, default_k_max, detect_communities

__version__ = "0.1.0"
