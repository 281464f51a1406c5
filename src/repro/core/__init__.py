"""Core similarity search engine — the paper's primary contribution.

Public surface: object representation (:class:`ObjectSignature`), sketch
construction (:class:`SketchConstructor`), distances (including EMD),
the two-phase filter/rank pipeline, and the engine that composes them.
"""

from .bitvector import (
    hamming_distance,
    hamming_many_to_many,
    hamming_to_many,
    pack_bits,
    unpack_bits,
)
from .distance import (
    chi_square_distance,
    cosine_distance,
    get_distance,
    histogram_intersection_distance,
    l1_distance,
    l2_distance,
    lp_distance,
    pearson_distance,
    register_distance,
    spearman_distance,
    weighted_l1_distance,
)
from .emd import (
    EMDDistance,
    EMDParams,
    NonFiniteDistanceError,
    emd,
    emd_lower_bound_centroid,
    emd_lower_bound_rowcol,
    emd_to_many,
)
from .engine import (
    EngineStats,
    SearchMethod,
    SimilaritySearchEngine,
)
from .filtering import (
    ArenaCompactor,
    FilterParams,
    SegmentStore,
    get_threshold_fn,
    register_threshold_fn,
    select_k_smallest,
    sketch_filter,
    sketch_filter_many,
    sketch_filter_reference,
)
from .parallel import (
    ParallelConfig,
    QueryResultCache,
    parallel_filter_candidates,
)
from .plugin import DataTypePlugin, get_plugin, list_plugins, register_plugin
from .ranking import (
    RankParams,
    RankStats,
    SearchResult,
    rank_candidates,
    rank_candidates_many,
)
from .sketch import SketchConstructor, SketchParams, estimate_l1_from_hamming
from .transport import TransportPivotLimitError, TransportResult, solve_transport
from .types import (
    Dataset,
    FeatureMeta,
    ObjectSignature,
    meta_from_dataset,
    normalize_weights,
)

__all__ = [
    "ArenaCompactor",
    "Dataset",
    "DataTypePlugin",
    "EMDDistance",
    "EMDParams",
    "EngineStats",
    "FeatureMeta",
    "FilterParams",
    "NonFiniteDistanceError",
    "ObjectSignature",
    "ParallelConfig",
    "QueryResultCache",
    "RankParams",
    "RankStats",
    "SearchMethod",
    "SearchResult",
    "SegmentStore",
    "SimilaritySearchEngine",
    "SketchConstructor",
    "SketchParams",
    "TransportPivotLimitError",
    "TransportResult",
    "chi_square_distance",
    "cosine_distance",
    "histogram_intersection_distance",
    "emd",
    "emd_lower_bound_centroid",
    "emd_lower_bound_rowcol",
    "emd_to_many",
    "estimate_l1_from_hamming",
    "get_distance",
    "get_plugin",
    "get_threshold_fn",
    "hamming_distance",
    "hamming_many_to_many",
    "hamming_to_many",
    "l1_distance",
    "l2_distance",
    "list_plugins",
    "lp_distance",
    "meta_from_dataset",
    "normalize_weights",
    "pack_bits",
    "parallel_filter_candidates",
    "pearson_distance",
    "rank_candidates",
    "rank_candidates_many",
    "register_distance",
    "register_plugin",
    "register_threshold_fn",
    "select_k_smallest",
    "sketch_filter",
    "sketch_filter_many",
    "sketch_filter_reference",
    "solve_transport",
    "spearman_distance",
    "unpack_bits",
    "weighted_l1_distance",
]
