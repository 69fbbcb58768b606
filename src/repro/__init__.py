"""repro — spatial distance histograms for scientific databases.

A production-quality reproduction of

    Yi-Cheng Tu, Shaoping Chen, Sagar Pandit.
    "Computing Distance Histograms Efficiently in Scientific Databases."
    ICDE 2009.

The library computes the Spatial Distance Histogram (SDH) of particle
datasets with the paper's density-map algorithms:

>>> from repro import SDHRequest, compute_sdh, uniform
>>> data = uniform(2000, dim=2, rng=0)
>>> hist = compute_sdh(data, SDHRequest(num_buckets=16))
>>> hist.total == data.num_pairs
True

Key entry points: :func:`compute_sdh` (one call, any engine),
:class:`SDHQuery` (index once, query many times), :func:`adm_sdh`
(constant-time approximate histograms), and :mod:`repro.physics` for
the RDF/thermodynamics layer built on top.
"""

from .core import (
    AllocationContext,
    Allocator,
    BucketSpec,
    CustomBuckets,
    DistanceHistogram,
    Engine,
    EngineCapabilities,
    GridSDHEngine,
    OverflowPolicy,
    SDHQuery,
    SDHRequest,
    SDHStats,
    TreeSDHEngine,
    UniformBuckets,
    adm_sdh,
    available_engines,
    brute_force_cross_sdh,
    brute_force_sdh,
    build_plan,
    choose_levels_for_error,
    compute_sdh,
    covering_factor,
    covering_factor_model,
    dm_sdh_exponent,
    dm_sdh_grid,
    dm_sdh_tree,
    get_engine,
    make_allocator,
    non_covering_factor,
    predict_error,
    register_engine,
    resolve_engine_name,
    unregister_engine,
)
from .parallel import parallel_sdh
from .data import (
    ParticleSet,
    Trajectory,
    figure1_dataset,
    gaussian_clusters,
    lattice,
    load_particles,
    load_xyz,
    random_types,
    random_walk_trajectory,
    save_particles,
    save_xyz,
    synthetic_bilayer,
    uniform,
    zipf_clustered,
)
from .errors import (
    BucketSpecError,
    DatasetError,
    DatasetNotFound,
    DistanceOverflowError,
    GeometryError,
    QueryError,
    QueryTimeout,
    ReproError,
    SLOInfeasibleError,
    ServerOverloaded,
    ServiceError,
    StorageError,
    TreeError,
)
from .geometry import AABB, BallRegion, RectRegion, Region, UnionRegion
from .observability import (
    MetricsRegistry,
    configure_logging,
    get_registry,
    trace_span,
)
from .partition import KDPartition, kd_sdh
from .quadtree import DensityMapTree, GridPyramid, tree_height

__version__ = "1.0.0"

__all__ = [
    "AABB",
    "AllocationContext",
    "Allocator",
    "BallRegion",
    "BucketSpec",
    "BucketSpecError",
    "CustomBuckets",
    "DatasetError",
    "DatasetNotFound",
    "DensityMapTree",
    "DistanceHistogram",
    "DistanceOverflowError",
    "Engine",
    "EngineCapabilities",
    "GeometryError",
    "GridPyramid",
    "GridSDHEngine",
    "KDPartition",
    "MetricsRegistry",
    "OverflowPolicy",
    "ParticleSet",
    "QueryError",
    "QueryTimeout",
    "RectRegion",
    "Region",
    "ReproError",
    "SDHQuery",
    "SDHRequest",
    "SDHStats",
    "SLOInfeasibleError",
    "ServerOverloaded",
    "ServiceError",
    "StorageError",
    "Trajectory",
    "TreeError",
    "TreeSDHEngine",
    "UniformBuckets",
    "UnionRegion",
    "adm_sdh",
    "available_engines",
    "brute_force_cross_sdh",
    "brute_force_sdh",
    "build_plan",
    "choose_levels_for_error",
    "compute_sdh",
    "configure_logging",
    "covering_factor",
    "covering_factor_model",
    "dm_sdh_exponent",
    "dm_sdh_grid",
    "dm_sdh_tree",
    "figure1_dataset",
    "gaussian_clusters",
    "get_engine",
    "get_registry",
    "kd_sdh",
    "lattice",
    "load_particles",
    "load_xyz",
    "make_allocator",
    "non_covering_factor",
    "parallel_sdh",
    "predict_error",
    "random_types",
    "register_engine",
    "resolve_engine_name",
    "unregister_engine",
    "random_walk_trajectory",
    "save_particles",
    "save_xyz",
    "synthetic_bilayer",
    "trace_span",
    "tree_height",
    "uniform",
    "zipf_clustered",
    "__version__",
]
