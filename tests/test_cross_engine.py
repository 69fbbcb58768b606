"""Cross-engine equality: tree == grid == brute force, exactly.

DM-SDH is an exact algorithm — every pair is either resolved into the
bucket its whole distance range provably occupies, or its distances are
computed directly.  So all engines must produce *identical integer*
histograms, on every data family, in 2D and 3D, with and without MBRs.
This is the single strongest correctness statement in the suite.
"""

import numpy as np
import pytest

from repro.core import (
    UniformBuckets,
    brute_force_sdh,
    dm_sdh_grid,
    dm_sdh_tree,
)
from repro.data import (
    figure1_dataset,
    gaussian_clusters,
    lattice,
    synthetic_bilayer,
    uniform,
    zipf_clustered,
)
from repro.quadtree import DensityMapTree, GridPyramid


def _check_all(data, num_buckets, use_mbr=False):
    spec = UniformBuckets.with_count(
        data.max_possible_distance, num_buckets
    )
    reference = brute_force_sdh(data, spec=spec)
    assert reference.total == data.num_pairs

    pyramid = GridPyramid(data)
    grid_hist = dm_sdh_grid(pyramid, spec=spec, use_mbr=use_mbr)
    np.testing.assert_array_equal(reference.counts, grid_hist.counts)

    tree = DensityMapTree(data, with_mbr=use_mbr)
    tree_hist = dm_sdh_tree(tree, spec=spec, use_mbr=use_mbr)
    np.testing.assert_array_equal(reference.counts, tree_hist.counts)


FAMILIES_2D = [
    ("uniform", lambda: uniform(350, dim=2, rng=100)),
    ("zipf", lambda: zipf_clustered(350, dim=2, rng=100)),
    ("clusters", lambda: gaussian_clusters(350, dim=2, rng=100)),
    ("membrane", lambda: synthetic_bilayer(350, dim=2, rng=100)),
    ("lattice", lambda: lattice(18, dim=2, jitter=0.2, rng=100)),
    ("figure1", lambda: figure1_dataset(rng=100)),
]

FAMILIES_3D = [
    ("uniform", lambda: uniform(250, dim=3, rng=200)),
    ("zipf", lambda: zipf_clustered(250, dim=3, rng=200)),
    ("membrane", lambda: synthetic_bilayer(250, dim=3, rng=200)),
]


@pytest.mark.parametrize(
    "name,factory", FAMILIES_2D, ids=[f[0] for f in FAMILIES_2D]
)
@pytest.mark.parametrize("num_buckets", [1, 2, 7, 16])
def test_2d_engines_agree(name, factory, num_buckets):
    _check_all(factory(), num_buckets)


@pytest.mark.parametrize(
    "name,factory", FAMILIES_3D, ids=[f[0] for f in FAMILIES_3D]
)
@pytest.mark.parametrize("num_buckets", [2, 8])
def test_3d_engines_agree(name, factory, num_buckets):
    _check_all(factory(), num_buckets)


@pytest.mark.parametrize("dim", [2, 3])
def test_engines_agree_with_mbr(dim):
    data = zipf_clustered(300, dim=dim, rng=77)
    _check_all(data, 8, use_mbr=True)


def test_engines_agree_large_bucket_count():
    """l large enough that the start map is the leaf map (the paper's
    degenerate small-N regime)."""
    data = uniform(200, dim=2, rng=5)
    _check_all(data, 64)


def test_engines_agree_single_bucket():
    """l = 1: everything lands in one bucket without any recursion."""
    data = uniform(100, dim=2, rng=6)
    _check_all(data, 1)


def test_engines_agree_with_duplicate_points(rng):
    """Duplication scaling creates exactly coincident particles."""
    base = uniform(120, dim=2, rng=8)
    data = base.scale_to(300, rng=rng)
    _check_all(data, 8)


def test_engines_agree_on_collinear_data():
    """Degenerate geometry: all particles on one line."""
    import numpy as np

    from repro.data import ParticleSet

    x = np.linspace(0.01, 0.99, 150)
    pts = np.stack([x, np.full_like(x, 0.5)], axis=1)
    data = ParticleSet(pts)
    _check_all(data, 8)


def test_engines_agree_explicit_heights():
    """Non-default tree heights must not change results."""
    data = uniform(300, dim=2, rng=9)
    spec = UniformBuckets.with_count(data.max_possible_distance, 8)
    reference = brute_force_sdh(data, spec=spec)
    for height in (1, 2, 3, 5):
        pyramid = GridPyramid(data, height=height)
        np.testing.assert_array_equal(
            reference.counts, dm_sdh_grid(pyramid, spec=spec).counts
        )
        tree = DensityMapTree(data, height=height)
        np.testing.assert_array_equal(
            reference.counts, dm_sdh_tree(tree, spec=spec).counts
        )
