"""Ablation A1: the MBR optimization of Sec. III-C.3.

The paper argues that resolving cells by the minimum bounding rectangle
of their particles — instead of the full theoretical cell boundary —
"can shorten the running time by making more cells resolvable at a
higher level on the tree".  This ablation measures exactly that: the
fraction of pair mass resolved per level, the leaf distance-computation
count, and wall time, with MBRs on and off, on uniform and clustered
data (MBRs tighten most on clustered data, where occupied cells are
mostly empty space).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench import format_table, make_dataset
from repro.core import SDHStats, UniformBuckets, dm_sdh_grid
from repro.quadtree import GridPyramid

from _common import timed, write_result

N = 20000
NUM_BUCKETS = 16
FAMILIES = ("uniform", "zipf", "membrane")


@pytest.fixture(scope="module")
def mbr_data():
    results = {}
    rows = []
    for family in FAMILIES:
        data = make_dataset(family, N, dim=2, seed=21)
        spec = UniformBuckets.with_count(
            data.max_possible_distance, NUM_BUCKETS
        )
        pyramid = GridPyramid(data)
        per_family = {}
        reference = None
        for use_mbr in (False, True):
            stats = SDHStats()
            hist, seconds = timed(
                lambda: dm_sdh_grid(
                    pyramid, spec=spec, use_mbr=use_mbr, stats=stats
                )
            )
            if reference is None:
                reference = hist
            else:
                np.testing.assert_array_equal(
                    reference.counts, hist.counts
                )
            per_family[use_mbr] = {
                "seconds": seconds,
                "distances": stats.distance_computations,
                "resolved": sum(stats.resolved_distances.values()),
                "resolve_calls": stats.total_resolve_calls,
            }
            rows.append(
                [
                    family,
                    "MBR" if use_mbr else "cell bounds",
                    f"{seconds:.3f}",
                    per_family[use_mbr]["resolve_calls"],
                    per_family[use_mbr]["distances"],
                ]
            )
        results[family] = per_family
    text = format_table(
        ["data", "resolution box", "time [s]", "resolve calls",
         "distances computed"],
        rows,
        title=f"Ablation: MBR optimization (N={N}, 2D, l={NUM_BUCKETS})",
    )
    write_result("ablation_mbr", text)
    return results


class TestMBRAblation:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_mbr_reduces_leaf_distances(self, mbr_data, family):
        """Tighter boxes -> more resolution -> fewer distances."""
        plain = mbr_data[family][False]["distances"]
        mbr = mbr_data[family][True]["distances"]
        assert mbr <= plain, family

    @pytest.mark.parametrize("family", FAMILIES)
    def test_mbr_resolves_more_mass(self, mbr_data, family):
        plain = mbr_data[family][False]["resolved"]
        mbr = mbr_data[family][True]["resolved"]
        assert mbr >= plain, family

    @pytest.mark.parametrize("family", FAMILIES)
    def test_mbr_shortens_running_time(self, mbr_data, family):
        """The paper's claim verbatim: 'the use of MBR can thus shorten
        the running time by making more cells resolvable at a higher
        level on the tree' (small noise allowance)."""
        plain = mbr_data[family][False]["seconds"]
        mbr = mbr_data[family][True]["seconds"]
        assert mbr < 1.1 * plain, family

    def test_mbr_gain_is_substantial_somewhere(self, mbr_data):
        """At least one data family must show a big (>25%) distance
        saving — layered membrane data does, since occupied cells are
        mostly empty space."""
        savings = []
        for family in FAMILIES:
            plain = mbr_data[family][False]["distances"]
            mbr = mbr_data[family][True]["distances"]
            savings.append(1.0 - mbr / max(plain, 1))
        assert max(savings) > 0.25


def test_benchmark_with_mbr(benchmark, mbr_data):
    data = make_dataset("zipf", 8000, dim=2, seed=21)
    pyramid = GridPyramid(data)
    spec = UniformBuckets.with_count(
        data.max_possible_distance, NUM_BUCKETS
    )
    benchmark.pedantic(
        lambda: dm_sdh_grid(pyramid, spec=spec, use_mbr=True),
        rounds=3,
        iterations=1,
    )


def test_benchmark_without_mbr(benchmark, mbr_data):
    data = make_dataset("zipf", 8000, dim=2, seed=21)
    pyramid = GridPyramid(data)
    spec = UniformBuckets.with_count(
        data.max_possible_distance, NUM_BUCKETS
    )
    benchmark.pedantic(
        lambda: dm_sdh_grid(pyramid, spec=spec),
        rounds=3,
        iterations=1,
    )
