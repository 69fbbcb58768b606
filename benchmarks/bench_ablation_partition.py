"""Ablation A4: space-partitioning plans (paper future work, Sec. VIII).

"We should explore more space partitioning plans in building the
Quadtree in hope to find one with the 'optimal' (or just better) cell
resolving percentage."  This benchmark runs that study: the fixed-grid
quadtree plan (the paper's, with and without MBRs) against a median-
split kd-tree whose nodes are tight boxes by construction, comparing
*operation counts* — resolve attempts + computed distances, the
machine-independent cost measure of Sec. IV — on uniform and clustered
data.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench import format_table, make_dataset
from repro.core import SDHStats, UniformBuckets, dm_sdh_grid
from repro.partition import KDPartition
from repro.quadtree import GridPyramid

from _common import timed, write_result

N = 12000
NUM_BUCKETS = 8
FAMILIES = ("uniform", "zipf", "membrane")


@pytest.fixture(scope="module")
def partition_data():
    results: dict[tuple[str, str], dict] = {}
    rows = []
    for family in FAMILIES:
        data = make_dataset(family, N, dim=2, seed=31)
        spec = UniformBuckets.with_count(
            data.max_possible_distance, NUM_BUCKETS
        )
        reference = None

        plans = {
            "quadtree": lambda: dm_sdh_grid(
                GridPyramid(data), spec=spec, stats=stats
            ),
            "quadtree+MBR": lambda: dm_sdh_grid(
                GridPyramid(data),
                spec=spec,
                use_mbr=True,
                stats=stats,
            ),
            "kd-tree": lambda: KDPartition(data).histogram(
                spec=spec, stats=stats
            ),
        }
        for plan_name, runner in plans.items():
            stats = SDHStats()
            hist, seconds = timed(runner)
            if reference is None:
                reference = hist
            else:
                np.testing.assert_array_equal(
                    reference.counts, hist.counts
                )
            resolved = sum(stats.resolved_distances.values())
            covering = resolved / data.num_pairs
            results[(family, plan_name)] = {
                "operations": stats.total_operations,
                "resolve_calls": stats.total_resolve_calls,
                "distances": stats.distance_computations,
                "covering": covering,
                "seconds": seconds,
            }
            rows.append(
                [
                    family,
                    plan_name,
                    stats.total_resolve_calls,
                    stats.distance_computations,
                    f"{100 * covering:.1f}%",
                    f"{seconds:.3f}",
                ]
            )
    text = format_table(
        ["data", "partition plan", "resolve calls", "distances",
         "pair mass resolved", "time [s]"],
        rows,
        title=(
            f"Partitioning-plan study (N={N}, 2D, l={NUM_BUCKETS}); "
            "operation counts are machine-independent"
        ),
    )
    write_result("ablation_partition", text)
    return results


class TestPartitionStudy:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_all_plans_exact(self, partition_data, family):
        """Cross-checked inside the fixture; re-assert it ran."""
        assert (family, "kd-tree") in partition_data

    @pytest.mark.parametrize("family", FAMILIES)
    def test_tight_boxes_resolve_more_mass(self, partition_data, family):
        """Both tight-box plans (MBR quadtree, kd-tree) resolve at
        least as much pair mass as the plain grid."""
        plain = partition_data[(family, "quadtree")]["covering"]
        for plan in ("quadtree+MBR", "kd-tree"):
            assert partition_data[(family, plan)]["covering"] >= (
                plain - 0.02
            ), plan

    def test_kdtree_needs_fewest_distance_computations_on_skew(
        self, partition_data
    ):
        """On clustered data the adaptive plan's tight, balanced boxes
        leave the fewest distances for the leaf level."""
        kd = partition_data[("zipf", "kd-tree")]["distances"]
        plain = partition_data[("zipf", "quadtree")]["distances"]
        assert kd < plain

    def test_operation_counts_same_order(self, partition_data):
        """No plan is catastrophically worse — all within ~8x of the
        best per family (they share the N^1.5 regime)."""
        for family in FAMILIES:
            ops = [
                partition_data[(family, plan)]["operations"]
                for plan in ("quadtree", "quadtree+MBR", "kd-tree")
            ]
            assert max(ops) <= 8 * min(ops), family


def test_benchmark_kd_partition_build(benchmark, partition_data):
    data = make_dataset("uniform", 8000, dim=2, seed=31)
    benchmark.pedantic(
        lambda: KDPartition(data), rounds=3, iterations=1
    )


def test_benchmark_kd_sdh_query(benchmark, partition_data):
    data = make_dataset("uniform", 4000, dim=2, seed=31)
    tree = KDPartition(data)
    spec = UniformBuckets.with_count(
        data.max_possible_distance, NUM_BUCKETS
    )
    benchmark.pedantic(
        lambda: tree.histogram(spec=spec), rounds=3, iterations=1
    )
