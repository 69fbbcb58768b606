"""Region-restricted SDH queries (Sec. III-C.3, first variety).

A scientist rarely wants statistics of the *whole* simulated space:
"compute the SDH of a specific region" is the paper's first query
variety.  This example indexes a membrane cross-section once and then
answers distance histograms for

* a rectangular window (one leaflet of the membrane),
* a circular probe region,
* the union of two disjoint probes,

each verified against a filtered brute-force computation.

Run:  python examples/region_queries.py
"""

import numpy as np

from repro import (
    AABB,
    BallRegion,
    RectRegion,
    SDHQuery,
    SDHRequest,
    UnionRegion,
    brute_force_sdh,
    synthetic_bilayer,
)


def main() -> None:
    # A 2D cross-section: layers run along y.
    system = synthetic_bilayer(8000, dim=2, rng=3)
    plan = SDHQuery(system)
    print(f"indexed {system}")

    queries = {
        "upper leaflet (rect)": RectRegion(
            AABB((0.0, 0.55), (1.0, 0.80))
        ),
        "probe disc": BallRegion((0.5, 0.5), 0.18),
        "two probes (union)": UnionRegion(
            [
                BallRegion((0.25, 0.35), 0.12),
                BallRegion((0.75, 0.65), 0.12),
            ]
        ),
    }

    for label, region in queries.items():
        inside = region.count_inside(system.positions)
        histogram = plan.run(SDHRequest(num_buckets=12, region=region))

        # Independent check: brute force over the filtered particles.
        subset = system.select(region.contains_points(system.positions))
        reference = brute_force_sdh(subset, spec=histogram.spec)
        assert np.array_equal(histogram.counts, reference.counts)

        print(f"\n{label}: {inside} particles, "
              f"{histogram.total:,.0f} pairs")
        peak = int(np.argmax(histogram.counts))
        lo, hi = histogram.edges[peak], histogram.edges[peak + 1]
        print(f"  most pairs at distances [{lo:.3f}, {hi:.3f})")
        print("  verified against filtered brute force ✓")


if __name__ == "__main__":
    main()
