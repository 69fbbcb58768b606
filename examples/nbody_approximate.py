"""Astrophysics-scale analysis: approximate SDH of clustered N-body data.

Sec. I of the paper motivates SDH with N-body cosmology (the Virgo
consortium's 10-billion-particle runs).  At such scales only the
approximate algorithm is viable: its cost is independent of N (Eq. 5).
This example builds a heavily clustered "galaxy" distribution (Zipf
order 1, the paper's skewed workload), then shows

* the error-bound machinery: pick the number of levels m from a target
  epsilon via the covering-factor table (the paper's l=128, eps=3% ->
  m=5 example);
* that realized errors are far below the conservative bound, with the
  heuristics ordered exactly as the paper reports (h1 > h2 > h3);
* that doubling N leaves the approximate running time flat while the
  exact engines grow super-linearly.

Run:  python examples/nbody_approximate.py
"""

import time

from repro import (
    SDHRequest,
    UniformBuckets,
    adm_sdh,
    choose_levels_for_error,
    compute_sdh,
    zipf_clustered,
)


def main() -> None:
    num_buckets = 128
    epsilon = 0.03
    m = choose_levels_for_error(epsilon, num_buckets=num_buckets)
    print(
        f"target error bound {epsilon:.0%} with l={num_buckets} buckets"
        f" -> visit m={m} density-map levels (paper's own example)"
    )

    print(f"\n{'N':>8} {'exact[s]':>9} {'approx[s]':>10} "
          f"{'err h1':>8} {'err h2':>8} {'err h3':>8}")
    for n in (8000, 16000, 32000):
        galaxies = zipf_clustered(n, dim=2, grid=32, rng=5)
        spec = UniformBuckets.with_count(
            galaxies.max_possible_distance, num_buckets
        )

        start = time.perf_counter()
        exact = compute_sdh(galaxies, SDHRequest(spec=spec))
        exact_seconds = time.perf_counter() - start

        errors = {}
        start = time.perf_counter()
        for heuristic in (1, 2, 3):
            approx = adm_sdh(
                galaxies, spec=spec, levels=m, heuristic=heuristic,
                rng=0,
            )
            errors[heuristic] = approx.error_rate(exact)
        approx_seconds = (time.perf_counter() - start) / 3

        print(
            f"{n:>8} {exact_seconds:>9.2f} {approx_seconds:>10.2f} "
            f"{errors[1]:>8.4f} {errors[2]:>8.4f} {errors[3]:>8.4f}"
        )

    print(
        "\nNote how the approximate column stays nearly flat while the"
        "\nexact one grows ~N^1.5, and how every realized error sits far"
        f"\nbelow the guaranteed bound of {epsilon:.0%}."
    )


if __name__ == "__main__":
    main()
