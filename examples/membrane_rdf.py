"""Molecular-simulation analysis: RDF of a bilayer membrane system.

The paper's motivating workload (Sec. I-A, Fig. 10): a hydrated lipid
bilayer whose radial distribution function g(r) — "a normalized SDH" —
feeds thermodynamic estimates.  This example:

1. builds the synthetic bilayer stand-in (two dense head-group layers,
   sparse tails, near-uniform water);
2. computes the SDH with the density-map engine and normalizes it to
   g(r);
3. runs the *type-restricted* query variety of Sec. III-C.3
   (water-water and head-head histograms);
4. derives structure factor and thermodynamic integrals from g(r).

Run:  python examples/membrane_rdf.py
"""

import numpy as np

from repro import SDHQuery, SDHRequest, UniformBuckets, synthetic_bilayer
from repro.physics import (
    excess_internal_energy,
    lennard_jones,
    rdf_from_histogram,
    structure_factor,
    virial_pressure,
)


def sparkline(values, width=40) -> str:
    """Tiny ASCII intensity plot."""
    blocks = " .:-=+*#%@"
    peak = max(values) if len(values) else 1.0
    if peak <= 0:
        peak = 1.0
    idx = np.linspace(0, len(values) - 1, width).astype(int)
    return "".join(
        blocks[min(int(9 * values[i] / peak), 9)] for i in idx
    )


def main() -> None:
    system = synthetic_bilayer(15000, dim=3, rng=11)
    print(f"membrane system: {system}")
    for code, name in system.type_names.items():
        print(f"  {name:>6}: {system.type_count(code):>6} atoms")

    # Build the density maps once; answer several queries against them.
    plan = SDHQuery(system)
    spec = UniformBuckets.with_count(system.max_possible_distance, 64)

    # --- overall g(r) -------------------------------------------------
    histogram = plan.run(SDHRequest(spec=spec))
    rdf = rdf_from_histogram(histogram, system).truncated(
        0.7 * system.max_possible_distance
    )
    print("\ng(r), all atoms:")
    print("  " + sparkline(rdf.g))
    peak_r, peak_g = rdf.first_peak()
    print(f"  strongest correlation at r = {peak_r:.3f} "
          f"(g = {peak_g:.2f})")

    # --- type-restricted histograms (Sec. III-C.3 second variety) ----
    for label in ("water", "head"):
        restricted = plan.run(SDHRequest(spec=spec, type_filter=label))
        sub_rdf = rdf_from_histogram(restricted, system.of_type(label))
        sub_rdf = sub_rdf.truncated(0.7 * system.max_possible_distance)
        print(f"\ng(r), {label}-{label} pairs:")
        print("  " + sparkline(sub_rdf.g))

    head_water = plan.run(
        SDHRequest(spec=spec, type_pair=("head", "water"))
    )
    print(f"\nhead-water cross pairs counted: {head_water.total:,.0f}")

    # --- downstream physics -------------------------------------------
    q = np.linspace(5.0, 120.0, 24)
    s_q = structure_factor(rdf, q)
    print("\nstructure factor S(q):")
    print("  " + sparkline(np.abs(s_q)))

    energy = excess_internal_energy(
        rdf, potential=lambda r: lennard_jones(r, sigma=0.02), r_min=0.01
    )
    pressure = virial_pressure(rdf, temperature=1.0)
    print(f"\nexcess energy per particle (reduced LJ units): "
          f"{energy:+.4f}")
    print(f"virial pressure (ideal part rho*T = "
          f"{rdf.density:.0f}): {pressure:,.0f}")


if __name__ == "__main__":
    main()
