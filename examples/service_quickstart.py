"""Serving quickstart: run the SDH query service and batch queries.

Starts an in-process server (the same one ``repro-sdh serve`` runs),
registers a dataset once, then issues a batch of SDH and RDF queries
through :class:`repro.service.SDHClient` — demonstrating the paper's
database scenario: the quadtree index is built a single time and
amortized over every query that follows.  The stats endpoint shows the
plan cache doing exactly that.

Run:  python examples/service_quickstart.py
"""

import time

from repro import SDHRequest, compute_sdh, uniform
from repro.service import SDHClient, SDHService


def main() -> None:
    particles = uniform(5000, dim=3, rng=7)
    print(f"dataset: {particles}")

    with SDHService(max_workers=4, timeout=None) as service:
        client = SDHClient(service.url)
        print(f"server up at {service.url}, healthy={client.health()}")

        # Register once; the id is the dataset's content fingerprint.
        dataset = client.register(particles, name="quickstart")
        print(f"registered as {dataset[:12]}...")

        # A batch of queries with different bucket counts, shipped in
        # one POST /v1/sdh/batch call: the first item pays the pyramid
        # build and the rest reuse the cached plan, all in a single
        # executor slot.
        buckets = (8, 16, 32, 64)
        start = time.perf_counter()
        histograms = client.sdh_batch(
            dataset, [{"num_buckets": l} for l in buckets]
        )
        batch = dict(zip(buckets, histograms))
        batch_seconds = time.perf_counter() - start
        print(f"\n4 SDH queries (one batch call) took "
              f"{batch_seconds:.2f}s total")
        for l, hist in batch.items():
            print(f"  l={l:3d}: total pairs {hist.total:,.0f}")

        # Server results are bit-identical to direct library calls.
        direct = compute_sdh(particles, SDHRequest(num_buckets=32))
        assert (batch[32].counts == direct.counts).all()
        print("l=32 histogram identical to direct compute_sdh")

        # The physics layer is served too.
        rdf = client.rdf("quickstart", num_buckets=50)
        r_peak, g_peak = rdf.first_peak()
        print(f"g(r) peak: g({r_peak:.3f}) = {g_peak:.3f}")

        # One build, many hits: the persistent-index economics.
        stats = client.stats()
        cache = stats["cache"]
        print(f"\nplan cache: {cache['builds']} build, "
              f"{cache['hits']} hits "
              f"(hit rate {cache['hit_rate']:.0%})")
        executor = stats["executor"]
        print(f"executor: {executor['completed']} queries completed, "
              f"{executor['rejected']} rejected")


if __name__ == "__main__":
    main()
