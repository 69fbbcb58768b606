"""Command-line front end: ``repro-sdh`` / ``python -m repro``.

Subcommands:

* ``generate`` — write a synthetic dataset (uniform / zipf / membrane)
  to a ``.npz`` or ``.xyz`` file;
* ``sdh`` — compute a histogram for a dataset file and print it;
* ``plan`` — print the cost-based planner's ranked execution
  candidates for a query without running it (see ``docs/PLANNER.md``);
* ``calibrate`` — measure this host's planner cost constants and
  persist them;
* ``rdf`` — compute and print g(r);
* ``info`` — dataset and density-map summary;
* ``serve`` — run the JSON-over-HTTP query service (see
  :mod:`repro.service` and ``docs/SERVICE.md``);
* ``verify`` — run the correctness harness (differential engine
  comparison, planner-neutrality checks, metamorphic invariants,
  seeded fuzzing; see :mod:`repro.verify` and ``docs/TESTING.md``).

The CLI is a thin veneer over the public API; anything serious should
import :mod:`repro` directly.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

import numpy as np

from .core import SDHRequest, SDHStats, compute_sdh
from .data import (
    ParticleSet,
    load_particles,
    load_xyz,
    save_particles,
    save_xyz,
    synthetic_bilayer,
    uniform,
    zipf_clustered,
)
from .errors import ReproError
from .observability import configure_logging, trace_span
from .physics import rdf_from_histogram
from .quadtree import GridPyramid

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree of the CLI."""
    parser = argparse.ArgumentParser(
        prog="repro-sdh",
        description=(
            "Spatial distance histograms via density maps "
            "(Tu, Chen & Pandit, ICDE 2009)"
        ),
    )
    # Shared on every subcommand so `repro-sdh sdh --log-json` works
    # (argparse only accepts top-level flags before the subcommand).
    logopts = argparse.ArgumentParser(add_help=False)
    logopts.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default=None,
        help="minimum level of structured log output "
        "(default: warning, or info with --log-json)",
    )
    logopts.add_argument(
        "--log-json",
        action="store_true",
        help="emit logs as one JSON object per line (per-phase spans, "
        "trace IDs; see docs/OBSERVABILITY.md)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser(
        "generate", help="write a synthetic dataset", parents=[logopts]
    )
    gen.add_argument("output", help="target file (.npz or .xyz)")
    gen.add_argument(
        "--family",
        choices=("uniform", "zipf", "membrane"),
        default="uniform",
    )
    gen.add_argument("--n", type=int, default=10000, help="particle count")
    gen.add_argument("--dim", type=int, choices=(2, 3), default=3)
    gen.add_argument("--seed", type=int, default=0)

    sdh = sub.add_parser(
        "sdh", help="compute a distance histogram", parents=[logopts]
    )
    sdh.add_argument("input", help="dataset file (.npz or .xyz)")
    group = sdh.add_mutually_exclusive_group(required=True)
    group.add_argument("--width", type=float, help="bucket width p")
    group.add_argument("--buckets", type=int, help="total bucket count l")
    sdh.add_argument(
        "--engine",
        choices=("auto", "grid", "tree", "brute", "parallel"),
        default="auto",
    )
    sdh.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for the parallel engine "
        "(>1 makes --engine auto pick it)",
    )
    sdh.add_argument(
        "--error-bound",
        type=float,
        default=None,
        help="run approximate ADM-SDH with this error bound",
    )
    sdh.add_argument(
        "--heuristic", type=int, choices=(1, 2, 3, 4), default=3
    )
    sdh.add_argument("--mbr", action="store_true", help="use node MBRs")
    sdh.add_argument(
        "--periodic",
        action="store_true",
        help="minimum-image distances over the simulation box",
    )
    sdh.add_argument(
        "--stats", action="store_true", help="print operation counters"
    )
    sdh.add_argument(
        "--kernel",
        choices=("auto", "numpy", "numba"),
        default="auto",
        help="leaf-resolution kernel tier (bit-identical results; "
        "'auto' picks the fastest installed)",
    )
    sdh.add_argument(
        "--latency-budget-ms",
        type=float,
        default=None,
        metavar="MS",
        help="latency SLO: fail (exit 1) unless the planner predicts a "
        "strategy finishing within MS milliseconds",
    )
    sdh.add_argument(
        "--planner",
        choices=("auto", "off"),
        default="auto",
        help="'auto' routes engine=auto queries through the cost-based "
        "planner; 'off' uses the static rule (grid, or parallel when "
        "--workers > 1)",
    )
    sdh.add_argument(
        "--weights",
        default=None,
        metavar="FILE",
        help="per-particle weights for a weighted SDH: a .npy file or "
        "a text file with one weight per line",
    )
    sdh.add_argument(
        "--cross",
        default=None,
        metavar="FILE",
        help="second dataset (.npz or .xyz) for a two-dataset "
        "cross-set SDH counting only A-B pairs",
    )

    plan = sub.add_parser(
        "plan",
        help="print the planner's ranked execution candidates "
        "(see docs/PLANNER.md)",
        parents=[logopts],
    )
    plan.add_argument("input", help="dataset file (.npz or .xyz)")
    plan_group = plan.add_mutually_exclusive_group(required=True)
    plan_group.add_argument("--width", type=float, help="bucket width p")
    plan_group.add_argument(
        "--buckets", type=int, help="total bucket count l"
    )
    plan.add_argument(
        "--engine",
        choices=("auto", "grid", "tree", "brute", "parallel"),
        default="auto",
        help="pin the engine (the planner still prices it)",
    )
    plan.add_argument("--workers", type=int, default=None)
    plan.add_argument(
        "--kernel",
        choices=("auto", "numpy", "numba"),
        default="auto",
        help="pin the leaf-resolution kernel tier "
        "(the planner otherwise prices every installed tier)",
    )
    plan.add_argument(
        "--error-bound",
        type=float,
        default=None,
        help="plan an approximate ADM-SDH run with this error bound",
    )
    plan.add_argument(
        "--latency-budget-ms", type=float, default=None, metavar="MS",
        help="latency SLO the chosen strategy must satisfy",
    )
    plan.add_argument(
        "--periodic", action="store_true",
        help="minimum-image distances over the simulation box",
    )
    plan.add_argument(
        "--calibration",
        default=None,
        metavar="PATH",
        help="use this calibration file instead of the default "
        "(~/.cache/repro-sdh/calibration.json or $REPRO_SDH_CALIBRATION)",
    )
    plan.add_argument(
        "--json", action="store_true",
        help="print the plan as JSON instead of the explain() text",
    )

    calibrate = sub.add_parser(
        "calibrate",
        help="measure this host's planner cost constants "
        "(a few seconds of micro-benchmarks)",
        parents=[logopts],
    )
    calibrate.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="where to write the calibration JSON (default: "
        "$REPRO_SDH_CALIBRATION or ~/.cache/repro-sdh/calibration.json)",
    )
    calibrate.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="probe-size multiplier (lower it on constrained hosts)",
    )

    rdf = sub.add_parser(
        "rdf", help="compute g(r) from a dataset", parents=[logopts]
    )
    rdf.add_argument("input", help="dataset file (.npz or .xyz)")
    rdf.add_argument("--buckets", type=int, default=100)
    rdf.add_argument(
        "--periodic",
        action="store_true",
        help="minimum-image distances and torus normalization",
    )

    info = sub.add_parser(
        "info", help="summarize a dataset", parents=[logopts]
    )
    info.add_argument("input", help="dataset file (.npz or .xyz)")

    serve = sub.add_parser(
        "serve", help="run the SDH query service", parents=[logopts]
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8787, help="0 picks a free port"
    )
    serve.add_argument(
        "--dataset",
        action="append",
        default=[],
        metavar="PATH[:NAME]",
        help="preload and index a dataset file, optionally under a name "
        "(repeatable)",
    )
    serve.add_argument(
        "--workers", type=int, default=4, help="query worker threads"
    )
    serve.add_argument(
        "--queue",
        type=int,
        default=16,
        help="admitted requests allowed to wait beyond the running ones",
    )
    serve.add_argument(
        "--cache",
        type=int,
        default=8,
        help="plan-cache capacity (datasets with a built pyramid)",
    )
    serve.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        help="per-query time budget in seconds (0 = unlimited)",
    )
    serve.add_argument(
        "--result-cache-capacity",
        type=int,
        default=256,
        metavar="N",
        help="finished responses kept in the result cache "
        "(0 disables storage; identical in-flight requests still "
        "coalesce)",
    )
    serve.add_argument(
        "--result-ttl",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="seconds a cached result stays servable (0 = no expiry)",
    )
    serve.add_argument(
        "--verbose", action="store_true", help="log each HTTP request"
    )

    verify = sub.add_parser(
        "verify",
        help="run the correctness harness (see docs/TESTING.md)",
        parents=[logopts],
    )
    verify.add_argument(
        "--seeds",
        type=int,
        default=20,
        help="number of fuzz seeds to run (each is one generated case)",
    )
    verify.add_argument(
        "--seed-start",
        type=int,
        default=0,
        help="first seed (cases are a pure function of their seed)",
    )
    verify.add_argument(
        "--engines",
        default=None,
        metavar="NAME[,NAME...]",
        help="comma-separated engine subset "
        "(default: every registered engine)",
    )
    verify.add_argument(
        "--corpus",
        default=None,
        metavar="DIR",
        help="replay stored reproducers from DIR first, and write "
        "shrunk failures back into it",
    )
    verify.add_argument(
        "--workers",
        type=int,
        default=2,
        help="worker processes given to worker-capable engines",
    )
    verify.add_argument(
        "--kernel",
        choices=("auto", "numpy", "numba"),
        default="auto",
        help="pin every fuzz case to one kernel tier; 'auto' diffs "
        "all installed tiers against each other per engine",
    )
    verify.add_argument(
        "--no-invariants",
        action="store_true",
        help="skip the metamorphic invariant checks",
    )
    verify.add_argument(
        "--no-adm",
        action="store_true",
        help="skip the ADM-SDH error-model bounds",
    )
    verify.add_argument(
        "--no-planner",
        action="store_true",
        help="skip the planner-neutrality check (planner-routed vs "
        "forced-engine execution)",
    )
    verify.add_argument(
        "--json",
        action="store_true",
        help="print the full report as JSON instead of text",
    )

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    # --log-json without an explicit level means "show the spans":
    # structured output is only useful if the INFO-level phase events
    # actually appear.
    level = args.log_level or ("info" if args.log_json else "warning")
    configure_logging(level, json_output=args.log_json)
    try:
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "sdh":
            return _cmd_sdh(args)
        if args.command == "plan":
            return _cmd_plan(args)
        if args.command == "calibrate":
            return _cmd_calibrate(args)
        if args.command == "rdf":
            return _cmd_rdf(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_info(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _load(path: str) -> ParticleSet:
    if path.endswith(".xyz"):
        return load_xyz(path)
    return load_particles(path)


def _load_weights(path: str) -> np.ndarray:
    """One weight per particle: a ``.npy`` array or a text column."""
    if path.endswith(".npy"):
        return np.asarray(np.load(path), dtype=np.float64).ravel()
    return np.loadtxt(path, dtype=np.float64).ravel()


def _cmd_generate(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    if args.family == "uniform":
        data = uniform(args.n, dim=args.dim, rng=rng)
    elif args.family == "zipf":
        data = zipf_clustered(args.n, dim=args.dim, rng=rng)
    else:
        data = synthetic_bilayer(args.n, dim=args.dim, rng=rng)
    if args.output.endswith(".xyz"):
        save_xyz(args.output, data)
    else:
        save_particles(args.output, data)
    print(f"wrote {data.size} particles ({args.family}, {args.dim}D) "
          f"to {args.output}")
    return 0


def _cmd_sdh(args: argparse.Namespace) -> int:
    with trace_span("load_dataset", path=args.input) as span:
        data = _load(args.input)
        span.annotate(particles=data.size)
    if args.weights is not None:
        data = data.with_weights(_load_weights(args.weights))
    b = None
    if args.cross is not None:
        b = _load(args.cross)
        if b.box != data.box:
            # Files carry their own extent-fitted boxes; cross-set
            # operands must share one, so pool the two.
            from .geometry import AABB

            lo = np.minimum(data.box.lo, b.box.lo)
            hi = np.maximum(data.box.hi, b.box.hi)
            pooled = AABB(lo, hi)
            data = ParticleSet(
                data.positions,
                box=pooled,
                types=data.types,
                weights=data.weights,
            )
            b = ParticleSet(
                b.positions, box=pooled, types=b.types, weights=b.weights
            )
    stats = SDHStats()
    request = SDHRequest(
        bucket_width=args.width,
        num_buckets=args.buckets,
        engine=args.engine,
        use_mbr=args.mbr,
        error_bound=args.error_bound,
        heuristic=args.heuristic,
        periodic=args.periodic,
        workers=args.workers,
        latency_budget_ms=args.latency_budget_ms,
        planner=args.planner,
        kernel=args.kernel,
    )
    histogram = compute_sdh(data, request, stats=stats, b=b)
    print(histogram.to_text())
    weighted = data.weighted or (b is not None and b.weighted)
    if weighted:
        print(f"total pair mass: {histogram.total:.17g}")
    else:
        print(f"total pairs: {histogram.total:.0f}")
    if args.stats:
        print(f"start level:       {stats.start_level}")
        print(f"resolve calls:     {stats.total_resolve_calls}")
        print(f"resolved pairs:    {stats.total_resolved_pairs}")
        print(f"distances computed:{stats.distance_computations}")
        if stats.approximated_distances:
            print(f"approximated:      {stats.approximated_distances:.0f}")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    import json as json_module

    from .planner import get_calibration, plan_request

    data = _load(args.input)
    request = SDHRequest(
        bucket_width=args.width,
        num_buckets=args.buckets,
        engine=args.engine,
        error_bound=args.error_bound,
        periodic=args.periodic,
        workers=args.workers,
        latency_budget_ms=args.latency_budget_ms,
        kernel=args.kernel,
    )
    calibration = get_calibration(args.calibration)
    plan = plan_request(request, data, calibration=calibration)
    if args.json:
        print(json_module.dumps(plan.to_dict(), indent=2))
    else:
        print(plan.explain())
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    from .planner import calibrate as run_calibration
    from .planner import save_calibration

    print("measuring host cost constants (a few seconds)...")
    calibration = run_calibration(scale=args.scale)
    path = save_calibration(calibration, args.output)
    print(f"calibration written to {path}")
    for key, value in calibration.constants.to_dict().items():
        print(f"  {key:26s} {value:.3e}")
    return 0


def _cmd_rdf(args: argparse.Namespace) -> int:
    data = _load(args.input)
    histogram = compute_sdh(
        data, SDHRequest(num_buckets=args.buckets, periodic=args.periodic)
    )
    rdf = rdf_from_histogram(
        histogram,
        data,
        finite_size="periodic" if args.periodic else "corrected",
    )
    for r, g in zip(rdf.r, rdf.g):
        print(f"{r:12.6f} {g:12.6f}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import SDHService, ServiceConfig

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        cache_capacity=args.cache,
        max_workers=args.workers,
        max_queue=args.queue,
        timeout=None if args.timeout <= 0 else args.timeout,
        result_cache_capacity=args.result_cache_capacity,
        result_ttl=None if args.result_ttl <= 0 else args.result_ttl,
    )
    service = SDHService(config)
    for entry in args.dataset:
        path, _, name = entry.rpartition(":")
        if not path:  # no ":NAME" suffix given
            path, name = name, None
        data = _load(path)
        key = service.preload(data, name)
        label = f" as {name!r}" if name else ""
        print(f"indexed {data.size} particles from {path}{label} "
              f"({key[:12]}...)")
    print(f"serving on {service.url} "
          f"(workers={args.workers}, queue={args.queue}, "
          f"cache={args.cache})")
    try:
        service.serve_forever(verbose=args.verbose)
    except KeyboardInterrupt:  # pragma: no cover - interactive
        print("shutting down")
        service.shutdown()
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    import json as json_module

    from .verify import Corpus, run_verification

    engines = None
    if args.engines:
        engines = tuple(
            name.strip() for name in args.engines.split(",") if name.strip()
        )
    corpus = Corpus(args.corpus) if args.corpus else None
    report = run_verification(
        seeds=args.seeds,
        seed_start=args.seed_start,
        engines=engines,
        corpus=corpus,
        invariants=not args.no_invariants,
        adm=not args.no_adm,
        planner=not args.no_planner,
        workers=args.workers,
        kernel=args.kernel,
    )
    if args.json:
        print(json_module.dumps(report.to_dict(), indent=2))
    else:
        print(f"engines:    {', '.join(report.engines)}")
        print(f"fuzz cases: {report.cases_run} "
              f"(seeds {args.seed_start}..{args.seed_start + args.seeds - 1})")
        if corpus is not None:
            print(f"corpus:     {report.corpus_replayed} case(s) replayed")
        if report.adm_checked:
            print("adm bounds: checked")
        print(f"duration:   {report.duration_seconds:.2f}s")
        if report.ok:
            print("verify: OK — no discrepancies")
        else:
            print(f"verify: FAILED — {len(report.discrepancies)} "
                  f"discrepanc{'y' if len(report.discrepancies) == 1 else 'ies'}")
            for item in report.discrepancies:
                where = f" [{item.case}]" if item.case else ""
                seed = f" (seed {item.seed})" if item.seed is not None else ""
                print(f"  {item.kind}{where}{seed}: {item.detail}")
            if report.corpus_written:
                print("shrunk reproducers written:")
                for path in report.corpus_written:
                    print(f"  {path}")
    return 0 if report.ok else 1


def _cmd_info(args: argparse.Namespace) -> int:
    data = _load(args.input)
    pyramid = GridPyramid(data)
    print(f"particles:  {data.size}")
    print(f"dimensions: {data.dim}")
    print(f"box:        {data.box}")
    if data.types is not None:
        names = data.type_names
        for code in np.unique(data.types):
            label = names.get(int(code), str(code))
            count = int(np.count_nonzero(data.types == code))
            print(f"  type {label}: {count}")
    print(f"tree height (Eq. 2): {pyramid.height}")
    finest = pyramid.counts(pyramid.leaf_level)
    print(f"leaf cells: {finest.size} ({np.count_nonzero(finest)} occupied)")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
