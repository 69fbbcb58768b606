"""Leaf-resolution kernel tier: backends, eligibility, capability wiring.

The numpy backend is the bit-identical reference; the numba tests run
only where numba is installed (the CI kernel job) and assert exact
equality against it.  Engine-integration parity pins ``kernel=`` through
``compute_sdh`` and checks the histograms never move.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import (
    CustomBuckets,
    QueryError,
    SDHRequest,
    UniformBuckets,
    available_engines,
    compute_sdh,
    get_engine,
    lattice,
    uniform,
    zipf_clustered,
)
from repro.kernels import (
    KERNEL_TIERS,
    NUMBA_AVAILABLE,
    available_kernel_tiers,
    fast_uniform_width,
    get_backend,
    resolve_kernel,
)
from repro.geometry.distance import (
    PANEL_ROWS,
    iter_cross_distance_chunks,
    iter_self_distance_chunks,
)
from repro.kernels import exact

NBINS = 12

numba_only = pytest.mark.skipif(
    not NUMBA_AVAILABLE, reason="numba is not installed"
)


def _dataset(family: str):
    if family == "uniform2d":
        return uniform(160, dim=2, rng=11)
    if family == "uniform3d":
        return uniform(120, dim=3, rng=12)
    if family == "zipf":
        return zipf_clustered(150, dim=2, rng=13)
    return lattice(12, dim=2)


FAMILIES = ("uniform2d", "uniform3d", "zipf", "lattice")


def _spec_for(data):
    return UniformBuckets.with_count(data.max_possible_distance, NBINS)


def _reference_self(positions, width, nbins, box_lengths=None):
    """Unchunked O(n^2) reference with the contract's op sequence."""
    n = positions.shape[0]
    idx_a, idx_b = np.triu_indices(n, k=1)
    delta = positions[idx_a] - positions[idx_b]
    if box_lengths is not None:
        lengths = np.asarray(box_lengths, dtype=np.float64)
        delta = delta - lengths * np.round(delta / lengths)
    distances = np.sqrt(np.einsum("ij,ij->i", delta, delta))
    bins = np.minimum((distances / width).astype(np.int64), nbins - 1)
    return np.bincount(bins, minlength=nbins).astype(np.int64), distances.size


class TestResolution:
    def test_numpy_always_available(self):
        tiers = available_kernel_tiers()
        assert tiers[0] == "numpy"
        assert set(tiers) <= set(KERNEL_TIERS)

    def test_auto_resolves_to_available_tier(self):
        assert resolve_kernel("auto") in available_kernel_tiers()

    def test_explicit_names_pass_through(self):
        assert resolve_kernel("numpy") == "numpy"
        assert resolve_kernel("NumPy") == "numpy"
        # Explicit numba resolves even when absent (the planner prices
        # it); get_backend is what enforces availability.
        assert resolve_kernel("numba") == "numba"

    def test_unknown_tier_rejected(self):
        with pytest.raises(QueryError, match="unknown kernel tier"):
            resolve_kernel("fortran")

    def test_get_backend_names(self):
        assert get_backend("numpy").NAME == "numpy"
        assert get_backend("auto").NAME == resolve_kernel("auto")

    @pytest.mark.skipif(NUMBA_AVAILABLE, reason="numba is installed")
    def test_missing_numba_backend_rejected(self):
        with pytest.raises(QueryError, match="numba is not installed"):
            get_backend("numba")


class TestFastUniformWidth:
    def test_covering_uniform_spec_is_eligible(self):
        spec = UniformBuckets.with_count(10.0, 5)
        assert fast_uniform_width(spec, 10.0) == spec.width
        assert fast_uniform_width(spec, 9.0) == spec.width

    def test_short_spec_is_ineligible(self):
        spec = UniformBuckets.with_count(5.0, 5)
        assert fast_uniform_width(spec, 10.0) is None

    def test_custom_buckets_are_ineligible(self):
        spec = CustomBuckets([0.0, 1.0, 2.0, 4.0])
        assert fast_uniform_width(spec, 2.0) is None

    def test_edge_tolerance(self):
        # A reach epsilon past the top edge still qualifies.
        spec = UniformBuckets.with_count(10.0, 5)
        assert fast_uniform_width(spec, 10.0 * (1 + 1e-12)) == spec.width


class TestNumpyBackend:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_dense_self_matches_unchunked_reference(self, family):
        data = _dataset(family)
        spec = _spec_for(data)
        expected, npairs = _reference_self(
            data.positions, spec.width, NBINS
        )
        backend = get_backend("numpy")
        for chunk in (7, 64, 4096):
            hist, total = backend.bin_dense_self(
                data.positions, spec.width, NBINS, chunk=chunk
            )
            np.testing.assert_array_equal(hist, expected)
            assert total == npairs == data.num_pairs

    def test_periodic_minimum_image(self):
        data = uniform(130, dim=3, rng=21)
        spec = UniformBuckets.with_count(data.max_periodic_distance, NBINS)
        lengths = np.asarray(data.box.sides)
        expected, npairs = _reference_self(
            data.positions, spec.width, NBINS, box_lengths=lengths
        )
        hist, total = get_backend("numpy").bin_dense_self(
            data.positions, spec.width, NBINS, box_lengths=lengths,
            chunk=17,
        )
        np.testing.assert_array_equal(hist, expected)
        assert total == npairs

    def test_cross_plus_self_decomposition(self):
        # self(A ++ B) == self(A) + self(B) + cross(A, B): a metamorphic
        # identity that is not circular with the implementation.
        a = uniform(90, dim=2, rng=31).positions
        b = uniform(70, dim=2, rng=32).positions
        both = np.vstack((a, b))
        reach = float(
            np.sqrt(((both.max(0) - both.min(0)) ** 2).sum())
        )
        spec = UniformBuckets.with_count(reach, NBINS)
        backend = get_backend("numpy")
        whole, n_whole = backend.bin_dense_self(both, spec.width, NBINS)
        ha, na = backend.bin_dense_self(a, spec.width, NBINS)
        hb, nb = backend.bin_dense_self(b, spec.width, NBINS)
        hab, nab = backend.bin_dense_cross(a, b, spec.width, NBINS)
        np.testing.assert_array_equal(whole, ha + hb + hab)
        assert n_whole == na + nb + nab == both.shape[0] * (
            both.shape[0] - 1
        ) // 2

    def test_gathered_pairs_match_dense_self(self):
        data = uniform(80, dim=2, rng=41)
        spec = _spec_for(data)
        backend = get_backend("numpy")
        idx_a, idx_b = np.triu_indices(data.size, k=1)
        gathered, n_gathered = backend.bin_gathered_pairs(
            data.positions, idx_a, idx_b, spec.width, NBINS
        )
        dense, n_dense = backend.bin_dense_self(
            data.positions, spec.width, NBINS
        )
        np.testing.assert_array_equal(gathered, dense)
        assert n_gathered == n_dense

    def test_empty_and_singleton_inputs(self):
        backend = get_backend("numpy")
        empty_idx = np.zeros(0, dtype=np.int64)
        one = np.zeros((1, 3))
        hist, total = backend.bin_gathered_pairs(
            one, empty_idx, empty_idx, 1.0, NBINS
        )
        assert total == 0 and not hist.any()
        hist, total = backend.bin_dense_self(one, 1.0, NBINS)
        assert total == 0 and not hist.any()
        hist, total = backend.bin_dense_cross(
            np.zeros((0, 3)), one, 1.0, NBINS
        )
        assert total == 0 and not hist.any()


def _axis_order_distances(a, b, box_lengths=None):
    """Row-major ``a x b`` distances, squares summed in axis order."""
    delta = (a[:, None, :] - b[None, :, :]).reshape(-1, a.shape[1])
    if box_lengths is not None:
        lengths = np.asarray(box_lengths, dtype=np.float64)
        delta = delta - lengths * np.round(delta / lengths)
    total = delta[:, 0] * delta[:, 0]
    for axis in range(1, delta.shape[1]):
        total = total + delta[:, axis] * delta[:, axis]
    return np.sqrt(total)


def _einsum_distances(a, b, box_lengths=None):
    """Row-major ``a x b`` distances: interleaved deltas reduced by einsum."""
    delta = (a[:, None, :] - b[None, :, :]).reshape(-1, a.shape[1])
    if box_lengths is not None:
        lengths = np.asarray(box_lengths, dtype=np.float64)
        delta = delta - lengths * np.round(delta / lengths)
    return np.sqrt(np.einsum("ij,ij->i", delta, delta))


def _binned(chunks, width, nbins):
    """Reference binning of distance chunks (the contract)."""
    hist = np.zeros(nbins, dtype=np.int64)
    total = 0
    for distances in chunks:
        idx = np.minimum((distances / width).astype(np.int64), nbins - 1)
        hist += np.bincount(idx, minlength=nbins)
        total += distances.size
    return hist, total


def _grid_points(dim, side, step=0.25):
    axes = np.meshgrid(*[np.arange(side) * step] * dim, indexing="ij")
    return np.stack([axis.ravel() for axis in axes], axis=1)


def _panel_case(name, dim):
    """``(points, box_lengths, width, nbins)`` of one edge case."""
    rng = np.random.default_rng(dim * 100 + len(name))
    if name == "bucket_edges":
        # Lattice distances 0.25 * sqrt(k): every integral sqrt(k) lands
        # exactly on an edge of the 0.25-wide buckets.
        return _grid_points(dim, 6 if dim == 2 else 4), None, 0.25, 16
    if name == "duplicates":
        # Repeated points give off-diagonal zeros next to the diagonal
        # ones the self-panel fold subtracts.
        points = np.repeat(rng.random((40, dim)), 3, axis=0)
        return rng.permutation(points), None, 0.1, 20
    if name == "periodic_half_box":
        # A lattice of step L/4 puts many deltas at +-L/2, where the
        # minimum-image round() sits on its half-even tie.
        points = _grid_points(dim, 4, step=0.5)
        return points, np.full(dim, 2.0), 0.125, 16
    if name == "clamped":
        return rng.random((90, dim)) * 3.0, None, 0.1, 5
    assert name == "one_bucket"
    return rng.random((70, dim)), None, 0.05, 1


PANEL_CASES = (
    "bucket_edges", "duplicates", "periodic_half_box", "clamped", "one_bucket",
)


class TestAxisMajorPanels:
    """The axis-major dense kernels and distance iterators against the
    einsum formulation."""

    @pytest.mark.parametrize("dim", (2, 3))
    @pytest.mark.parametrize("name", PANEL_CASES)
    @pytest.mark.parametrize("chunk", (1, 7, PANEL_ROWS, 10_000))
    def test_self_matches_einsum_reference(self, name, dim, chunk):
        points, box, width, nbins = _panel_case(name, dim)
        expected = _reference_self(points, width, nbins, box)
        hist, total = get_backend("numpy").bin_dense_self(
            points, width, nbins, box, chunk=chunk
        )
        np.testing.assert_array_equal(hist, expected[0])
        assert total == expected[1]

    @pytest.mark.parametrize("dim", (2, 3))
    @pytest.mark.parametrize("name", PANEL_CASES)
    @pytest.mark.parametrize("chunk", (1, 7, PANEL_ROWS, 10_000))
    def test_cross_matches_einsum_reference(self, name, dim, chunk):
        points, box, width, nbins = _panel_case(name, dim)
        a, b = points[::2], points[1::2]
        expected = _binned([_einsum_distances(a, b, box)], width, nbins)
        hist, total = get_backend("numpy").bin_dense_cross(
            a, b, width, nbins, box, chunk=chunk
        )
        np.testing.assert_array_equal(hist, expected[0])
        assert total == expected[1]

    @pytest.mark.parametrize("dim", (2, 3))
    @pytest.mark.parametrize("n", (1, 2, PANEL_ROWS - 1, PANEL_ROWS + 1))
    @pytest.mark.parametrize("periodic", (False, True))
    def test_panel_edge_sizes(self, n, dim, periodic):
        rng = np.random.default_rng(n + dim)
        a, b = rng.random((n, dim)), rng.random((PANEL_ROWS + 3, dim))
        box = np.ones(dim) if periodic else None
        width, nbins = 0.02, 64
        backend = get_backend("numpy")
        np.testing.assert_array_equal(
            backend.bin_dense_self(a, width, nbins, box)[0],
            _reference_self(a, width, nbins, box)[0],
        )
        np.testing.assert_array_equal(
            backend.bin_dense_cross(a, b, width, nbins, box)[0],
            _binned([_einsum_distances(a, b, box)], width, nbins)[0],
        )

    @pytest.mark.parametrize("dim", (2, 3))
    @pytest.mark.parametrize("name", PANEL_CASES)
    def test_weighted_limbs_match_gathered(self, name, dim):
        # The gathered weighted kernel keeps the einsum op sequence, so
        # equal limbs mean every pair landed in the same bucket.
        points, box, width, nbins = _panel_case(name, dim)
        n = points.shape[0]
        weights = np.random.default_rng(n).uniform(-2.0, 2.0, n)
        backend = get_backend("numpy")
        iu, ju = np.triu_indices(n, k=1)
        expected, _ = backend.bin_gathered_pairs_weighted(
            points, weights, iu, ju, width, nbins, box
        )
        limbs, total = backend.bin_dense_self_weighted(
            points, weights, width, nbins, box, chunk=7
        )
        np.testing.assert_array_equal(
            exact.limbs_to_ints(limbs), exact.limbs_to_ints(expected)
        )
        assert total == iu.size
        cut = n // 3
        ia, ib = np.divmod(np.arange(cut * (n - cut)), n - cut)
        expected, _ = backend.bin_gathered_pairs_weighted(
            points, weights, ia, ib + cut, width, nbins, box
        )
        limbs, total = backend.bin_dense_cross_weighted(
            points[:cut], points[cut:], weights[:cut], weights[cut:],
            width, nbins, box, chunk=7,
        )
        np.testing.assert_array_equal(
            exact.limbs_to_ints(limbs), exact.limbs_to_ints(expected)
        )
        assert total == ia.size

    def test_concurrent_calls_keep_their_answers(self):
        # Panel scratch belongs to one call: threads sweeping at once
        # (numpy drops the GIL inside each ufunc) must not share it.
        backend = get_backend("numpy")
        jobs = [
            (np.random.default_rng(1).random((PANEL_ROWS + 200, 2)), None),
            (np.random.default_rng(2).random((PANEL_ROWS + 100, 3)), np.ones(3)),
        ]
        expected = [
            backend.bin_dense_self(points, 0.01, 200, box)[0]
            for points, box in jobs
        ]
        workers = 4  # more threads than this test's usual two cores
        results = [[] for _ in range(workers)]
        barrier = threading.Barrier(workers)

        def sweep(slot):
            points, box = jobs[slot % len(jobs)]
            barrier.wait()
            for _ in range(3):
                results[slot].append(
                    backend.bin_dense_self(points, 0.01, 200, box)[0]
                )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=sweep, args=(slot,))
                for slot in range(workers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for slot, hists in enumerate(results):
            assert len(hists) == 3
            for hist in hists:
                np.testing.assert_array_equal(hist, expected[slot % len(jobs)])


@numba_only
class TestNumbaParity:
    """Bit-identity of the compiled tier against the numpy reference."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_dense_self_identical(self, family):
        data = _dataset(family)
        spec = _spec_for(data)
        ref, n_ref = get_backend("numpy").bin_dense_self(
            data.positions, spec.width, NBINS
        )
        hist, total = get_backend("numba").bin_dense_self(
            data.positions, spec.width, NBINS
        )
        np.testing.assert_array_equal(hist, ref)
        assert total == n_ref

    def test_dense_cross_identical(self):
        a = uniform(90, dim=3, rng=51).positions
        b = uniform(60, dim=3, rng=52).positions
        reach = float(np.sqrt(27.0))  # unit-cube pair, generous cover
        spec = UniformBuckets.with_count(max(reach, 1.0) * 4, NBINS)
        ref, n_ref = get_backend("numpy").bin_dense_cross(
            a, b, spec.width, NBINS
        )
        hist, total = get_backend("numba").bin_dense_cross(
            a, b, spec.width, NBINS
        )
        np.testing.assert_array_equal(hist, ref)
        assert total == n_ref

    def test_periodic_identical(self):
        data = uniform(110, dim=3, rng=53)
        spec = UniformBuckets.with_count(data.max_periodic_distance, NBINS)
        lengths = np.asarray(data.box.sides)
        ref, _ = get_backend("numpy").bin_dense_self(
            data.positions, spec.width, NBINS, box_lengths=lengths
        )
        hist, _ = get_backend("numba").bin_dense_self(
            data.positions, spec.width, NBINS, box_lengths=lengths
        )
        np.testing.assert_array_equal(hist, ref)

    def test_gathered_pairs_identical(self):
        data = zipf_clustered(140, dim=2, rng=54)
        spec = _spec_for(data)
        idx_a, idx_b = np.triu_indices(data.size, k=1)
        ref, _ = get_backend("numpy").bin_gathered_pairs(
            data.positions, idx_a, idx_b, spec.width, NBINS
        )
        hist, _ = get_backend("numba").bin_gathered_pairs(
            data.positions, idx_a, idx_b, spec.width, NBINS
        )
        np.testing.assert_array_equal(hist, ref)


class TestEngineIntegration:
    @pytest.fixture(scope="class")
    def data(self):
        return uniform(220, dim=2, rng=61)

    @pytest.mark.parametrize("engine", ("brute", "tree", "grid"))
    def test_pinned_numpy_matches_auto(self, data, engine):
        base = compute_sdh(
            data, SDHRequest(num_buckets=NBINS, engine=engine)
        )
        pinned = compute_sdh(
            data,
            SDHRequest(num_buckets=NBINS, engine=engine, kernel="numpy"),
        )
        np.testing.assert_array_equal(base.counts, pinned.counts)
        assert base.total == data.num_pairs

    def test_all_tiers_agree_across_engines(self, data):
        reference = None
        for engine in ("brute", "tree", "grid"):
            for tier in available_kernel_tiers():
                hist = compute_sdh(
                    data,
                    SDHRequest(
                        num_buckets=NBINS, engine=engine, kernel=tier
                    ),
                )
                if reference is None:
                    reference = hist.counts
                np.testing.assert_array_equal(hist.counts, reference)

    def test_custom_buckets_ignore_kernel_pin(self, data):
        # Ineligible specs fall back to the inline binning path; the
        # pin must be accepted and the result unchanged.
        edges = CustomBuckets(
            [0.0, 0.1, 0.5, data.max_possible_distance]
        )
        base = compute_sdh(data, SDHRequest(spec=edges))
        pinned = compute_sdh(
            data, SDHRequest(spec=edges, kernel="numpy")
        )
        np.testing.assert_array_equal(base.counts, pinned.counts)

    def test_unavailable_tier_is_rejected(self, data):
        request = SDHRequest(
            num_buckets=NBINS, engine="grid", kernel="numba"
        )
        if "numba" in available_kernel_tiers():
            hist = compute_sdh(data, request)
            reference = compute_sdh(
                data,
                SDHRequest(
                    num_buckets=NBINS, engine="grid", kernel="numpy"
                ),
            )
            np.testing.assert_array_equal(hist.counts, reference.counts)
        else:
            with pytest.raises(QueryError, match="kernel tier"):
                compute_sdh(data, request)


# ----------------------------------------------------------------------
# Weighted variants.  The weighted kernels return exact fixed-point limb
# arrays; `exact.limbs_to_ints` recovers exact product-scale integers,
# so equality below is bit-exact by construction — any drift is a bug in
# a backend's op sequence, not floating-point noise.
# ----------------------------------------------------------------------
_wcoord = st.integers(min_value=0, max_value=64).map(lambda k: k / 64.0)
_weight = st.one_of(
    st.just(0.0),
    st.floats(
        min_value=-4.0, max_value=4.0,
        allow_nan=False, allow_infinity=False,
    ),
    st.sampled_from([1e-140, -1e140, 1e100, -2.5e-100, 1e-300]),
)


@st.composite
def _weighted_cloud(draw, min_size=2, max_size=18):
    dim = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    points = draw(
        st.lists(
            st.tuples(*[_wcoord] * dim), min_size=n, max_size=n
        )
    )
    weights = draw(st.lists(_weight, min_size=n, max_size=n))
    return (
        np.asarray(points, dtype=np.float64),
        np.asarray(weights, dtype=np.float64),
    )


def _finalized(limbs):
    return exact.finalize(exact.limbs_to_ints(limbs))


class TestWeightedKernelProperties:
    """Metamorphic properties of the numpy weighted reference."""

    @settings(max_examples=30, deadline=None)
    @given(_weighted_cloud())
    def test_unit_weights_match_unweighted_counts(self, cloud):
        positions, _ = cloud
        backend = get_backend("numpy")
        ones = np.ones(positions.shape[0])
        limbs, n_w = backend.bin_dense_self_weighted(
            positions, ones, 0.25, NBINS, chunk=5
        )
        hist, n_u = backend.bin_dense_self(positions, 0.25, NBINS)
        np.testing.assert_array_equal(
            _finalized(limbs), hist.astype(np.float64)
        )
        assert n_w == n_u

    @settings(max_examples=30, deadline=None)
    @given(_weighted_cloud(), st.integers(min_value=1, max_value=20))
    @example(  # a subnormal pair product: 2.2e-12 * 1e-300
        (np.array([[0.0, 0.0], [0.0, 0.125]]), np.array([2.2e-12, 1e-300])),
        1,
    )
    def test_power_of_two_scaling_is_exact(self, cloud, exponent):
        # Bilinearity on an exactly-representable scalar: scaling the
        # weights by 2^j scales every bucket's exact integer by 4^j.
        positions, weights = cloud
        factor = float(2.0**exponent)
        backend = get_backend("numpy")
        base, _ = backend.bin_dense_self_weighted(
            positions, weights, 0.25, NBINS
        )
        scaled, _ = backend.bin_dense_self_weighted(
            positions, weights * factor, 0.25, NBINS
        )
        base_ints = exact.limbs_to_ints(base)
        scaled_ints = exact.limbs_to_ints(scaled)
        np.testing.assert_array_equal(scaled_ints, base_ints * 4**exponent)
        # Rounding to float commutes with the power-of-two scale only
        # where the base bucket is zero or normal.  A subnormal bucket
        # (a pair product like 2.2e-12 * 1e-300) rounds away bits that
        # the 4^j-larger scaled bucket keeps.
        smallest_normal = 1 << (exact.PRODUCT_BIAS - 1022)
        normal = np.array(
            [v == 0 or abs(v) >= smallest_normal for v in base_ints]
        )
        np.testing.assert_array_equal(
            exact.finalize(scaled_ints)[normal],
            exact.finalize(base_ints)[normal] * factor * factor,
        )

    @settings(max_examples=30, deadline=None)
    @given(_weighted_cloud(min_size=4))
    def test_self_cross_decomposition_is_exact(self, cloud):
        # self(A ++ B) == self(A) + self(B) + cross(A, B) at the exact
        # integer layer — chunk boundaries and pair order cannot move it.
        positions, weights = cloud
        cut = positions.shape[0] // 2
        backend = get_backend("numpy")
        whole, _ = backend.bin_dense_self_weighted(
            positions, weights, 0.25, NBINS, chunk=3
        )
        ha, _ = backend.bin_dense_self_weighted(
            positions[:cut], weights[:cut], 0.25, NBINS
        )
        hb, _ = backend.bin_dense_self_weighted(
            positions[cut:], weights[cut:], 0.25, NBINS
        )
        hab, _ = backend.bin_dense_cross_weighted(
            positions[:cut], positions[cut:],
            weights[:cut], weights[cut:], 0.25, NBINS,
        )
        np.testing.assert_array_equal(
            exact.limbs_to_ints(whole),
            exact.limbs_to_ints(ha)
            + exact.limbs_to_ints(hb)
            + exact.limbs_to_ints(hab),
        )

    @settings(max_examples=20, deadline=None)
    @given(_weighted_cloud())
    def test_gathered_pairs_match_dense_self(self, cloud):
        positions, weights = cloud
        backend = get_backend("numpy")
        idx_a, idx_b = np.triu_indices(positions.shape[0], k=1)
        gathered, _ = backend.bin_gathered_pairs_weighted(
            positions, weights, idx_a, idx_b, 0.25, NBINS, chunk=4
        )
        dense, _ = backend.bin_dense_self_weighted(
            positions, weights, 0.25, NBINS
        )
        np.testing.assert_array_equal(
            exact.limbs_to_ints(gathered), exact.limbs_to_ints(dense)
        )


class TestAxisOrderSums:
    """Every pair-distance path sums squares in axis order.

    ``einsum`` sums a 3D row as ``(x0² + x2²) + x1²``, which rounds
    differently for about a quarter of random pairs; a distance one ulp
    from a bucket edge then lands in another bucket.
    """

    #: A 3D pair whose axis-order distance is one ulp below its einsum
    #: distance, and a width that puts a bucket edge between the two.
    PAIR = np.array([
        [0.546470509052142, 0.3800487238686116, 0.6699407605157044],
        [0.5047479407607547, 0.5054444422332665, 0.626515103851089],
    ])
    WIDTH = 0.04636886712460129

    @pytest.mark.parametrize("dim", (2, 3))
    @pytest.mark.parametrize("periodic", (False, True))
    def test_distance_helpers(self, dim, periodic):
        from repro.geometry import cross_distances, pairwise_distances

        rng = np.random.default_rng(dim)
        points = rng.random((300, dim))
        box = np.ones(dim) if periodic else None
        a, b = points[:130], points[130:]
        iu, ju = np.triu_indices(300, k=1)
        self_want = _axis_order_distances(points, points, box)[iu * 300 + ju]
        cross_want = _axis_order_distances(a, b, box)
        (self_got,) = iter_self_distance_chunks(points, PANEL_ROWS, box)
        (cross_got,) = iter_cross_distance_chunks(a, b, PANEL_ROWS, box)
        np.testing.assert_array_equal(self_got, self_want)
        np.testing.assert_array_equal(cross_got, cross_want)
        for chunk in (1, 7):
            np.testing.assert_array_equal(
                np.sort(np.concatenate(list(
                    iter_self_distance_chunks(points, chunk, box)
                ))),
                np.sort(self_want),
            )
        if not periodic:
            np.testing.assert_array_equal(
                pairwise_distances(points), self_want
            )
            np.testing.assert_array_equal(cross_distances(a, b), cross_want)

    def test_edge_pair_bins_alike_everywhere(self):
        from repro.core import (
            OverflowPolicy, brute_force_sdh, dm_sdh_grid, dm_sdh_tree,
        )
        from repro.data import ParticleSet

        axis = _axis_order_distances(self.PAIR[:1], self.PAIR[1:])[0]
        assert axis < _einsum_distances(self.PAIR[:1], self.PAIR[1:])[0]
        nbins = 40
        backend = get_backend("numpy")
        want = int(axis / self.WIDTH)
        gathered, _ = backend.bin_gathered_pairs(
            self.PAIR, np.array([0]), np.array([1]), self.WIDTH, nbins
        )
        dense, _ = backend.bin_dense_self(self.PAIR, self.WIDTH, nbins)
        assert np.flatnonzero(gathered).tolist() == [want]
        assert np.flatnonzero(dense).tolist() == [want]
        data = ParticleSet(self.PAIR)
        spec = UniformBuckets(self.WIDTH, 40)
        # A custom edge exactly at the einsum distance.
        edge = float(_einsum_distances(self.PAIR[:1], self.PAIR[1:])[0])
        custom = CustomBuckets([0.0, edge, 2.0])
        for spec, policy, want in (
            (spec, OverflowPolicy.CLAMP, want),
            (custom, OverflowPolicy.RAISE, 0),
        ):
            for weights in (None, np.array([1.5, -2.0])):
                pair = ParticleSet(self.PAIR, weights=weights)
                for run in (
                    lambda: dm_sdh_grid(pair, spec=spec, policy=policy),
                    lambda: dm_sdh_grid(
                        pair, spec=spec, policy=policy, use_mbr=True
                    ),
                    lambda: dm_sdh_tree(pair, spec=spec, policy=policy),
                    lambda: brute_force_sdh(pair, spec=spec, policy=policy),
                ):
                    assert np.flatnonzero(run().counts).tolist() == [want]


class TestExactProducts:
    """Limb scatters against Python-int products of the same weights."""

    @staticmethod
    def _weights(rng, n):
        return rng.normal(size=n) * 10.0 ** rng.integers(-150, 150, n)

    def test_scatter_sub_batches_match_python_ints(self):
        rng = np.random.default_rng(5)
        n = 3 * exact.SCATTER_BATCH + 17
        wa, wb = self._weights(rng, n), self._weights(rng, n)
        wb[::7] = 0.0
        bins = rng.integers(0, 4, n)
        limbs = exact.new_limbs(4)
        exact.scatter_products(
            limbs, bins, *exact.decompose(wa), *exact.decompose(wb)
        )
        ia, ib = exact.weight_ints(wa), exact.weight_ints(wb)
        want = [
            sum((ia[bins == k] * ib[bins == k]).tolist(), 0)
            for k in range(4)
        ]
        assert exact.limbs_to_ints(limbs).tolist() == want

    @pytest.mark.parametrize("policy", ["clamp", "drop"])
    def test_bin_products_match_python_ints(self, policy):
        from repro.core import OverflowPolicy
        from repro.core.weighted import WeightedAccumulator

        rng = np.random.default_rng(6)
        n = 20000
        distances = rng.uniform(0.0, 1.2, n)
        wa, wb = self._weights(rng, n), self._weights(rng, n)
        spec = CustomBuckets([0.1, 0.4, 0.5, 1.0])
        accum = WeightedAccumulator(spec, OverflowPolicy[policy.upper()])
        accum.bin_products(distances, wa, wb)
        idx = spec.bucket_of(distances)
        if policy == "clamp":
            idx = np.where(idx >= 3, 2, idx)
        products = exact.weight_ints(wa) * exact.weight_ints(wb)
        want = [sum(products[idx == k].tolist(), 0) for k in range(3)]
        assert accum.totals().tolist() == want


@numba_only
class TestNumbaWeightedParity:
    """Compiled weighted kernels must match numpy limb-for-limb."""

    @settings(max_examples=25, deadline=None)
    @given(_weighted_cloud())
    def test_dense_self_identical(self, cloud):
        positions, weights = cloud
        ref, n_ref = get_backend("numpy").bin_dense_self_weighted(
            positions, weights, 0.25, NBINS
        )
        limbs, total = get_backend("numba").bin_dense_self_weighted(
            positions, weights, 0.25, NBINS
        )
        np.testing.assert_array_equal(
            exact.limbs_to_ints(limbs), exact.limbs_to_ints(ref)
        )
        assert total == n_ref

    @settings(max_examples=25, deadline=None)
    @given(_weighted_cloud(min_size=4))
    def test_dense_cross_identical(self, cloud):
        positions, weights = cloud
        cut = positions.shape[0] // 2
        args = (
            positions[:cut], positions[cut:],
            weights[:cut], weights[cut:], 0.25, NBINS,
        )
        ref, n_ref = get_backend("numpy").bin_dense_cross_weighted(*args)
        limbs, total = get_backend("numba").bin_dense_cross_weighted(*args)
        np.testing.assert_array_equal(
            exact.limbs_to_ints(limbs), exact.limbs_to_ints(ref)
        )
        assert total == n_ref

    @settings(max_examples=25, deadline=None)
    @given(_weighted_cloud())
    def test_gathered_pairs_identical_periodic(self, cloud):
        positions, weights = cloud
        idx_a, idx_b = np.triu_indices(positions.shape[0], k=1)
        lengths = np.ones(positions.shape[1])
        args = (positions, weights, idx_a, idx_b, 0.25, NBINS)
        ref, _ = get_backend("numpy").bin_gathered_pairs_weighted(
            *args, box_lengths=lengths
        )
        limbs, _ = get_backend("numba").bin_gathered_pairs_weighted(
            *args, box_lengths=lengths
        )
        np.testing.assert_array_equal(
            exact.limbs_to_ints(limbs), exact.limbs_to_ints(ref)
        )


class TestCapabilityMatrix:
    def test_every_engine_declares_tiers(self):
        for name, caps in available_engines().items():
            assert isinstance(caps.kernel_tiers, tuple), name
            assert "numpy" in caps.kernel_tiers, name
            assert set(caps.kernel_tiers) <= set(KERNEL_TIERS), name

    def test_builtins_advertise_available_tiers(self):
        for name in ("brute", "tree", "grid", "parallel"):
            caps = get_engine(name).capabilities
            assert caps.kernel_tiers == available_kernel_tiers()


class TestRequestKernelField:
    def test_default_is_auto_and_omitted_from_json(self):
        request = SDHRequest(num_buckets=4)
        assert request.kernel == "auto"
        assert "kernel" not in request.to_dict()

    def test_explicit_kernel_round_trips(self):
        request = SDHRequest(num_buckets=4, kernel="numpy").normalize()
        body = request.to_dict()
        assert body["kernel"] == "numpy"
        assert SDHRequest.from_dict(body) == request

    def test_normalize_lowercases(self):
        assert SDHRequest(num_buckets=4, kernel="NUMBA").normalize(
        ).kernel == "numba"

    def test_bad_kernel_rejected(self):
        with pytest.raises(QueryError, match="kernel"):
            SDHRequest(num_buckets=4, kernel="cuda").validate()
