"""Wire-path tests for the weighted / cross-set request axes.

The service accepts ``weights`` (per-particle masses riding on the
request) and ``dataset_b`` (a second registered dataset for cross-set
pair counting).  These tests pin down the JSON vocabulary, the 400/404
edges, and the result-cache semantics: cross entries are keyed on BOTH
operand fingerprints and drop when either operand is re-registered.
"""

import json

import numpy as np
import pytest

from repro import compute_sdh
from repro.core.request import SDHRequest
from repro.data import uniform
from repro.errors import DatasetNotFound, QueryError
from repro.service import SDHClient, SDHService


@pytest.fixture(scope="module")
def dataset():
    return uniform(120, dim=2, rng=11)


@pytest.fixture(scope="module")
def dataset_b():
    return uniform(90, dim=2, rng=12)


@pytest.fixture()
def service():
    with SDHService(max_workers=2, max_queue=8) as running:
        yield running


@pytest.fixture()
def client(service):
    return SDHClient(service.url)


class TestRequestJsonRoundTrip:
    def test_weights_round_trip(self):
        weights = (1.5, -0.25, 0.0, 1e-140, 1e140)
        request = SDHRequest(num_buckets=4, weights=weights).normalize()
        body = json.loads(json.dumps(request.to_dict()))
        assert body["weights"] == list(weights)
        back = SDHRequest.from_dict(body)
        assert back == request
        assert back.weights == weights

    def test_dataset_b_round_trip(self):
        request = SDHRequest(num_buckets=4, dataset_b="other").normalize()
        body = json.loads(json.dumps(request.to_dict()))
        assert body["dataset_b"] == "other"
        back = SDHRequest.from_dict(body)
        assert back == request and back.cross

    def test_defaults_stay_off_the_wire(self):
        body = SDHRequest(num_buckets=4).normalize().to_dict()
        assert "weights" not in body and "dataset_b" not in body

    def test_nan_weights_rejected_at_validation(self):
        with pytest.raises(QueryError, match="finite"):
            SDHRequest(num_buckets=4, weights=(1.0, float("nan"))).normalize()

    def test_empty_weights_rejected_at_validation(self):
        with pytest.raises(QueryError, match="non-empty"):
            SDHRequest(num_buckets=4, weights=()).normalize()


class TestWirePath:
    def test_weighted_query_matches_direct(self, client, dataset):
        key = client.register(dataset)
        weights = np.linspace(-1.0, 2.0, dataset.size)
        hist = client.sdh(key, num_buckets=6, weights=weights)
        direct = compute_sdh(
            dataset.with_weights(weights),
            SDHRequest(num_buckets=6),
        )
        np.testing.assert_array_equal(hist.counts, direct.counts)

    def test_cross_query_matches_direct(self, client, dataset, dataset_b):
        key_a = client.register(dataset)
        key_b = client.register(dataset_b)
        hist = client.sdh(key_a, num_buckets=6, dataset_b=key_b)
        direct = compute_sdh(dataset, SDHRequest(num_buckets=6), b=dataset_b)
        np.testing.assert_array_equal(hist.counts, direct.counts)
        assert hist.total == dataset.size * dataset_b.size

    def test_cross_by_alias(self, client, dataset, dataset_b):
        client.register(dataset, name="left")
        client.register(dataset_b, name="right")
        payload = client._request(
            "POST",
            "/v1/sdh",
            {"dataset": "left", "num_buckets": 5, "dataset_b": "right"},
        )
        assert payload["dataset"] == dataset.fingerprint()
        assert payload["dataset_b"] == dataset_b.fingerprint()

    def test_nan_and_inf_weights_are_400(self, service, client, dataset):
        key = client.register(dataset)
        for bad in (float("nan"), float("inf")):
            body = {
                "dataset": key,
                "num_buckets": 4,
                "weights": [1.0] * (dataset.size - 1) + [bad],
            }
            with pytest.raises(QueryError, match="finite"):
                client._request("POST", "/v1/sdh", body)

    def test_mismatched_weights_are_400(self, client, dataset):
        key = client.register(dataset)
        with pytest.raises(QueryError, match="weight"):
            client._request(
                "POST",
                "/v1/sdh",
                {"dataset": key, "num_buckets": 4, "weights": [1.0, 2.0]},
            )

    def test_unknown_dataset_b_is_404(self, client, dataset):
        key = client.register(dataset)
        with pytest.raises(DatasetNotFound):
            client.sdh(key, num_buckets=4, dataset_b="no-such-dataset")

    def test_batch_rejects_cross_items(self, client, dataset, dataset_b):
        key_a = client.register(dataset)
        key_b = client.register(dataset_b)
        results = client.sdh_batch(
            key_a,
            [{"num_buckets": 4}, {"num_buckets": 4, "dataset_b": key_b}],
            return_errors=True,
        )
        assert not isinstance(results[0], Exception)
        assert isinstance(results[1], Exception)
        assert "dataset_b" in str(results[1])


class TestCrossResultCache:
    def test_cross_hits_and_dual_fingerprint_key(
        self, service, client, dataset, dataset_b
    ):
        key_a = client.register(dataset)
        key_b = client.register(dataset_b)
        body = {"dataset": key_a, "num_buckets": 8, "dataset_b": key_b}
        first = client._request("POST", "/v1/sdh", body)
        again = client._request("POST", "/v1/sdh", body)
        assert first["result_source"] == "miss"
        assert again["result_source"] == "hit"
        assert again["counts"] == first["counts"]
        assert first["dataset"] == key_a and first["dataset_b"] == key_b
        # The cache entry is keyed on the compound "<fp_a>+<fp_b>".
        resident = list(service.state.results._entries)
        assert any(fp == f"{key_a}+{key_b}" for fp, _ in resident)

    def test_self_and_cross_results_do_not_collide(
        self, client, dataset, dataset_b
    ):
        key_a = client.register(dataset)
        key_b = client.register(dataset_b)
        self_hist = client.sdh(key_a, num_buckets=8)
        cross = client._request(
            "POST",
            "/v1/sdh",
            {"dataset": key_a, "num_buckets": 8, "dataset_b": key_b},
        )
        assert cross["result_source"] == "miss"
        assert cross["counts"] != list(self_hist.counts)

    @pytest.mark.parametrize("reregister", ["a", "b"])
    def test_reregistering_either_operand_invalidates(
        self, client, dataset, dataset_b, reregister
    ):
        key_a = client.register(dataset)
        key_b = client.register(dataset_b)
        body = {"dataset": key_a, "num_buckets": 8, "dataset_b": key_b}
        assert client._request("POST", "/v1/sdh", body)[
            "result_source"
        ] == "miss"
        client.register(dataset if reregister == "a" else dataset_b)
        assert client._request("POST", "/v1/sdh", body)[
            "result_source"
        ] == "miss"

    def test_operand_order_is_part_of_the_key(
        self, client, dataset, dataset_b
    ):
        key_a = client.register(dataset)
        key_b = client.register(dataset_b)
        forward = client._request(
            "POST",
            "/v1/sdh",
            {"dataset": key_a, "num_buckets": 8, "dataset_b": key_b},
        )
        backward = client._request(
            "POST",
            "/v1/sdh",
            {"dataset": key_b, "num_buckets": 8, "dataset_b": key_a},
        )
        # Symmetric answers, but cached under distinct compound keys.
        assert forward["result_source"] == "miss"
        assert backward["result_source"] == "miss"
        assert backward["counts"] == forward["counts"]
