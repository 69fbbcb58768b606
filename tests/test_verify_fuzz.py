"""Tests for the seeded fuzzer, shrinking, and the corpus."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.verify import (
    Corpus,
    FuzzCase,
    evaluate_case,
    generate_case,
    run_verification,
    shrink_case,
)
from repro.verify.fuzz import FAMILIES, MAX_FUZZ_PARTICLES


class TestGeneration:
    def test_deterministic_in_seed(self):
        for seed in (0, 7, 123):
            a = generate_case(seed)
            b = generate_case(seed)
            assert a.name == b.name
            assert np.array_equal(a.particles.positions, b.particles.positions)
            assert a.request == b.request

    def test_families_all_reachable(self):
        seen = {generate_case(seed).name for seed in range(60)}
        assert seen == {name for name, _ in FAMILIES}

    def test_sizes_bounded(self):
        for seed in range(40):
            case = generate_case(seed)
            assert 1 <= case.particles.size <= 2 * MAX_FUZZ_PARTICLES

    def test_coordinates_are_dyadic(self):
        from repro.verify.invariants import DYADIC_BITS

        scale = float(1 << DYADIC_BITS)
        for seed in range(20):
            scaled = generate_case(seed).particles.positions * scale
            assert np.array_equal(scaled, np.round(scaled))

    def test_weights_and_cross_families_reachable(self):
        cases = [generate_case(seed) for seed in range(len(FAMILIES))]
        by_name = {case.name: case for case in cases}
        assert by_name["weights"].particles.weighted
        cross = by_name["cross"]
        assert cross.particles_b is not None
        assert cross.particles.box == cross.particles_b.box

    def test_custom_axis_reachable(self):
        from repro.core.buckets import CustomBuckets, OverflowPolicy
        from repro.geometry import pairwise_distances

        cases = [generate_case(seed) for seed in range(90)]
        custom = [c for c in cases if isinstance(c.request.spec, CustomBuckets)]
        assert {c.request.policy for c in custom} == set(OverflowPolicy)
        assert any(c.request.spec.low > 0 for c in custom)
        assert any(c.particles.weighted for c in custom)
        assert any(c.cross for c in custom)

        def reach(case):
            if case.request.periodic:
                return case.particles.max_periodic_distance
            return case.particles.max_possible_distance

        assert any(c.request.spec.high < reach(c) for c in custom)
        # Some edge sits exactly on a realized pair distance.
        assert any(
            np.isin(
                c.request.spec.edges, pairwise_distances(c.particles.positions)
            ).any()
            for c in custom
        )

    def test_case_roundtrips_through_json(self):
        for seed in (2, 9, 31):
            case = generate_case(seed)
            body = json.loads(json.dumps(case.to_dict()))
            back = FuzzCase.from_dict(body)
            assert back.name == case.name and back.seed == case.seed
            assert np.array_equal(
                back.particles.positions, case.particles.positions
            )
            assert np.allclose(
                np.asarray(back.particles.box.lo),
                np.asarray(case.particles.box.lo),
            )
            if case.particles.types is None:
                assert back.particles.types is None
            else:
                assert np.array_equal(
                    back.particles.types, case.particles.types
                )
            assert back.request == case.request

    def test_weighted_and_cross_cases_roundtrip_exactly(self):
        cases = [generate_case(seed) for seed in range(len(FAMILIES))]
        picked = [c for c in cases if c.particles.weighted or c.cross]
        assert picked  # the new families must appear in one round-robin lap
        for case in picked:
            back = FuzzCase.from_dict(json.loads(json.dumps(case.to_dict())))
            assert _same_particles(back.particles, case.particles)
            if case.cross:
                assert _same_particles(back.particles_b, case.particles_b)
            else:
                assert back.particles_b is None
            assert back.request == case.request


def _same_particles(got, want) -> bool:
    # Bit-exact: repr-based JSON floats must round-trip every double,
    # including 1e-140-scale weights.
    if not np.array_equal(got.positions, want.positions):
        return False
    if (got.weights is None) != (want.weights is None):
        return False
    if got.weights is not None and not np.array_equal(
        got.weights, want.weights
    ):
        return False
    return got.box == want.box


class TestEvaluation:
    @pytest.mark.parametrize("seed", range(12))
    def test_healthy_engines_produce_no_discrepancies(self, seed):
        assert evaluate_case(generate_case(seed)) == []


class TestShrinking:
    def test_shrinks_to_minimal_particle_count(self):
        case = next(
            generate_case(s)
            for s in range(50)
            if generate_case(s).particles.size > 30
        )
        shrunk = shrink_case(case, fails=lambda c: c.particles.size >= 3)
        assert shrunk.particles.size == 3

    def test_non_failing_case_returned_unchanged(self):
        case = generate_case(1)
        assert shrink_case(case, fails=lambda c: False) is case

    def test_simplifies_request(self):
        case = generate_case(0).with_request(
            generate_case(0).request.replace(num_buckets=16)
        )

        def fails(candidate):
            return candidate.request.num_buckets is not None

        shrunk = shrink_case(case, fails=fails)
        assert shrunk.request.num_buckets == 1

    def test_erroring_predicate_not_shrunk_into(self):
        case = next(
            generate_case(s)
            for s in range(50)
            if generate_case(s).particles.size > 10
        )

        def fails(candidate):
            if candidate.particles.size < 5:
                raise RuntimeError("different bug")
            return candidate.particles.size >= 5

        shrunk = shrink_case(case, fails=fails)
        assert shrunk.particles.size == 5


class TestCorpus:
    def test_save_load_replay(self, tmp_path):
        corpus = Corpus(tmp_path / "corpus")
        case = generate_case(4)
        path = corpus.save(case, note="healthy case")
        assert path.exists()
        replayed, found = corpus.replay()
        assert replayed == 1 and found == []

    def test_name_collisions_get_suffixes(self, tmp_path):
        corpus = Corpus(tmp_path)
        case = generate_case(4)
        first = corpus.save(case)
        second = corpus.save(case)
        assert first != second and len(corpus.paths()) == 2

    def test_empty_directory_is_empty_corpus(self, tmp_path):
        corpus = Corpus(tmp_path / "missing")
        assert len(corpus) == 0
        assert corpus.replay() == (0, [])

    def test_committed_reproducers_replay_clean(self):
        # The corpus shipped with the repo: shrunk reproducers of bugs
        # that are now fixed.  Replay re-evaluates them from scratch —
        # no fuzzing involved — so a regression relights them.
        from pathlib import Path

        corpus = Corpus(Path(__file__).parent / "corpus")
        replayed, found = corpus.replay()
        assert replayed >= 1
        assert found == [], [d.to_dict() for d in found]

    def test_committed_corpus_covers_weighted_and_cross(self):
        # Guards the reproducers shipped for the weighted / cross-set
        # work: replay must keep exercising both code paths.
        from pathlib import Path

        cases = [
            case
            for _, case in Corpus(Path(__file__).parent / "corpus").cases()
        ]
        assert any(case.particles.weighted for case in cases)
        assert any(case.cross for case in cases)
        assert any(
            case.particles.weighted and case.request.type_pair is not None
            for case in cases
        )


class TestRunVerification:
    def test_clean_run_reports_ok(self):
        report = run_verification(seeds=4, adm=False)
        assert report.ok
        assert report.cases_run == 4
        assert report.seeds == [0, 1, 2, 3]
        body = report.to_dict()
        assert body["ok"] is True and body["discrepancies"] == []

    def test_seed_start_respected(self):
        report = run_verification(seeds=2, seed_start=10, adm=False)
        assert report.seeds == [10, 11]

    def test_counters_recorded(self):
        from repro.observability import get_registry

        registry = get_registry()
        before = _counter_total(registry, "verify_cases_total")
        run_verification(seeds=3, adm=False)
        after = _counter_total(registry, "verify_cases_total")
        assert after - before == 3

    def test_families_run_reported(self):
        # One full round-robin lap touches every family, so the JSON
        # report CI checks can assert the new families actually ran.
        report = run_verification(seeds=len(FAMILIES), adm=False)
        assert report.families_run == sorted(name for name, _ in FAMILIES)
        assert report.weighted_cases >= 1
        assert report.cross_cases >= 1
        assert report.custom_cases >= 1
        body = report.to_dict()
        assert "weights" in body["families_run"]
        assert "cross" in body["families_run"]

    def test_corpus_replay_included(self, tmp_path):
        corpus = Corpus(tmp_path)
        corpus.save(generate_case(6))
        report = run_verification(seeds=1, corpus=corpus, adm=False)
        assert report.corpus_replayed == 1 and report.ok


def _counter_total(registry, name: str) -> float:
    return sum(registry.snapshot().get(name, {}).values())
