"""Tests for the sharded, cached, streaming procedural dataset builds."""

import dataclasses
import json
import math
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import databuild, perfstats
from repro.core.benchmark import (
    BenchmarkIntegrityError,
    BuildExpectations,
    build_chipvqa,
    build_chipvqa_scaled,
    validate_chipvqa,
)
from repro.core.executor import dataset_from_spec
from repro.core.question import CATEGORY_COUNTS, TOTAL_QUESTIONS


@pytest.fixture(autouse=True)
def _pristine_provider_registry():
    """Undo sample-salted provider registrations after each test.

    ``ensure_sample_provider`` registers ``<model>+s<i>`` clones in the
    global default registry; other test modules assert its exact
    contents, so leave it as found.
    """
    from repro.models.providers import default_registry

    before = dict(default_registry._factories)
    yield
    default_registry._factories.clear()
    default_registry._factories.update(before)


# -- fixed point and variants -------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 97])
def test_scaled_142_is_a_fixed_point_of_the_seed_dataset(seed):
    scaled = build_chipvqa_scaled(TOTAL_QUESTIONS, seed)
    assert scaled.content_digest() == build_chipvqa().content_digest()


def test_cycle_zero_questions_are_canonical_verbatim():
    canonical = {q.qid: q for q in build_chipvqa()}
    for question in build_chipvqa_scaled(TOTAL_QUESTIONS, 3):
        assert question == canonical[question.qid]


def test_variants_preserve_gold_text_and_structure():
    canonical = {q.qid: q for q in build_chipvqa()}
    scaled = build_chipvqa_scaled(3 * TOTAL_QUESTIONS, 5)
    variants = [q for q in scaled if "~c" in q.qid]
    assert variants
    for variant in variants:
        base = canonical[variant.qid.split("~c")[0]]
        assert variant.category is base.category
        assert variant.question_type is base.question_type
        assert variant.gold_text == base.gold_text
        assert variant.visual == base.visual
        if base.is_multiple_choice:
            assert sorted(variant.choices) == sorted(base.choices)
        assert 0.05 <= variant.difficulty <= 0.95


def test_different_seeds_give_different_variants():
    a = build_chipvqa_scaled(2 * TOTAL_QUESTIONS, 1)
    b = build_chipvqa_scaled(2 * TOTAL_QUESTIONS, 2)
    assert a.content_digest() != b.content_digest()


def test_variant_derivation_is_deterministic():
    question = build_chipvqa()[0]
    assert (databuild.derive_variant(question, 4, 9)
            == databuild.derive_variant(question, 4, 9))
    assert (databuild.derive_variant(question, 4, 9).qid
            != databuild.derive_variant(question, 5, 9).qid)


# -- composition properties ---------------------------------------------------


@given(total=st.integers(min_value=1, max_value=600),
       seed=st.integers(min_value=0, max_value=10_000),
       shard_size=st.integers(min_value=1, max_value=200))
@settings(max_examples=25, deadline=None)
def test_scaled_builds_have_exact_expected_composition(total, seed,
                                                       shard_size):
    dataset = build_chipvqa_scaled(total, seed, shard_size=shard_size,
                                   validate=False)
    assert len(dataset) == total
    assert len({q.qid for q in dataset}) == total
    composition = databuild.expected_composition(total)
    assert dataset.category_counts() == composition.category_counts
    assert dataset.type_counts() == composition.type_counts
    assert dataset.mc_counts_by_category() == composition.category_mc_counts
    validate_chipvqa(dataset, BuildExpectations.scaled(total))


@given(total=st.integers(min_value=1, max_value=2000),
       seed=st.integers(min_value=0, max_value=10_000),
       shard_size=st.integers(min_value=20, max_value=300))
@settings(max_examples=20, deadline=None)
def test_every_shard_preserves_table1_proportions_within_rounding(
        total, seed, shard_size):
    for spec in databuild.plan_shards(total, seed, shard_size):
        counts = Counter(q.category
                         for q in databuild.build_shard(spec))
        for category, members in CATEGORY_COUNTS.items():
            expected = spec.size * members / TOTAL_QUESTIONS
            # The interleaved order places family members at
            # near-arithmetic positions, so any window is within
            # rounding (+/- 2 covers both window-edge effects).
            assert abs(counts.get(category, 0) - expected) <= 2, (
                spec, category)


def test_validation_catches_composition_drift():
    dataset = build_chipvqa_scaled(200, 0, validate=False)
    broken = dataset.filter(lambda q: True, name=dataset.name)
    broken._questions = broken._questions[:-1]
    with pytest.raises(BenchmarkIntegrityError):
        validate_chipvqa(broken, BuildExpectations.scaled(200))


def test_canonical_validation_messages_unchanged():
    dataset = build_chipvqa_scaled(141, 0, validate=False)
    with pytest.raises(BenchmarkIntegrityError,
                       match="expected 142 questions, got 141"):
        validate_chipvqa(dataset)


# -- shard order independence and the build cache -----------------------------


@given(seed=st.integers(min_value=0, max_value=10_000),
       order_seed=st.integers(min_value=0, max_value=1 << 30))
@settings(max_examples=10, deadline=None)
def test_shard_builds_are_order_independent(seed, order_seed):
    import random

    specs = databuild.plan_shards(500, seed, 90)
    shuffled = specs[:]
    random.Random(order_seed).shuffle(shuffled)
    by_index = {spec.index: databuild.build_shard(spec)
                for spec in shuffled}
    sequential = [q for i in sorted(by_index) for q in by_index[i]]
    direct = databuild.build_scaled(500, seed, shard_size=90,
                                    validate=False)
    assert [q.qid for q in sequential] == [q.qid for q in direct]


def test_warm_build_cache_serves_identical_shards(tmp_path):
    databuild.enable_build_cache(tmp_path)
    try:
        perfstats.reset()
        cold = databuild.build_scaled(426, 8, shard_size=142,
                                      validate=False)
        cold_stats = perfstats.snapshot()[databuild.BUILD_CACHE_NAME]
        assert cold_stats["misses"] == 3
        perfstats.reset()  # drop every memory tier; disk survives
        warm = databuild.build_scaled(426, 8, shard_size=142,
                                      validate=False)
        warm_stats = perfstats.snapshot()[databuild.BUILD_CACHE_NAME]
        assert warm_stats["spill_hits"] == 3
        assert warm_stats["misses"] == 0
    finally:
        databuild.disable_build_cache()
    assert warm.content_digest() == cold.content_digest()
    # render specs round-trip through the cache codec
    for a, b in zip(cold, warm):
        assert tuple(b.visual.render_spec) == tuple(a.visual.render_spec)


def _tuples_to_lists(value):
    """Reference: the explicit tuple->list walk the spill codec once
    applied to render specs before handing them to ``json``."""
    if isinstance(value, (list, tuple)):
        return [_tuples_to_lists(item) for item in value]
    if isinstance(value, dict):
        return {key: _tuples_to_lists(item) for key, item in value.items()}
    return value


def _reference_payload(question):
    payload = question.to_dict()
    payload["visual"]["render_spec"] = _tuples_to_lists(
        question.visual.render_spec)
    for entry, visual in zip(payload["extra_visuals"],
                             question.extra_visuals):
        entry["render_spec"] = _tuples_to_lists(visual.render_spec)
    return payload


@pytest.mark.parametrize("seed", [0, 3, 41])
def test_shard_spill_bytes_match_explicit_list_conversion(seed):
    """The spill codec hands render specs to ``json`` by reference;
    the bytes on disk equal those of the old tuple->list copy."""
    for spec in databuild.plan_shards(3 * 142 + 50, seed, 142):
        questions = databuild.build_shard(spec)
        spilled = json.dumps(databuild._encode_shard(questions),
                             sort_keys=True)
        reference = json.dumps(
            [_reference_payload(q) for q in questions], sort_keys=True)
        assert spilled == reference, spec
        decoded = databuild._decode_shard(json.loads(spilled))
        assert decoded == questions
        for got, want in zip(decoded, questions):
            assert got.visual.render_spec == want.visual.render_spec
            assert ([v.render_spec for v in got.extra_visuals]
                    == [v.render_spec for v in want.extra_visuals])


def test_shard_spill_bytes_match_for_nested_tuple_render_specs():
    """Generated scenes hold no nested tuples; pin the codec on specs
    that do, so the by-reference path stays byte-equal to the copy."""
    question = build_chipvqa()[0]
    nested = (("line", (0, 1), {"at": (2, (3, 4)), "ops": [(5,)]}),)
    question = dataclasses.replace(
        question,
        visual=dataclasses.replace(question.visual, render_spec=nested))
    assert (json.dumps(databuild._encode_shard([question]), sort_keys=True)
            == json.dumps([_reference_payload(question)], sort_keys=True))


def test_cache_keys_are_content_addressed_across_build_sizes():
    # Same window, different total -> same key (disk reuse across n).
    a = databuild.ShardSpec(total=500, seed=1, shard_size=100, index=2)
    b = databuild.ShardSpec(total=900, seed=1, shard_size=100, index=2)
    assert a.cache_key() == b.cache_key()
    assert a.cache_key_digest() == b.cache_key_digest()
    # Different seed or window -> different key.
    c = databuild.ShardSpec(total=500, seed=2, shard_size=100, index=2)
    assert c.cache_key() != a.cache_key()


def test_prime_build_cache_builds_then_reuses(tmp_path):
    first = databuild.prime_build_cache(300, 4, cache_dir=tmp_path,
                                        shard_size=100)
    assert first == {"shards": 3, "built": 3, "reused": 0}
    second = databuild.prime_build_cache(300, 4, cache_dir=tmp_path,
                                         shard_size=100)
    assert second == {"shards": 3, "built": 0, "reused": 3}


def test_process_backend_build_matches_serial():
    serial = databuild.build_scaled(284, 6, shard_size=142,
                                    validate=False)
    process = databuild.build_scaled(284, 6, shard_size=142,
                                     backend="process", workers=1,
                                     validate=False)
    assert process.content_digest() == serial.content_digest()


def test_async_backend_rejected_for_builds():
    from repro.core.executor import ExecutorConfigError

    with pytest.raises(ExecutorConfigError):
        databuild.build_scaled(142, 0, backend="async", workers=2,
                               validate=False)


# -- family generator entry points --------------------------------------------


def test_family_scaled_generators_partition_each_shard():
    from repro.analog import generate_analog_questions_scaled
    from repro.arch import generate_architecture_questions_scaled
    from repro.digital import generate_digital_questions_scaled
    from repro.manufacturing import generate_manufacturing_questions_scaled
    from repro.physical import generate_physical_questions_scaled

    generators = (generate_digital_questions_scaled,
                  generate_analog_questions_scaled,
                  generate_architecture_questions_scaled,
                  generate_manufacturing_questions_scaled,
                  generate_physical_questions_scaled)
    spec = databuild.ShardSpec(total=400, seed=3, shard_size=150,
                               index=1)
    shard = databuild.build_shard(spec)
    union = [q for gen in generators
             for q in gen(3, 1, 150, total=400)]
    assert sorted(q.qid for q in union) == sorted(q.qid for q in shard)
    assert sum(len(gen(3, 1, 150, total=400)) for gen in generators) \
        == spec.size


def test_generator_fingerprint_covers_every_family():
    versions = databuild.generator_versions()
    assert set(versions) == {"analog", "architecture", "digital",
                             "manufacturing", "physical"}
    assert len(databuild.generator_fingerprint()) == 16


# -- dataset specs ------------------------------------------------------------


def test_scaled_roots_round_trip_through_dataset_from_spec():
    dataset = build_chipvqa_scaled(284, 5, shard_size=142,
                                   validate=False)
    rebuilt = dataset_from_spec(dataset.build_spec)
    assert rebuilt.content_digest() == dataset.content_digest()
    subset = dataset.by_category(next(iter(CATEGORY_COUNTS)))
    assert dataset_from_spec(subset.build_spec).content_digest() \
        == subset.content_digest()


def test_shard_and_challenge_roots_round_trip():
    shard = databuild.shard_dataset(284, 5, 142, 1)
    assert dataset_from_spec(shard.build_spec).content_digest() \
        == shard.content_digest()
    challenge = databuild.shard_dataset(284, 5, 142, 0, challenge=True)
    rebuilt = dataset_from_spec(challenge.build_spec)
    assert rebuilt.content_digest() == challenge.content_digest()
    assert all(not q.is_multiple_choice for q in rebuilt)


def test_malformed_scaled_roots_rejected():
    with pytest.raises(databuild.ScaleConfigError):
        databuild.parse_scaled_root("chipvqa-scaled:abc:0:10")
    with pytest.raises(databuild.ScaleConfigError):
        databuild.parse_scaled_root("chipvqa-scaled:10:0:5:bogus")
    with pytest.raises(databuild.ScaleConfigError):
        databuild.parse_scaled_root("chipvqa:10")


# -- streaming ----------------------------------------------------------------


def test_streaming_dataset_matches_materialized_build():
    stream = databuild.StreamingDataset(500, 2, shard_size=90)
    assert len(stream) == 500
    assert stream.num_shards == math.ceil(500 / 90)
    streamed = [q.qid for q in stream]
    direct = [q.qid for q in databuild.build_scaled(500, 2,
                                                    shard_size=90,
                                                    validate=False)]
    assert streamed == direct


def test_streaming_peak_residency_is_o_shard_not_o_n():
    shard_size = 60
    # The gauge reads the (global) shard cache's memory tier; start from
    # empty so leftover shards of other builds don't inflate it.
    databuild._SHARD_CACHE.clear()
    stream = databuild.StreamingDataset(1200, 1, shard_size=shard_size)
    for _ in stream.iter_shards():
        pass
    bound = (databuild._SHARD_CACHE.capacity + 1) * shard_size
    assert 0 < stream.peak_resident_questions <= bound
    assert stream.peak_resident_questions < len(stream)


def test_streaming_challenge_recasts_every_shard():
    stream = databuild.StreamingDataset(200, 0, shard_size=80,
                                        challenge=True)
    for shard in stream.iter_shards():
        assert all(not q.is_multiple_choice for q in shard)


# -- the sweep path -----------------------------------------------------------


def test_run_scaled_table2_shapes_and_determinism(tmp_path):
    from repro.core.sweep import run_scaled_table2

    report = run_scaled_table2(["llava-7b"], 284, seed=1, samples=2,
                               shard_size=142,
                               run_dir=tmp_path / "run")
    multi = report.results["llava-7b"]["with_choice"]
    assert multi.sample_count == 2
    assert all(len(s.records) == 284 for s in multi.samples)
    assert [r.qid for r in multi.samples[0].records] \
        == [r.qid for r in multi.samples[1].records]
    assert multi.pass_at_k(2) >= multi.pass_at_k(1)
    again = run_scaled_table2(["llava-7b"], 284, seed=1, samples=2,
                              shard_size=142)
    assert (again.passk_summary((1, 2))["models"]
            == report.passk_summary((1, 2))["models"])


def test_run_scaled_table2_single_sample_matches_direct_evaluation():
    from repro.core.harness import EvaluationHarness
    from repro.core.sweep import run_scaled_table2
    from repro.models.vlm import WITH_CHOICE
    from repro.models.zoo import build_model

    report = run_scaled_table2(["gpt-4o"], 142, seed=0, samples=1,
                               include_challenge=False)
    sampled = report.results["gpt-4o"]["with_choice"].samples[0]
    direct = EvaluationHarness().evaluate(
        build_model("gpt-4o"),
        databuild.shard_dataset(142, 0, 142, 0), WITH_CHOICE)
    assert [(r.qid, r.correct) for r in sampled.records] \
        == [(r.qid, r.correct) for r in direct.records]


def test_sample_salting_reuses_base_for_sample_zero():
    from repro.core.sweep import ensure_sample_provider, \
        sample_provider_name

    assert sample_provider_name("llava-7b", 0) == "llava-7b"
    assert sample_provider_name("llava-7b", 2) == "llava-7b+s2"
    name = ensure_sample_provider("llava-7b", 2)
    from repro.models.providers import create_provider

    provider = create_provider(name)
    assert provider.name == "llava-7b+s2"


def test_sweep_summary_artifact_round_trips(tmp_path):
    from repro.core import results_io
    from repro.core.sweep import run_scaled_table2

    report = run_scaled_table2(["llava-7b"], 142, samples=2,
                               include_challenge=False)
    path = results_io.write_summary(tmp_path / "sweep_summary.json",
                                    report.passk_summary((1, 2)))
    loaded = results_io.read_summary(path)
    assert loaded == report.passk_summary((1, 2))
    corrupted = path.read_text().replace(
        '"samples": 2', '"samples": 3')
    path.write_text(corrupted)
    with pytest.raises(ValueError):
        results_io.read_summary(path)


# -- CLI flags ---------------------------------------------------------------


def test_cli_limit_and_samples_clamp_with_warning(capsys):
    from repro.cli import _effective_limit, _effective_samples

    assert _effective_limit(0) == 1
    assert "warning: --limit 0" in capsys.readouterr().out
    assert _effective_limit(50) == 50
    assert _effective_samples(-3) == 1
    assert "warning: --samples -3" in capsys.readouterr().out
    assert _effective_samples(4) == 4


def test_cli_scaled_path_requires_local_provider():
    from repro.cli import main

    with pytest.raises(SystemExit, match="--provider local"):
        main(["table2", "--models", "llava-7b", "--limit", "10",
              "--provider", "remote"])
