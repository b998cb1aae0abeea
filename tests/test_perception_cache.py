"""Tests for the content-addressed perception pipeline.

Covers the hard invariants of the memoization layer: cached and uncached
paths produce byte-identical artifacts, `SimulatedVLM` perceives each
(question, factor) exactly once per run, and the caches are safe and
effective under parallel workers.
"""

import threading

from repro.core import perfstats, results_io
from repro.core.harness import EvaluationHarness
from repro.core.question import Category
from repro.core.runner import ParallelRunner, WorkUnit
from repro.models import WITH_CHOICE, build_model
from repro.models.encoder import VisualEncoder


def _clear_perception_caches():
    """Empty the substrate caches without touching their counters' owners."""
    for name in ("render", "legibility", "perception"):
        cache = perfstats.get_cache(name)
        if cache is not None:
            cache.clear()


class CountingEncoder:
    """Delegating wrapper that counts ``perceive_question`` invocations."""

    def __init__(self, inner: VisualEncoder):
        self._inner = inner
        self.calls = []  # (qid, factor) per invocation

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def perceive_question(self, question, external_factor=1,
                          use_raster=True):
        self.calls.append((question.qid, external_factor))
        return self._inner.perceive_question(question, external_factor,
                                             use_raster)


class TestSinglePassPerception:
    def test_exactly_one_perceive_per_question_at_native(self, chipvqa):
        model = build_model("gpt-4o")
        counting = CountingEncoder(model.encoder)
        model.encoder = counting
        questions = list(chipvqa.by_category(Category.DIGITAL))
        model.answer_all(questions, WITH_CHOICE)
        assert sorted(counting.calls) == sorted(
            (q.qid, 1) for q in questions)

    def test_exactly_one_perceive_per_question_per_factor_degraded(
            self, chipvqa):
        model = build_model("gpt-4o")
        counting = CountingEncoder(model.encoder)
        model.encoder = counting
        questions = list(chipvqa.by_category(Category.DIGITAL))
        model.answer_all(questions, WITH_CHOICE, resolution_factor=8)
        # one pass at the degraded factor + one native pass for the
        # rate multiplier — exactly one call per (question, factor)
        expected = sorted([(q.qid, 8) for q in questions]
                          + [(q.qid, 1) for q in questions])
        assert sorted(counting.calls) == expected

    def test_answer_perception_matches_plan_perception(self, chipvqa):
        """The perception stored on each answer is the same value the
        plan was built from (no separate re-perceive pass)."""
        model = build_model("llava-7b")
        questions = list(chipvqa.by_category(Category.ANALOG))
        answers = model.answer_all(questions, WITH_CHOICE)
        expected = model._perceptions(questions, 1, True)
        for answer in answers:
            assert answer.perception == expected[answer.qid]


class TestPerceptionCacheEquivalence:
    def test_cold_and_warm_scores_identical(self, chipvqa):
        encoder = VisualEncoder()
        visual = chipvqa[0].visual
        _clear_perception_caches()
        cold = encoder.perceive(visual, 8)
        warm = encoder.perceive(visual, 8)
        _clear_perception_caches()
        recold = encoder.perceive(visual, 8)
        assert cold == warm == recold

    def test_models_sharing_encoder_config_share_entries(self, chipvqa):
        a = VisualEncoder(name="vit-l", input_resolution=336)
        b = VisualEncoder(name="vit-l", input_resolution=336)
        _clear_perception_caches()
        visual = chipvqa[0].visual
        a.perceive(visual, 8)
        before = perfstats.snapshot()["perception"]
        b.perceive(visual, 8)  # identical config: must hit
        after = perfstats.snapshot()["perception"]
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]

    def test_distinct_encoder_configs_do_not_collide(self, chipvqa):
        visual = chipvqa[0].visual
        wide = VisualEncoder(input_resolution=768)
        narrow = VisualEncoder(input_resolution=224)
        assert wide.perceive(visual, 8) != narrow.perceive(visual, 8)


class TestEvaluateCacheEquivalence:
    def _dumps(self, result):
        return results_io.dumps(result, telemetry=False)

    def test_cold_warm_and_parallel_artifacts_identical(self, chipvqa):
        """The tentpole invariant: cold caches, warm caches and a
        multi-worker run all produce byte-identical JSONL artifacts."""
        harness = EvaluationHarness(use_raster=True)
        model = build_model("phi3-vision")
        subset = chipvqa.by_category(Category.PHYSICAL)

        _clear_perception_caches()
        cold = self._dumps(harness.evaluate(model, subset, WITH_CHOICE,
                                            resolution_factor=8))
        warm = self._dumps(harness.evaluate(model, subset, WITH_CHOICE,
                                            resolution_factor=8))
        assert warm == cold

        units = [WorkUnit(model=model, dataset=subset, setting=WITH_CHOICE,
                          resolution_factor=8, use_raster=True)]
        outcome = ParallelRunner(harness=harness, workers=4).run(units)
        parallel = self._dumps(outcome.result_for(units[0]))
        assert parallel == cold

    def test_render_thread_safety_under_runner_workers(self, chipvqa):
        """Hammer the raster path from 8 threads over cold caches; every
        thread must see identical scores and no exceptions."""
        _clear_perception_caches()
        encoder = VisualEncoder()
        questions = list(chipvqa.by_category(Category.DIGITAL))[:8]
        reference = {
            q.qid: encoder.perceive_question(q, 8) for q in questions
        }
        _clear_perception_caches()
        errors = []

        def worker():
            try:
                for q in questions:
                    assert encoder.perceive_question(q, 8) \
                        == reference[q.qid]
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors


class TestDatasetCache:
    def test_build_chipvqa_memoized(self):
        from repro.core.benchmark import build_chipvqa

        assert build_chipvqa() is build_chipvqa()

    def test_challenge_memoized(self):
        from repro.core.benchmark import build_chipvqa_challenge

        assert build_chipvqa_challenge() is build_chipvqa_challenge()

    def test_dataset_cache_counts_hits(self):
        from repro.core.benchmark import build_chipvqa

        build_chipvqa()
        before = perfstats.snapshot()["dataset"]["hits"]
        build_chipvqa()
        assert perfstats.snapshot()["dataset"]["hits"] == before + 1


class TestContentKeyMemo:
    """``content_key`` is memoised on the frozen ``VisualContent``."""

    def test_memoized_key_equals_fresh_recomputation(self, chipvqa):
        from repro.visual import _compute_content_key, content_key

        visuals = [visual for question in chipvqa
                   for visual in question.all_visuals]
        assert len(visuals) == 144
        for visual in visuals:
            first = content_key(visual)
            assert visual.__dict__["_content_key"] == first
            assert content_key(visual) == first
            assert first == _compute_content_key(visual)

    def test_replace_builds_a_fresh_key(self):
        import dataclasses

        from repro.core.question import VisualContent, VisualType
        from repro.visual import _compute_content_key, content_key

        visual = VisualContent(VisualType.TABLE, "memo probe")
        key = content_key(visual)
        same = dataclasses.replace(visual)
        assert "_content_key" not in same.__dict__
        assert content_key(same) == key
        wider = dataclasses.replace(visual, width=visual.width + 1)
        assert content_key(wider) != key
        assert content_key(wider) == _compute_content_key(wider)

    def test_pickle_round_trip_keeps_the_key(self, chipvqa):
        import pickle

        from repro.visual import content_key

        for question in list(chipvqa)[:10]:
            visual = question.visual
            key = content_key(visual)
            clone = pickle.loads(pickle.dumps(visual))
            assert clone == visual
            assert content_key(clone) == key

    def test_equality_and_hash_ignore_the_memo(self):
        import dataclasses

        from repro.core.question import VisualContent, VisualType
        from repro.visual import content_key

        visual = VisualContent(VisualType.FIGURE, "hash probe")
        fresh = dataclasses.replace(visual)
        content_key(visual)
        assert "_content_key" not in fresh.__dict__
        assert visual == fresh
        assert hash(visual) == hash(fresh)
        assert visual != dataclasses.replace(visual, height=100)
