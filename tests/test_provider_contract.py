"""Provider conformance suite: every registry entry honours the contract.

The :class:`~repro.models.providers.ModelProvider` protocol is the seam
the whole evaluation stack (harness, runner, agent, CLI) stands on, so
every provider the default registry can produce is held to the same
contract here: one answer per question in question order, deterministic
replay across independently-built instances, stable content-addressed
fingerprints, and — for the serving decorators — correct fault-boundary
and batching behaviour.  The suite also pins the refactor's headline
acceptance criterion: ``run_table2`` over the full zoo through
``LocalProvider`` reproduces the pre-refactor artifacts byte-for-byte.
"""

import asyncio
import hashlib
import json
import threading
import time
from collections import Counter

import pytest

from repro.core.faults import PermanentError, TransientModelError
from repro.core.harness import run_table2
from repro.core.question import Category
from repro.core.runner import ParallelRunner, WorkUnit
from repro.models import (
    WITH_CHOICE,
    AsyncModelProvider,
    BatchingProvider,
    LocalProvider,
    ModelProvider,
    ProviderRegistry,
    RemoteStubProvider,
    as_async_provider,
    as_provider,
    build_model,
    build_vlm,
    build_zoo,
    create_provider,
    provider_names,
)

#: Combined sha256 over the sorted ``*.jsonl`` checkpoint artifacts of a
#: serial full-zoo ``run_table2``, captured on the pre-provider code.
#: The refactored stack must reproduce it byte-for-byte.
GOLDEN_TABLE2_DIGEST = (
    "0cc1564958013cfdc74622cfc12c3c559f8660e6ceadd87b606ec64ef7a39f9f")
GOLDEN_TABLE2_FILES = 24

ALL_PROVIDERS = provider_names()


@pytest.fixture(scope="module")
def digital(chipvqa):
    return list(chipvqa.by_category(Category.DIGITAL))


@pytest.mark.parametrize("name", ALL_PROVIDERS)
class TestRegistryConformance:
    """Every registry entry satisfies the ModelProvider contract."""

    def test_satisfies_protocol(self, name):
        provider = create_provider(name)
        assert isinstance(provider, ModelProvider)
        assert provider.name == name

    def test_one_answer_per_question_in_order(self, name, digital):
        answers = create_provider(name).answer_batch(
            digital, WITH_CHOICE, use_raster=False)
        assert [a.qid for a in answers] == [q.qid for q in digital]

    def test_deterministic_replay(self, name, digital):
        """Two independent builds replay answers byte-identically."""
        first = create_provider(name).answer_batch(
            digital, WITH_CHOICE, use_raster=False)
        second = create_provider(name).answer_batch(
            digital, WITH_CHOICE, use_raster=False)
        assert first == second

    def test_fingerprint_stable_across_builds(self, name):
        assert (create_provider(name).config_fingerprint()
                == create_provider(name).config_fingerprint())

    def test_fingerprint_is_hex_digest(self, name):
        fingerprint = create_provider(name).config_fingerprint()
        assert len(fingerprint) == 64
        int(fingerprint, 16)


class TestFingerprintSeparation:
    def test_registry_fingerprints_are_distinct(self):
        fingerprints = {
            create_provider(name).config_fingerprint()
            for name in ALL_PROVIDERS
        }
        assert len(fingerprints) == len(ALL_PROVIDERS)

    def test_wrapping_changes_fingerprint(self):
        local = build_model("gpt-4o")
        remote = RemoteStubProvider(build_model("gpt-4o"))
        batched = BatchingProvider(build_model("gpt-4o"))
        fingerprints = {p.config_fingerprint()
                        for p in (local, remote, batched)}
        assert len(fingerprints) == 3

    def test_remote_configuration_is_in_fingerprint(self):
        base = RemoteStubProvider(build_model("gpt-4o"), seed=1)
        reseeded = RemoteStubProvider(build_model("gpt-4o"), seed=2)
        slower = RemoteStubProvider(build_model("gpt-4o"), seed=1,
                                    base_latency_s=0.5)
        assert (base.config_fingerprint()
                != reseeded.config_fingerprint())
        assert base.config_fingerprint() != slower.config_fingerprint()

    def test_batching_wait_policy_not_in_fingerprint(self):
        """max_wait_s is pure scheduling: it cannot change any answer,
        so it must not fragment the cache."""
        fast = BatchingProvider(build_model("gpt-4o"), max_wait_s=0.0)
        slow = BatchingProvider(build_model("gpt-4o"), max_wait_s=1.0)
        assert fast.config_fingerprint() == slow.config_fingerprint()


class TestLocalProvider:
    def test_rejects_incompatible_model(self):
        with pytest.raises(TypeError):
            LocalProvider(object())

    def test_transparent_attribute_proxy(self):
        provider = build_model("gpt-4o")
        assert isinstance(provider, LocalProvider)
        assert provider.encoder is provider.model.encoder
        assert provider.supports_system_prompt is True

    def test_attribute_writes_reach_the_model(self):
        provider = build_model("gpt-4o")
        provider.temperature = 0.7
        assert provider.model.temperature == 0.7

    def test_as_provider_passes_providers_through(self):
        provider = build_model("gpt-4o")
        assert as_provider(provider) is provider

    def test_as_provider_wraps_raw_models(self):
        raw = build_vlm("gpt-4o")
        provider = as_provider(raw)
        assert isinstance(provider, LocalProvider)
        assert provider.model is raw

    def test_byte_identical_to_wrapped_model(self, digital):
        raw = build_vlm("gpt-4o")
        direct = raw.answer_all(digital, WITH_CHOICE, use_raster=False)
        via_provider = LocalProvider(build_vlm("gpt-4o")).answer_batch(
            digital, WITH_CHOICE, use_raster=False)
        assert direct == via_provider


class TestRemoteStubFaultBoundary:
    """The stub's failures speak the runner's fault vocabulary."""

    def test_transient_fault_recovers_after_crossings(self, digital):
        provider = RemoteStubProvider(
            build_model("gpt-4o"), transient_rate=1.0,
            transient_failures=2)
        for _ in range(2):
            with pytest.raises(TransientModelError):
                provider.answer_batch(digital, WITH_CHOICE,
                                      use_raster=False)
        answers = provider.answer_batch(digital, WITH_CHOICE,
                                        use_raster=False)
        assert [a.qid for a in answers] == [q.qid for q in digital]
        assert provider.faults_injected == 2
        assert provider.calls == 1

    def test_permanent_fault_never_recovers(self, digital):
        provider = RemoteStubProvider(build_model("gpt-4o"),
                                      permanent_rate=1.0)
        for _ in range(3):
            with pytest.raises(PermanentError):
                provider.answer_batch(digital, WITH_CHOICE,
                                      use_raster=False)
        assert provider.calls == 0

    def test_fault_pattern_is_seed_deterministic(self, digital):
        def outcomes(seed):
            provider = RemoteStubProvider(
                build_model("gpt-4o"), transient_rate=0.5, seed=seed)
            pattern = []
            for factor in (1, 2, 4, 8, 16):
                try:
                    provider.answer_batch(digital, WITH_CHOICE, factor,
                                          use_raster=False)
                    pattern.append("ok")
                except TransientModelError:
                    pattern.append("429")
            return pattern

        assert outcomes(seed=7) == outcomes(seed=7)
        assert "ok" in outcomes(seed=7) and "429" in outcomes(seed=7)

    def test_latency_is_simulated_not_slept_in_tests(self, digital):
        sleeps = []
        provider = RemoteStubProvider(
            build_model("gpt-4o"), base_latency_s=0.25, jitter_s=0.5,
            sleep=sleeps.append)
        provider.answer_batch(digital, WITH_CHOICE, use_raster=False)
        assert len(sleeps) == 1
        assert 0.25 <= sleeps[0] <= 0.75
        assert provider.simulated_latency_s == sleeps[0]

    def test_healthy_stub_is_answer_transparent(self, digital):
        """Latency and jitter shape timing only — never answers."""
        stub = RemoteStubProvider(build_model("gpt-4o"),
                                  base_latency_s=1.0, jitter_s=1.0,
                                  sleep=lambda _s: None)
        direct = build_model("gpt-4o").answer_batch(
            digital, WITH_CHOICE, use_raster=False)
        assert stub.answer_batch(digital, WITH_CHOICE,
                                 use_raster=False) == direct

    def test_runner_retry_absorbs_transient_faults(self, chipvqa):
        """End to end: a flaky endpoint plus the runner's retry path
        still produces the local provider's exact records."""
        digital_ds = chipvqa.by_category(Category.DIGITAL)
        flaky = RemoteStubProvider(build_model("gpt-4o"),
                                   transient_rate=1.0,
                                   transient_failures=1)
        flaky_unit = WorkUnit(model=flaky, dataset=digital_ds,
                              setting=WITH_CHOICE)
        base_unit = WorkUnit(model=build_model("gpt-4o"),
                             dataset=digital_ds, setting=WITH_CHOICE)
        outcome = ParallelRunner().run([flaky_unit]).raise_on_failure()
        baseline = ParallelRunner().run([base_unit]).raise_on_failure()
        assert (outcome.result_for(flaky_unit).records
                == baseline.result_for(base_unit).records)
        assert flaky.faults_injected > 0


class TestBatchingProvider:
    def test_answer_batch_is_single_passthrough(self, digital):
        """A batch call is never split: quota-IRT outcome planning is
        cohort-dependent, so one work unit must stay one inner call."""
        provider = BatchingProvider(build_model("gpt-4o"),
                                    max_batch_size=4)
        direct = build_model("gpt-4o").answer_batch(
            digital, WITH_CHOICE, use_raster=False)
        answers = provider.answer_batch(digital, WITH_CHOICE,
                                        use_raster=False)
        assert answers == direct
        assert provider.batches == 1
        assert provider.batched_questions == len(digital)

    def test_submit_coalesces_concurrent_callers(self, digital):
        questions = digital[:8]
        provider = BatchingProvider(build_model("gpt-4o"),
                                    max_batch_size=len(questions),
                                    max_wait_s=5.0)
        answers = {}
        barrier = threading.Barrier(len(questions))

        def worker(question):
            barrier.wait()
            answers[question.qid] = provider.submit(
                question, WITH_CHOICE, use_raster=False)

        threads = [threading.Thread(target=worker, args=(q,))
                   for q in questions]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert provider.batches == 1
        assert provider.batched_questions == len(questions)
        assert sorted(answers) == sorted(q.qid for q in questions)
        for qid, answer in answers.items():
            assert answer.qid == qid

    def test_sequential_submit_drains_on_wait_expiry(self, digital):
        provider = BatchingProvider(build_model("gpt-4o"),
                                    max_batch_size=8, max_wait_s=0.0)
        for question in digital[:3]:
            answer = provider.submit(question, WITH_CHOICE,
                                     use_raster=False)
            assert answer.qid == question.qid
        assert provider.batches == 3

    def test_submit_propagates_inner_faults(self, digital):
        provider = BatchingProvider(
            RemoteStubProvider(build_model("gpt-4o"),
                               permanent_rate=1.0),
            max_batch_size=1)
        with pytest.raises(PermanentError):
            provider.submit(digital[0], WITH_CHOICE, use_raster=False)

    def test_flush_without_queue_is_noop(self):
        BatchingProvider(build_model("gpt-4o")).flush()


class TestRegistry:
    def test_unknown_name_raises_with_known_names(self):
        registry = ProviderRegistry()
        with pytest.raises(KeyError):
            registry.create("nope")

    def test_duplicate_registration_rejected(self):
        registry = ProviderRegistry()
        registry.register("m", lambda: build_model("gpt-4o"))
        with pytest.raises(ValueError):
            registry.register("m", lambda: build_model("gpt-4o"))
        registry.register("m", lambda: build_model("llava-7b"),
                          replace=True)

    def test_factory_name_mismatch_rejected(self):
        registry = ProviderRegistry()
        registry.register("wrong", lambda: build_model("gpt-4o"))
        with pytest.raises(ValueError):
            registry.create("wrong")

    def test_zoo_and_agent_are_registered(self):
        names = provider_names()
        assert "gpt-4o" in names
        assert "agent-gpt4turbo+gpt4o" in names
        assert len(names) == 13

    def test_work_unit_resolves_registry_names(self, chipvqa):
        """Units built from serialized registry names run identically
        to units built from provider objects."""
        digital_ds = chipvqa.by_category(Category.DIGITAL)
        by_name = WorkUnit(model="gpt-4o", dataset=digital_ds,
                           setting=WITH_CHOICE)
        by_object = WorkUnit(model=build_model("gpt-4o"),
                             dataset=digital_ds, setting=WITH_CHOICE)
        assert by_name.provider.name == "gpt-4o"
        assert (by_name.provider.config_fingerprint()
                == by_object.provider.config_fingerprint())
        runner = ParallelRunner()
        named = runner.run([by_name]).raise_on_failure()
        direct = runner.run([by_object]).raise_on_failure()
        assert (named.result_for(by_name).records
                == direct.result_for(by_object).records)


class TestGoldenByteIdentity:
    def test_table2_artifacts_match_pre_refactor_bytes(self, tmp_path):
        """The acceptance pin: a serial full-zoo ``run_table2`` through
        the provider stack writes checkpoint artifacts byte-identical
        to the pre-provider code (digest captured on the seed)."""
        run_table2(build_zoo(), workers=1, run_dir=tmp_path)
        files = sorted(tmp_path.glob("*.jsonl"))
        assert len(files) == GOLDEN_TABLE2_FILES
        combined = hashlib.sha256()
        for path in files:
            combined.update(
                path.name.encode() + b"\0" + path.read_bytes() + b"\0")
        assert combined.hexdigest() == GOLDEN_TABLE2_DIGEST

    def test_manifest_records_provider_identity(self, chipvqa, tmp_path):
        digital_ds = chipvqa.by_category(Category.DIGITAL)
        provider = build_model("gpt-4o")
        runner = ParallelRunner(run_dir=tmp_path)
        runner.run([WorkUnit(model=provider, dataset=digital_ds,
                             setting=WITH_CHOICE)]).raise_on_failure()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        (entry,) = manifest["units"]
        assert entry["provider"] == "gpt-4o"
        assert (entry["provider_fingerprint"]
                == provider.config_fingerprint())

    def test_manifest_fingerprints_each_unit_once_per_run(
            self, tmp_path, monkeypatch):
        """The manifest is rewritten after every unit; each provider's
        fingerprint is hashed once per run, not once per rewrite."""
        zoo = build_zoo()
        expected = {p.name: p.config_fingerprint() for p in zoo}
        calls = Counter()
        original = LocalProvider.config_fingerprint

        def counting(provider):
            calls[provider.name] += 1
            return original(provider)

        monkeypatch.setattr(LocalProvider, "config_fingerprint", counting)
        run_table2(zoo, workers=1, run_dir=tmp_path)
        # two units per zoo entry (with_choice, no_choice); each unit
        # fingerprints at most twice: its attempt context and the memo
        assert set(calls) == set(expected)
        assert max(calls.values()) <= 2 * 2
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert len(manifest["units"]) == 2 * len(zoo)
        for entry in manifest["units"]:
            assert (entry["provider_fingerprint"]
                    == expected[entry["provider"]])

    def test_manifest_fingerprint_memo_is_per_run(self, chipvqa, tmp_path):
        """A runner reused across runs re-fingerprints a provider that
        was replaced between them (same unit id, new configuration)."""
        digital_ds = chipvqa.by_category(Category.DIGITAL)
        runner = ParallelRunner(run_dir=tmp_path, resume=False)
        prints = []
        for temperature in (0.0, 0.7):
            model = build_vlm("gpt-4o")
            model.temperature = temperature
            provider = LocalProvider(model)
            runner.run([WorkUnit(model=provider, dataset=digital_ds,
                                 setting=WITH_CHOICE)]).raise_on_failure()
            manifest = json.loads(
                (tmp_path / "manifest.json").read_text())
            (entry,) = manifest["units"]
            assert (entry["provider_fingerprint"]
                    == provider.config_fingerprint())
            prints.append(entry["provider_fingerprint"])
        assert prints[0] != prints[1]


@pytest.mark.parametrize("name", ALL_PROVIDERS)
class TestAsyncConformance:
    """Every registry entry passes the conformance suite through the
    sync-to-async adapter seam (``as_async_provider``): protocol
    satisfaction, ordering, deterministic replay, and fingerprint
    identity all hold when driven from an asyncio event loop."""

    def test_satisfies_async_protocol(self, name):
        provider = as_async_provider(create_provider(name))
        assert isinstance(provider, AsyncModelProvider)
        assert provider.name == name

    def test_adapter_preserves_fingerprint(self, name):
        base = create_provider(name)
        assert (as_async_provider(base).config_fingerprint()
                == base.config_fingerprint())

    def test_async_one_answer_per_question_in_order(self, name, digital):
        provider = as_async_provider(create_provider(name))
        answers = asyncio.run(provider.answer_batch_async(
            digital, WITH_CHOICE, use_raster=False))
        assert [a.qid for a in answers] == [q.qid for q in digital]

    def test_async_replay_matches_sync(self, name, digital):
        sync_answers = create_provider(name).answer_batch(
            digital, WITH_CHOICE, use_raster=False)
        async_answers = asyncio.run(
            as_async_provider(create_provider(name)).answer_batch_async(
                digital, WITH_CHOICE, use_raster=False))
        assert async_answers == sync_answers

    def test_native_async_is_not_rewrapped(self, name):
        """A provider that already speaks the async protocol passes
        through ``as_async_provider`` untouched."""
        provider = as_async_provider(create_provider(name))
        assert as_async_provider(provider) is provider


class TestAsyncRemoteStubFaultBoundary:
    """The stub's native async interface speaks the exact same fault
    vocabulary as the sync transport: transient faults recover after
    the scripted crossings, permanent faults never do, and rate-limit
    rejections surface as retryable ``TransientModelError``."""

    def test_transient_fault_recovers_after_crossings(self, digital):
        provider = RemoteStubProvider(build_model("gpt-4o"),
                                      transient_rate=1.0,
                                      transient_failures=2)

        async def drive():
            outcomes = []
            for _ in range(3):
                try:
                    await provider.answer_batch_async(
                        digital, WITH_CHOICE, use_raster=False)
                    outcomes.append("ok")
                except TransientModelError:
                    outcomes.append("transient")
            return outcomes

        assert asyncio.run(drive()) == ["transient", "transient", "ok"]
        assert provider.faults_injected == 2
        assert provider.calls == 1

    def test_permanent_fault_never_recovers(self, digital):
        provider = RemoteStubProvider(build_model("gpt-4o"),
                                      permanent_rate=1.0)

        async def drive():
            for _ in range(2):
                with pytest.raises(PermanentError):
                    await provider.answer_batch_async(
                        digital, WITH_CHOICE, use_raster=False)

        asyncio.run(drive())
        assert provider.calls == 0

    def test_async_matches_sync_fault_pattern(self, digital):
        """Fault draws are keyed, not stateful randomness: the async
        seam replays the same per-key inject/pass pattern as sync."""

        def pattern(provider, via_async):
            outcomes = []
            for factor in (1, 2, 3, 4):
                try:
                    if via_async:
                        asyncio.run(provider.answer_batch_async(
                            digital, WITH_CHOICE, factor,
                            use_raster=False))
                    else:
                        provider.answer_batch(
                            digital, WITH_CHOICE, factor,
                            use_raster=False)
                    outcomes.append("ok")
                except TransientModelError:
                    outcomes.append("fault")
            return outcomes

        make = lambda: RemoteStubProvider(  # noqa: E731
            build_model("gpt-4o"), transient_rate=0.5, seed=11)
        assert pattern(make(), via_async=True) == pattern(
            make(), via_async=False)

    def test_rate_limit_rejects_with_transient_429(self, digital):
        clock = {"now": 0.0}
        provider = RemoteStubProvider(build_model("gpt-4o"),
                                      rate_limit_per_s=1.0,
                                      rate_limit_burst=1,
                                      rate_clock=lambda: clock["now"])

        async def drive():
            await provider.answer_batch_async(
                digital, WITH_CHOICE, use_raster=False)
            with pytest.raises(TransientModelError,
                               match="simulated 429 rate limit"):
                await provider.answer_batch_async(
                    digital, WITH_CHOICE, 2, use_raster=False)
            clock["now"] = 1.0  # bucket refills one token
            await provider.answer_batch_async(
                digital, WITH_CHOICE, 2, use_raster=False)

        asyncio.run(drive())
        assert provider.rate_limited == 1
        assert provider.calls == 2

    def test_async_latency_awaits_instead_of_blocking(self, digital):
        """Simulated latency on the async path goes through the
        injectable coroutine sleep, never ``time.sleep``."""
        waited = []

        async def record(seconds):
            waited.append(seconds)

        provider = RemoteStubProvider(build_model("gpt-4o"),
                                      base_latency_s=0.25,
                                      async_sleep=record,
                                      sleep=pytest.fail)
        asyncio.run(provider.answer_batch_async(
            digital, WITH_CHOICE, use_raster=False))
        assert waited and waited[0] >= 0.25

    def test_rate_limit_knobs_excluded_from_fingerprint(self):
        """Rate limits and per-call jitter shape transport scheduling,
        not answers; fingerprints (hence cache keys) ignore them."""
        plain = RemoteStubProvider(build_model("gpt-4o"))
        limited = RemoteStubProvider(build_model("gpt-4o"),
                                     rate_limit_per_s=2.0,
                                     rate_limit_burst=3,
                                     jitter_per_call=True)
        assert (plain.config_fingerprint()
                == limited.config_fingerprint())


class TestBatchingProviderDrainSafety:
    """Regression tests for the drain deadlock: a drainer that dies
    between slicing a batch off the queue and completing it used to
    strand co-batched waiters forever (the sliced entries were
    unreachable by any other drainer, and with the old boolean
    ``_draining`` flag a competing drain could also wedge)."""

    class _Interrupt(BaseException):
        """Non-``Exception`` failure landing mid-dispatch, like a
        ``KeyboardInterrupt`` delivered to the draining thread."""

    class _ExplodingModel:
        """Inner provider whose dispatch dies with a BaseException."""

        name = "exploding"

        def config_fingerprint(self):
            """Constant fingerprint; identity is irrelevant here."""
            return "0" * 64

        def answer_batch(self, questions, setting, resolution_factor=1,
                         use_raster=True):
            """Simulate an interrupt arriving inside the model call."""
            raise TestBatchingProviderDrainSafety._Interrupt(
                "interrupt mid-dispatch")

    def test_co_batched_waiter_not_stranded_by_base_exception(
            self, digital):
        provider = BatchingProvider(self._ExplodingModel(),
                                    max_batch_size=2, max_wait_s=30.0)
        outcomes = {}

        def submit(idx, question):
            try:
                outcomes[idx] = ("answer", provider.submit(
                    question, WITH_CHOICE, use_raster=False))
            except BaseException as exc:  # noqa: BLE001 - recording
                outcomes[idx] = ("raised", exc)

        first = threading.Thread(target=submit, args=(0, digital[0]))
        first.start()
        time.sleep(0.05)  # let the first submitter park in the wait loop
        second = threading.Thread(target=submit, args=(1, digital[1]))
        second.start()
        first.join(timeout=5.0)
        second.join(timeout=5.0)
        assert not first.is_alive() and not second.is_alive()
        assert len(outcomes) == 2
        # Nobody got a silent ``None`` answer.
        assert all(kind == "raised" for kind, _ in outcomes.values())
        exceptions = [exc for _, exc in outcomes.values()]
        assert any(isinstance(exc, self._Interrupt)
                   for exc in exceptions)
        assert any(isinstance(exc, RuntimeError)
                   and "batch dispatch aborted" in str(exc)
                   for exc in exceptions)

    def test_pre_dispatch_failure_completes_sliced_entries(self, digital):
        """A drain that dies before even dispatching (here: the batch
        clock raising when the leftover re-opens the window) must mark
        its sliced entries done-with-error; the leftover stays queued
        for the next drain instead of vanishing."""
        provider = BatchingProvider(build_model("gpt-4o"),
                                    max_batch_size=1, max_wait_s=10.0)
        sliced = {"question": digital[0],
                  "context": (WITH_CHOICE, 1, False),
                  "answer": None, "error": None, "done": False}
        leftover = dict(sliced, question=digital[1])
        provider._queue = [sliced, leftover]

        def dying_clock():
            raise RuntimeError("scripted clock death")

        provider._clock = dying_clock
        with provider._condition:
            with pytest.raises(RuntimeError, match="scripted clock death"):
                provider._drain_locked()
        assert sliced["done"]
        assert isinstance(sliced["error"], RuntimeError)
        assert "batch dispatch aborted" in str(sliced["error"])
        assert not leftover["done"]
        assert provider._queue == [leftover]
        assert provider._draining == 0
