"""Tests for the two-tier result cache: LRU, sharded disk, recovery.

The concurrency section is the satellite the ISSUE calls out: two
engines sharing one cache directory must tolerate write races, torn
and garbage entries, and entries written by other library versions —
every failure mode degrades to a recomputation, never an exception.
"""

import os
import pickle
import threading

import pytest

from repro.core import Scenario, ScenarioEngine, Scheme, run_scenario
from repro.core.cache import (
    ENTRY_VERSION,
    DiskResultCache,
    LRUResultCache,
    TieredResultCache,
)
from repro.core.engine import scenario_fingerprint, strip_hub


@pytest.fixture(scope="module")
def sample_result():
    """One real (hub-stripped) result to shuttle through the caches."""
    return strip_hub(run_scenario(Scenario.of(["A2"], scheme=Scheme.COM)))


def _fingerprint(index: int = 0) -> str:
    return f"{index:02x}" + "ab" * 31


# ----------------------------------------------------------------------
# memory tier
# ----------------------------------------------------------------------
def test_lru_evicts_least_recently_used(sample_result):
    cache = LRUResultCache(max_entries=2)
    cache.put(_fingerprint(0), sample_result)
    cache.put(_fingerprint(1), sample_result)
    assert cache.get(_fingerprint(0)) is not None  # refresh 0
    cache.put(_fingerprint(2), sample_result)  # evicts 1, not 0
    assert cache.get(_fingerprint(1)) is None
    assert cache.get(_fingerprint(0)) is not None
    assert len(cache) == 2


def test_lru_rejects_nonpositive_capacity():
    with pytest.raises(ValueError):
        LRUResultCache(max_entries=0)


def test_lru_clear(sample_result):
    cache = LRUResultCache()
    cache.put(_fingerprint(), sample_result)
    cache.clear()
    assert len(cache) == 0
    assert cache.get(_fingerprint()) is None


# ----------------------------------------------------------------------
# disk tier: layout, atomicity, recovery
# ----------------------------------------------------------------------
def test_disk_layout_is_sharded(tmp_path, sample_result):
    cache = DiskResultCache(tmp_path)
    fingerprint = _fingerprint()
    cache.store(fingerprint, sample_result)
    expected = tmp_path / fingerprint[:2] / f"{fingerprint[2:]}.pkl"
    assert expected.is_file()
    assert cache.load(fingerprint).energy.total_j == (
        sample_result.energy.total_j
    )
    # No stray tmp files survive a successful store.
    assert list(tmp_path.rglob("*.tmp")) == []


def test_disk_missing_entry_is_none(tmp_path):
    assert DiskResultCache(tmp_path).load(_fingerprint()) is None


@pytest.mark.parametrize(
    "payload",
    [b"", b"garbage not a pickle", pickle.dumps({"truncated": True})[:-4]],
    ids=["empty", "garbage", "truncated"],
)
def test_disk_corrupt_entry_is_miss_and_discarded(
    tmp_path, sample_result, payload
):
    cache = DiskResultCache(tmp_path)
    fingerprint = _fingerprint()
    cache.store(fingerprint, sample_result)
    path = cache.path_for(fingerprint)
    with open(path, "wb") as handle:
        handle.write(payload)
    assert cache.load(fingerprint) is None
    assert not os.path.exists(path)  # useless bytes were dropped


def test_disk_version_mismatch_skipped_not_deleted(tmp_path, sample_result):
    cache = DiskResultCache(tmp_path)
    fingerprint = _fingerprint()
    path = cache.path_for(fingerprint)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "wb") as handle:
        pickle.dump(
            {
                "entry_version": ENTRY_VERSION + 1,
                "fingerprint": fingerprint,
                "result": sample_result,
            },
            handle,
        )
    assert cache.load(fingerprint) is None
    # Another library version may still want it: left in place.
    assert os.path.exists(path)


def test_disk_foreign_fingerprint_is_miss(tmp_path, sample_result):
    """A valid envelope renamed into the wrong slot never serves."""
    cache = DiskResultCache(tmp_path)
    path = cache.path_for(_fingerprint(2))
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "wb") as handle:
        pickle.dump(
            {
                "entry_version": ENTRY_VERSION,
                "fingerprint": _fingerprint(0),
                "result": sample_result,
            },
            handle,
        )
    assert cache.load(_fingerprint(2)) is None


# ----------------------------------------------------------------------
# disk tier: stats / gc / clear
# ----------------------------------------------------------------------
def test_stats_counts_entries_and_shards(tmp_path, sample_result):
    cache = DiskResultCache(tmp_path)
    for index in range(3):
        cache.store(_fingerprint(index), sample_result)
    stats = cache.stats()
    assert stats.entries == 3
    assert stats.shard_dirs == 3  # distinct 2-char prefixes
    assert stats.total_bytes > 0


def test_gc_evicts_oldest_first(tmp_path, sample_result):
    cache = DiskResultCache(tmp_path)
    for index in range(3):
        cache.store(_fingerprint(index), sample_result)
        os.utime(cache.path_for(_fingerprint(index)), (index, index))
    entry_size = os.path.getsize(cache.path_for(_fingerprint(0)))
    outcome = cache.gc(max_bytes=entry_size)  # room for exactly one
    assert outcome.evicted == 2
    assert outcome.remaining_entries == 1
    assert cache.load(_fingerprint(2)) is not None  # newest survives
    assert cache.load(_fingerprint(0)) is None


def test_gc_without_cap_raises(tmp_path):
    with pytest.raises(ValueError):
        DiskResultCache(tmp_path).gc()


def test_maybe_gc_noop_without_configured_cap(tmp_path, sample_result):
    cache = DiskResultCache(tmp_path)
    cache.store(_fingerprint(), sample_result)
    assert cache.maybe_gc() is None
    assert cache.stats().entries == 1


# ----------------------------------------------------------------------
# tier composition
# ----------------------------------------------------------------------
def test_tiered_promotes_disk_hits_to_memory(tmp_path, sample_result):
    disk = DiskResultCache(tmp_path)
    memory = LRUResultCache()
    tiered = TieredResultCache(memory=memory, disk=disk)
    fingerprint = _fingerprint()
    disk.store(fingerprint, sample_result)
    tier, _ = tiered.get(fingerprint)
    assert tier == "disk"
    tier, _ = tiered.get(fingerprint)
    assert tier == "memory"


def test_tiered_disabled_without_tiers():
    assert not TieredResultCache().enabled
    assert TieredResultCache(memory=LRUResultCache()).enabled


# ----------------------------------------------------------------------
# concurrency: shared directories and racing writers
# ----------------------------------------------------------------------
def test_two_engines_share_one_cache_dir(tmp_path):
    scenario = Scenario.of(["A2"], scheme=Scheme.BATCHING)
    first = ScenarioEngine(cache_dir=tmp_path)
    second = ScenarioEngine(cache_dir=tmp_path)
    cold = first.run(scenario)
    hit = second.run(scenario)
    assert first.cache_misses == 1
    assert second.metrics.cache_disk_hits == 1
    assert hit.energy.total_j == cold.energy.total_j


def test_racing_writers_leave_one_complete_entry(tmp_path, sample_result):
    fingerprint = _fingerprint()
    errors = []

    def writer():
        try:
            for _ in range(50):
                DiskResultCache(tmp_path).store(fingerprint, sample_result)
        except BaseException as exc:  # noqa: BLE001 - test harness
            errors.append(exc)

    threads = [threading.Thread(target=writer) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    loaded = DiskResultCache(tmp_path).load(fingerprint)
    assert loaded is not None
    assert loaded.energy.total_j == sample_result.energy.total_j
    assert list(tmp_path.rglob("*.tmp")) == []


def test_reader_racing_clear_sees_miss_not_error(tmp_path, sample_result):
    cache = DiskResultCache(tmp_path)
    fingerprint = _fingerprint()
    cache.store(fingerprint, sample_result)
    cache.clear()
    assert cache.load(fingerprint) is None
    assert cache.entries() == []


def test_fingerprint_roundtrip_through_engine_cache(tmp_path):
    """The engine's disk entries live where DiskResultCache says."""
    scenario = Scenario.of(["A2"], scheme=Scheme.BATCHING)
    engine = ScenarioEngine(cache_dir=tmp_path)
    engine.run(scenario)
    fingerprint = scenario_fingerprint(scenario)
    assert os.path.exists(DiskResultCache(tmp_path).path_for(fingerprint))
