"""Tests for the scenario engine: fingerprints, disk cache, fan-out."""

import dataclasses
import pickle

import pytest

from repro.calibration import default_calibration
from repro.core import (
    Scenario,
    ScenarioEngine,
    Scheme,
    canonicalize_scenario,
    grid_of,
    run_scenario,
    run_sweep,
    scenario_fingerprint,
)
from repro.errors import OffloadError
from repro.sensors.synthetic import ConstantWaveform


# ----------------------------------------------------------------------
# fingerprinting
# ----------------------------------------------------------------------
def test_fingerprint_deterministic_across_instances():
    a = Scenario.of(["A2", "A4"], scheme=Scheme.BATCHING, windows=2)
    b = Scenario.of(["A2", "A4"], scheme=Scheme.BATCHING, windows=2)
    assert scenario_fingerprint(a) == scenario_fingerprint(b)


@pytest.mark.parametrize(
    "variant",
    [
        lambda: Scenario.of(["A2"], scheme=Scheme.COM),
        lambda: Scenario.of(["A2"], scheme=Scheme.BATCHING, windows=2),
        lambda: Scenario.of(["A2"], scheme=Scheme.BATCHING, batch_size=100),
        lambda: Scenario.of(["A2", "A4"], scheme=Scheme.BATCHING),
        lambda: Scenario.of(
            ["A2"],
            scheme=Scheme.BATCHING,
            calibration=default_calibration().with_cpu(active_power_w=4.0),
        ),
        lambda: Scenario.of(
            ["A2"],
            scheme=Scheme.BATCHING,
            waveforms={"S4": ConstantWaveform(0.5)},
        ),
        lambda: Scenario.of(
            ["A2"], scheme=Scheme.BATCHING, sensor_failure_rates={"S4": 0.1}
        ),
    ],
    ids=[
        "scheme",
        "windows",
        "batch_size",
        "apps",
        "calibration",
        "waveform",
        "failure_rate",
    ],
)
def test_fingerprint_sensitive_to_every_simulation_input(variant):
    base = scenario_fingerprint(Scenario.of(["A2"], scheme=Scheme.BATCHING))
    assert scenario_fingerprint(variant()) != base


def test_fingerprint_equal_waveform_params_collide():
    a = Scenario.of(
        ["A2"], scheme=Scheme.BATCHING, waveforms={"S4": ConstantWaveform(0.5)}
    )
    b = Scenario.of(
        ["A2"], scheme=Scheme.BATCHING, waveforms={"S4": ConstantWaveform(0.5)}
    )
    assert scenario_fingerprint(a) == scenario_fingerprint(b)


def test_fingerprint_ignores_presentational_name():
    a = Scenario.of(["A2"], scheme=Scheme.BATCHING)
    b = dataclasses.replace(a, name="my-study")
    assert scenario_fingerprint(a) == scenario_fingerprint(b)


def test_fingerprint_canonicalizes_app_permutations():
    fwd = Scenario.of(["A4", "A5"], scheme=Scheme.BEAM)
    rev = Scenario.of(["A5", "A4"], scheme=Scheme.BEAM)
    assert scenario_fingerprint(fwd) == scenario_fingerprint(rev)
    # The as-given ordering is a different execution; canonical=False
    # (the dedup=False engine's mode) must keep them apart.
    assert scenario_fingerprint(fwd, canonical=False) != scenario_fingerprint(
        rev, canonical=False
    )


def test_fingerprint_failure_injection_disables_canonicalization():
    fwd = Scenario.of(
        ["A4", "A5"], scheme=Scheme.BEAM, sensor_failure_rates={"S4": 0.1}
    )
    rev = Scenario.of(
        ["A5", "A4"], scheme=Scheme.BEAM, sensor_failure_rates={"S4": 0.1}
    )
    # Failure draws key off absolute read order, so permutations are
    # real behavioral variants and must never collide.
    assert scenario_fingerprint(fwd) != scenario_fingerprint(rev)
    assert canonicalize_scenario(rev) is rev


def test_canonicalize_scenario_sorts_apps_keeps_name():
    scenario = Scenario.of(["A5", "A4"], scheme=Scheme.BEAM)
    canonical = canonicalize_scenario(scenario)
    assert [app.table2_id for app in canonical.apps] == ["A4", "A5"]
    assert canonical.name == scenario.name
    # Already-canonical scenarios come back untouched (same object).
    assert canonicalize_scenario(canonical) is canonical


# ----------------------------------------------------------------------
# disk cache
# ----------------------------------------------------------------------
def test_cache_survives_engine_instances(tmp_path):
    first = ScenarioEngine(cache_dir=tmp_path)
    cold = first.run(Scenario.of(["A2"], scheme=Scheme.COM))
    second = ScenarioEngine(cache_dir=tmp_path)
    hit = second.run(Scenario.of(["A2"], scheme=Scheme.COM))
    assert second.cache_hits == 1
    assert hit.energy.total_j == cold.energy.total_j


def test_corrupt_cache_entry_is_a_miss_not_an_error(tmp_path):
    engine = ScenarioEngine(cache_dir=tmp_path)
    scenario = Scenario.of(["A2"], scheme=Scheme.BATCHING)
    engine.run(scenario)
    (entry,) = tmp_path.rglob("*.pkl")
    entry.write_bytes(b"not a pickle")
    # A second engine (no warm memory tier) must hit the corrupt disk
    # entry, treat it as a miss, re-simulate and replace it.
    rerun_engine = ScenarioEngine(cache_dir=tmp_path)
    rerun = rerun_engine.run(Scenario.of(["A2"], scheme=Scheme.BATCHING))
    assert rerun.results_ok
    assert rerun_engine.cache_misses == 1
    with open(entry, "rb") as handle:
        assert pickle.load(handle)["result"].results_ok


def test_engine_without_cache_never_touches_disk(tmp_path):
    engine = ScenarioEngine()
    engine.run(Scenario.of(["A2"], scheme=Scheme.BATCHING))
    assert engine.cache_hits == engine.cache_misses == 0
    assert list(tmp_path.iterdir()) == []


def test_engine_rejects_bad_worker_count():
    with pytest.raises(ValueError):
        ScenarioEngine(workers=0)


# ----------------------------------------------------------------------
# batch execution and fan-out
# ----------------------------------------------------------------------
def test_run_many_raises_library_errors():
    engine = ScenarioEngine()
    with pytest.raises(OffloadError):
        engine.run_many([Scenario.of(["A11"], scheme=Scheme.COM)])


def test_parallel_sweep_identical_to_serial(tmp_path):
    def factory(batch_size):
        return Scenario.of(
            ["A2"], scheme=Scheme.BATCHING, batch_size=batch_size
        )

    grid = grid_of(batch_size=[100, 1000])
    serial = run_sweep(grid, factory, workers=1)
    parallel = run_sweep(grid, factory, workers=2)
    assert len(serial) == len(parallel) == 2
    for one, two in zip(serial, parallel):
        assert one.params == two.params
        assert one.result.energy.total_j == two.result.energy.total_j
        assert one.result.duration_s == two.result.duration_s
        assert one.result.interrupt_count == two.result.interrupt_count
        assert one.result.busy_times == two.result.busy_times


def test_parallel_sweep_captures_library_errors():
    def factory(app_id):
        return Scenario.of([app_id], scheme=Scheme.COM)

    sweep = run_sweep(grid_of(app_id=["A11", "A2"]), factory, workers=2)
    assert len(sweep.failed) == 1
    assert "offloaded" in sweep.failed[0].error
    assert len(sweep.succeeded) == 1


def test_sweep_fills_from_cache(tmp_path):
    def factory(scheme):
        return Scenario.of(["A2"], scheme=scheme)

    grid = grid_of(scheme=[Scheme.BASELINE, Scheme.BATCHING])
    engine = ScenarioEngine(cache_dir=tmp_path)
    first = run_sweep(grid, factory, engine=engine)
    assert engine.cache_misses == 2
    second = run_sweep(grid, factory, engine=engine)
    assert engine.cache_hits == 2
    for one, two in zip(first, second):
        assert one.result.energy.total_j == two.result.energy.total_j


def test_second_engine_hits_disk_then_memory(tmp_path):
    scenario = Scenario.of(["A2"], scheme=Scheme.COM)
    ScenarioEngine(cache_dir=tmp_path).run(scenario)
    engine = ScenarioEngine(cache_dir=tmp_path)
    engine.run(scenario)  # disk hit, promoted into the memory LRU
    engine.run(scenario)  # memory hit
    assert engine.metrics.cache_disk_hits == 1
    assert engine.metrics.cache_memory_hits == 1
    assert engine.cache_hits == 2


# ----------------------------------------------------------------------
# dedup: permutation-equivalent points simulate once
# ----------------------------------------------------------------------
def test_batch_dedups_permuted_points_bit_identically():
    fwd = Scenario.of(["A4", "A5"], scheme=Scheme.BEAM)
    rev = Scenario.of(["A5", "A4"], scheme=Scheme.BEAM)
    engine = ScenarioEngine()
    first, second = engine.run_batch([fwd, rev])
    assert engine.dedup_hits == 1
    assert engine.metrics.scenarios_run == 1
    # Each point keeps its own presentational identity...
    assert first.scenario_name == fwd.name
    assert second.scenario_name == rev.name
    assert second.app_ids == ["A5", "A4"]
    # ...over physics bit-identical to a per-point serial run.
    reference = run_scenario(canonicalize_scenario(rev))
    for result in (first, second):
        assert result.energy.total_j == reference.energy.total_j
        assert result.duration_s == reference.duration_s
        assert result.interrupt_count == reference.interrupt_count
        assert result.busy_times == reference.busy_times


def test_single_run_executes_canonical_ordering():
    rev = Scenario.of(["A5", "A4"], scheme=Scheme.BEAM)
    result = ScenarioEngine().run(rev)
    reference = run_scenario(canonicalize_scenario(rev))
    assert result.energy.total_j == reference.energy.total_j
    assert result.app_ids == ["A5", "A4"]  # presentation is as requested


def test_dedup_disabled_runs_each_permutation():
    fwd = Scenario.of(["A4", "A5"], scheme=Scheme.BEAM)
    rev = Scenario.of(["A5", "A4"], scheme=Scheme.BEAM)
    engine = ScenarioEngine(dedup=False)
    first, second = engine.run_batch([fwd, rev])
    assert engine.dedup_hits == 0
    assert engine.metrics.scenarios_run == 2
    # As-given execution order: results legitimately differ from the
    # canonical ordering's (this is why dedup re-executes canonically).
    assert first.energy.total_j == run_scenario(fwd).energy.total_j
    assert second.energy.total_j == run_scenario(rev).energy.total_j


def test_failure_injection_points_never_dedup():
    fwd = Scenario.of(
        ["A4", "A5"], scheme=Scheme.BEAM, sensor_failure_rates={"S1": 0.2}
    )
    rev = Scenario.of(
        ["A5", "A4"], scheme=Scheme.BEAM, sensor_failure_rates={"S1": 0.2}
    )
    engine = ScenarioEngine()
    engine.run_batch([fwd, rev])
    assert engine.dedup_hits == 0
    assert engine.metrics.scenarios_run == 2


def test_dedup_error_fans_out_to_every_member():
    fwd = Scenario.of(["A11", "A2"], scheme=Scheme.COM)
    rev = Scenario.of(["A2", "A11"], scheme=Scheme.COM)
    engine = ScenarioEngine()
    outcomes = engine.run_batch([fwd, rev])
    assert all(isinstance(outcome, OffloadError) for outcome in outcomes)
    assert engine.metrics.scenarios_run == 1


# ----------------------------------------------------------------------
# persistent pool and engine-managed cache GC
# ----------------------------------------------------------------------
def test_pool_persists_across_batches():
    grid = [
        Scenario.of([app_id], scheme=Scheme.BASELINE)
        for app_id in ("A2", "A3")
    ]
    # Explicit backend: the assertion is about process-pool reuse, so it
    # must hold even when $REPRO_BACKEND selects another default.
    with ScenarioEngine(workers=2, backend="process") as engine:
        engine.run_batch(grid)
        assert engine.metrics.backend_name == "process"
        assert engine.metrics.backend_spawns == 1
        more = [
            Scenario.of([app_id], scheme=Scheme.BEAM)
            for app_id in ("A2", "A3")
        ]
        engine.run_batch(more)
        assert engine.metrics.backend_spawns == 1  # reused, not respawned
        assert engine.metrics.backend_tasks == 4
        assert engine.metrics.backend_dispatches >= 2


def test_memory_only_engine_caches_without_disk(tmp_path):
    engine = ScenarioEngine(memory_cache=8)
    scenario = Scenario.of(["A2"], scheme=Scheme.BATCHING)
    engine.run(scenario)
    hit = engine.run(scenario)
    assert engine.metrics.cache_memory_hits == 1
    assert hit.hub is None  # cached results come back hub-stripped
    assert list(tmp_path.iterdir()) == []


def test_engine_cache_max_bytes_evicts_after_runs(tmp_path):
    engine = ScenarioEngine(cache_dir=tmp_path, cache_max_bytes=0)
    engine.run(Scenario.of(["A2"], scheme=Scheme.BATCHING))
    # The post-run GC pass evicted everything (cap is zero bytes).
    assert list(tmp_path.rglob("*.pkl")) == []
