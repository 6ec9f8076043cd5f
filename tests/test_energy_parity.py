"""Golden energy-parity tests across the scheme-plugin refactor.

The fixtures below were recorded from the pre-refactor monolithic
executor (the seed commit) as exact ``float.hex()`` values.  The
simulator is fully deterministic, so any refactor of the execution
layer must reproduce these totals *bit for bit* — a mismatch means the
event ordering or the energy accounting changed, not just noise.
"""

import pytest

from repro.core import Scenario, ScenarioEngine, Scheme, run_apps, run_scenario

#: (scenario label, scheme) -> (total_j.hex(), duration_s.hex()),
#: recorded from the seed executor before the schemes/ refactor.
GOLDEN = {
    ("A2", "polling"): ("0x1.5ae49392e9d5fp+2", "0x1.00726d04e618dp+0"),
    ("A2", "baseline"): ("0x1.5c26818829ef8p+2", "0x1.00887d5938c81p+0"),
    ("A2", "batching"): ("0x1.658e3432b922cp+1", "0x1.1aecec6e9a593p+0"),
    ("A2", "com"): ("0x1.1a5da260b0ba6p+0", "0x1.0816f1e3c5ae2p+0"),
    ("A2", "beam"): ("0x1.5c26818829ef8p+2", "0x1.00887d5938c81p+0"),
    ("A2", "bcom"): ("0x1.1a5da260b0ba6p+0", "0x1.0816f1e3c5ae2p+0"),
    ("A2+A7", "baseline"): ("0x1.9d38173211726p+2", "0x1.0e44a867a0282p+0"),
    ("A2+A7", "beam"): ("0x1.6de006c88d495p+2", "0x1.0e30e3472871cp+0"),
    ("A2+A7", "bcom"): ("0x1.e9d4f1476e2f1p+0", "0x1.59f5bd142af3ap+0"),
    ("A11+A6", "baseline"): ("0x1.3e712e468246dp+4", "0x1.d18e395397c94p+1"),
    ("A11+A6", "batching"): ("0x1.1b14e97b21345p+4", "0x1.f0b9ce2cd841ep+1"),
    ("A11+A6", "bcom"): ("0x1.127538f835707p+4", "0x1.f398e15ce660dp+1"),
}

APPS = {"A2": ["A2"], "A2+A7": ["A2", "A7"], "A11+A6": ["A11", "A6"]}


@pytest.mark.parametrize(
    "label,scheme", sorted(GOLDEN), ids=[f"{l}-{s}" for l, s in sorted(GOLDEN)]
)
def test_total_energy_bit_identical_to_seed(label, scheme):
    expected_j, expected_s = GOLDEN[(label, scheme)]
    result = run_apps(APPS[label], scheme)
    assert result.energy.total_j == float.fromhex(expected_j)
    assert result.duration_s == float.fromhex(expected_s)


def test_all_six_schemes_covered():
    """The A2 golden block exercises every registered built-in scheme."""
    covered = {scheme for label, scheme in GOLDEN if label == "A2"}
    assert covered == set(Scheme.ALL)


def test_cached_engine_hit_matches_cold_run(tmp_path):
    """A cache hit is indistinguishable from a cold run (minus the hub)."""
    engine = ScenarioEngine(cache_dir=tmp_path)
    cold = engine.run(Scenario.of(["A2"], scheme="batching"))
    hit = engine.run(Scenario.of(["A2"], scheme="batching"))
    assert engine.metrics.cache_misses == 1
    assert engine.metrics.cache_hits == 1
    assert hit.energy.total_j == cold.energy.total_j
    assert hit.duration_s == cold.duration_s
    assert hit.interrupt_count == cold.interrupt_count
    assert hit.busy_times == cold.busy_times
    assert (
        hit.result_payloads("stepcounter")
        == cold.result_payloads("stepcounter")
    )
    # The cold in-process run keeps its hub; cached copies never carry one.
    assert cold.hub is not None
    assert hit.hub is None


# ----------------------------------------------------------------------
# One-pass integration vs the two-pass loops it replaced
# ----------------------------------------------------------------------
def _two_pass_reference(recorder, end_time):
    """The former separate energy and busy-time loops, kept verbatim."""
    from repro.hw.power import BUSY_STATES, Routine

    energy = {}
    for component in recorder.components:
        for change, duration in recorder.intervals(component, end_time):
            key = (component, change.routine)
            energy[key] = energy.get(key, 0.0) + change.power_w * duration
    busy = {routine: 0.0 for routine in Routine.ORDER}
    for component in recorder.components:
        for change, duration in recorder.intervals(component, end_time):
            if change.state in BUSY_STATES:
                busy[change.routine] = busy.get(change.routine, 0.0) + duration
    return energy, busy


def _two_pass_between_reference(recorder, t0_s, t1_s):
    """The former clipped energy and busy-time loops, kept verbatim."""
    from repro.hw.power import BUSY_STATES, Routine

    def clipped(component):
        history = recorder.changes(component)
        for index, change in enumerate(history):
            following = (
                history[index + 1].time if index + 1 < len(history) else t1_s
            )
            start = change.time if change.time > t0_s else t0_s
            end = following if following < t1_s else t1_s
            if end > start:
                yield change, end - start

    energy = {}
    for component in recorder.components:
        for change, duration in clipped(component):
            key = (component, change.routine)
            energy[key] = energy.get(key, 0.0) + change.power_w * duration
    busy = {routine: 0.0 for routine in Routine.ORDER}
    for component in recorder.components:
        for change, duration in clipped(component):
            if change.state in BUSY_STATES:
                busy[change.routine] = busy.get(change.routine, 0.0) + duration
    return energy, busy


def _assert_one_pass_matches(recorder, end_time):
    from repro.energy.meter import integrate_timeline

    energy, busy = integrate_timeline(recorder, end_time)
    ref_energy, ref_busy = _two_pass_reference(recorder, end_time)
    # list(items()) compares key order as well as the exact floats.
    assert list(energy.items()) == list(ref_energy.items())
    assert list(busy.items()) == list(ref_busy.items())


@pytest.mark.parametrize("scheme", sorted(Scheme.ALL))
def test_one_pass_integration_matches_two_passes_fig11(scheme):
    result = run_apps(["A2", "A7"], scheme)
    _assert_one_pass_matches(result.hub.recorder, result.duration_s)
    ref_energy, ref_busy = _two_pass_reference(
        result.hub.recorder, result.duration_s
    )
    assert list(result.energy.by_component_routine.items()) == list(
        ref_energy.items()
    )
    assert list(result.busy_times.items()) == list(ref_busy.items())


def test_one_pass_integration_matches_two_passes_with_failures():
    result = run_scenario(
        Scenario.of(
            ["A2"], scheme="baseline", sensor_failure_rates={"S4": 0.25}
        )
    )
    # Failed availability checks cost extra read bursts.
    clean = run_apps(["A2"], "baseline")
    assert result.energy.total_j > clean.energy.total_j
    _assert_one_pass_matches(result.hub.recorder, result.duration_s)


def test_one_pass_integration_matches_two_passes_fast_forwarded():
    from repro.hw.power import integrate_between

    result = run_apps(["A3"], "batching", windows=600, fast_forward=True)
    recorder = result.hub.recorder
    truncated_end = result.hub.sim.now
    # The hub holds only the truncated prefix: this run was fast-forwarded.
    assert truncated_end < result.duration_s
    _assert_one_pass_matches(recorder, truncated_end)
    _assert_one_pass_matches(recorder, 2.0 * truncated_end)
    for t0_s, t1_s in (
        (0.0, truncated_end),
        (truncated_end / 3, 2 * truncated_end / 3),
        (truncated_end / 2, 3 * truncated_end),
    ):
        energy, busy = integrate_between(recorder, t0_s, t1_s)
        ref_energy, ref_busy = _two_pass_between_reference(
            recorder, t0_s, t1_s
        )
        assert list(energy.items()) == list(ref_energy.items())
        assert list(busy.items()) == list(ref_busy.items())
