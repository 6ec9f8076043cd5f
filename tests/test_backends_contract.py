"""Cross-backend conformance suite for the execution-backend layer.

Both backends (serial and process) must honor the same contract:
ordered results, attributed error propagation, exact scheduling
counters, an idempotent close/reopen lifecycle — and, through the
engine, grid results that are bit-identical to an inline (serial) run.
The process backend's chunk-size arithmetic and worker-count checks
close the file.
"""

import pickle

import pytest

from repro.core import ScenarioEngine, Scheme, compare_grid
from repro.core.backends import (
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    adaptive_chunk_size,
    backend_names,
    chunked,
    create_backend,
    default_backend_name,
)
from repro.core.engine import strip_hub
from repro.errors import BackendError, ChunkTaskError


def _square(value):
    return value * value


def _boom_on_five(value):
    if value == 5:
        raise ValueError("boom")
    return value


# ----------------------------------------------------------------------
# backend construction, parametrized over both backends
# ----------------------------------------------------------------------
_BACKEND_FIXTURES = {
    "serial": SerialBackend,
    "process": lambda: ProcessPoolBackend(max_workers=2),
}


def test_suite_covers_every_registered_backend():
    """A new stock backend must join this conformance suite."""
    assert set(backend_names()) == set(_BACKEND_FIXTURES)


@pytest.fixture(params=sorted(_BACKEND_FIXTURES))
def backend(request):
    built = _BACKEND_FIXTURES[request.param]()
    yield built
    built.close()


# ----------------------------------------------------------------------
# ordering and counters
# ----------------------------------------------------------------------
def test_results_come_back_in_item_order(backend):
    items = list(range(25))
    assert backend.submit_batch(_square, items, chunk_size=4) == [
        value * value for value in items
    ]
    # Counter exactness: 25 tasks in ceil(25/4) = 7 dispatched chunks.
    assert backend.tasks == 25
    assert backend.dispatches == 7
    if backend.parallel:
        assert backend.spawns >= 1
    else:
        assert backend.spawns == 0


def test_empty_batch_is_free(backend):
    assert backend.submit_batch(_square, []) == []
    assert backend.spawns == 0
    assert backend.tasks == 0
    assert backend.dispatches == 0


# ----------------------------------------------------------------------
# error propagation with attribution
# ----------------------------------------------------------------------
def test_task_errors_carry_index_and_label(backend):
    labels = [f"point-{value}" for value in range(8)]
    with pytest.raises(ChunkTaskError, match="boom") as excinfo:
        backend.submit_batch(
            _boom_on_five, list(range(8)), chunk_size=2, labels=labels
        )
    assert excinfo.value.index == 5
    assert excinfo.value.label == "point-5"


def test_backend_stays_usable_after_a_task_error(backend):
    with pytest.raises(ChunkTaskError):
        backend.submit_batch(_boom_on_five, list(range(8)), chunk_size=2)
    assert backend.submit_batch(_square, [3, 4]) == [9, 16]


def test_chunk_task_error_survives_pickling():
    error = ChunkTaskError("task 7 (pt) failed", index=7, label="pt")
    clone = pickle.loads(pickle.dumps(error))
    assert isinstance(clone, ChunkTaskError)
    assert (clone.index, clone.label) == (7, "pt")
    assert str(clone) == str(error)


# ----------------------------------------------------------------------
# lifecycle
# ----------------------------------------------------------------------
def test_close_is_idempotent_and_reopens_transparently(backend):
    assert backend.submit_batch(_square, [2]) == [4]
    backend.close()
    backend.close()  # double-close must never raise
    assert not backend.alive
    assert backend.submit_batch(_square, [3]) == [9]  # transparent reopen


def test_close_before_any_batch_is_safe(backend):
    backend.close()  # nothing spawned yet
    assert backend.spawns == 0


def test_context_manager_closes(backend):
    with backend as entered:
        assert entered is backend
        assert backend.submit_batch(_square, [5]) == [25]
    assert not backend.alive


# ----------------------------------------------------------------------
# engine integration: bit-identical grids on every backend
# ----------------------------------------------------------------------
def _result_signature(result):
    """Every deterministic field of a result, hub stripped."""
    bare = strip_hub(result)
    return (
        bare.scenario_name,
        bare.scheme,
        bare.app_ids,
        bare.windows,
        bare.duration_s,
        bare.energy.total_j,
        bare.energy.marginal_j,
        bare.busy_times,
        bare.result_times,
        bare.qos_violations,
        bare.interrupt_count,
        bare.cpu_wake_count,
        bare.bus_bytes,
    )


_GRID_APP_SETS = [["A2"], ["A4", "A5"], ["A5", "A4"]]
_GRID_SCHEMES = [Scheme.BASELINE, Scheme.BATCHING]


def _grid_signatures(engine):
    grid = compare_grid(_GRID_APP_SETS, _GRID_SCHEMES, engine=engine)
    return {
        (key, scheme): _result_signature(result)
        for key, per_scheme in grid.items()
        for scheme, result in per_scheme.items()
    }


@pytest.fixture(scope="module")
def serial_grid_signatures():
    with ScenarioEngine(backend="serial") as engine:
        return _grid_signatures(engine)


def test_engine_grid_bit_identical_across_backends(
    backend, serial_grid_signatures
):
    with ScenarioEngine(workers=2, backend=backend.name) as engine:
        assert _grid_signatures(engine) == serial_grid_signatures
        assert engine.metrics.backend_name == backend.name


# ----------------------------------------------------------------------
# name resolution and defaults
# ----------------------------------------------------------------------
def test_unknown_backend_name_is_an_error(monkeypatch):
    for name in ("warp-drive", "socket"):
        with pytest.raises(BackendError, match="unknown backend"):
            create_backend(name)
    monkeypatch.setenv("REPRO_BACKEND", "socket")
    with pytest.raises(BackendError, match="unknown backend 'socket'"):
        ScenarioEngine()


def test_default_backend_follows_workers(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    assert default_backend_name(1) == "serial"
    assert default_backend_name(4) == "process"


def test_env_var_overrides_the_default(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "serial")
    assert default_backend_name(8) == "serial"
    engine = ScenarioEngine(workers=8)
    try:
        assert engine.backend.name == "serial"
    finally:
        engine.close()


def test_explicit_backend_beats_the_env_var(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "process")
    engine = ScenarioEngine(backend="serial")
    try:
        assert engine.backend.name == "serial"
    finally:
        engine.close()


def test_engine_close_safe_after_failed_backend_construction():
    engine = None
    try:
        engine = ScenarioEngine(backend="warp-drive")
    except BackendError:
        pass
    assert engine is None
    # Simulate the CLI/atexit double-close pattern on a real engine.
    engine = ScenarioEngine(backend="serial")
    engine.close()
    engine.close()


def test_base_class_requires_submit_batch():
    with pytest.raises(NotImplementedError):
        ExecutionBackend().submit_batch(_square, [1])


# ----------------------------------------------------------------------
# process backend: pool lifecycle, chunk-size arithmetic, worker count
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    ("tasks", "workers", "expected"),
    [
        (0, 4, 1),
        (1, 4, 1),
        (16, 4, 1),  # exactly chunks_per_worker chunks each
        (42, 4, 3),  # the fig11+permutations batch: 14 dispatches
        (1000, 4, 63),
        (5, 8, 1),  # fewer tasks than workers: no starvation
    ],
)
def test_adaptive_chunk_size(tasks, workers, expected):
    assert adaptive_chunk_size(tasks, workers) == expected


def test_adaptive_chunk_size_rejects_bad_workers():
    with pytest.raises(ValueError):
        adaptive_chunk_size(10, 0)


def test_chunked_splits_and_preserves_order():
    assert chunked([1, 2, 3, 4, 5], 2) == [[1, 2], [3, 4], [5]]
    with pytest.raises(ValueError):
        chunked([1], 0)


def _boom(value):
    raise RuntimeError(f"boom {value}")


def test_map_returns_results_in_item_order():
    with ProcessPoolBackend(2) as backend:
        assert backend.submit_batch(_square, list(range(10))) == [
            value * value for value in range(10)
        ]
        assert backend.tasks == 10
        assert backend.dispatches >= 2


def test_pool_spawns_once_across_maps():
    with ProcessPoolBackend(2) as backend:
        backend.submit_batch(_square, [1, 2, 3])
        backend.submit_batch(_square, [4, 5, 6])
        assert backend.spawns == 1
        assert backend.tasks == 6


def test_empty_map_never_spawns():
    with ProcessPoolBackend(2) as backend:
        assert backend.submit_batch(_square, []) == []
        assert backend.spawns == 0
        assert not backend.alive


def test_closed_pool_respawns_transparently():
    backend = ProcessPoolBackend(2)
    backend.submit_batch(_square, [1])
    backend.close()
    assert not backend.alive
    backend.close()  # idempotent
    assert backend.submit_batch(_square, [2]) == [4]
    assert backend.spawns == 2
    backend.close()


def test_worker_exceptions_propagate():
    # A real bug aborts the batch, attributed to the failing item.
    with ProcessPoolBackend(2) as backend:
        with pytest.raises(ChunkTaskError, match="boom") as excinfo:
            backend.submit_batch(_boom, [1, 2])
        assert excinfo.value.index in (0, 1)
        # The original exception survives in the message (the pickled
        # __cause__ becomes a remote-traceback stub across processes).
        assert "RuntimeError" in str(excinfo.value)


def test_explicit_chunk_size_controls_dispatch_count():
    with ProcessPoolBackend(2) as backend:
        backend.submit_batch(_square, list(range(6)), chunk_size=6)
        assert backend.dispatches == 1
        assert backend.tasks == 6


def test_pool_rejects_bad_worker_count():
    with pytest.raises(ValueError):
        ProcessPoolBackend(0)
