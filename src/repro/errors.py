"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError` so that
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """The discrete-event kernel was used incorrectly or reached a bad state."""


class SchedulingError(SimulationError):
    """An event was scheduled in the past or a process misbehaved."""


class HardwareError(ReproError):
    """A hardware model was configured or driven incorrectly."""


class PowerStateError(HardwareError):
    """An illegal power-state transition was requested."""


class BusError(HardwareError):
    """A PIO bus transfer was malformed (unknown device, bad size, ...)."""


class CapacityError(HardwareError):
    """A buffer or memory capacity was exceeded (e.g. MCU batching buffer)."""


class SensorError(ReproError):
    """A sensor read failed its availability checks or was misconfigured."""


class OffloadError(ReproError):
    """An app cannot be offloaded to the MCU (capacity or QoS violation)."""


class QoSViolation(ReproError):
    """A scheme violated an app's sampling-rate or deadline requirement."""


class WorkloadError(ReproError):
    """A workload/scenario definition is inconsistent."""


class AnalyticUnsupported(ReproError):
    """A scenario falls outside the analytic tier's validated envelope."""


class BackendError(ReproError):
    """An execution backend was unknown or misconfigured, or a task failed."""


class ChunkTaskError(BackendError):
    """A task inside a dispatched chunk raised a non-library exception.

    Raised worker-side by the chunked-dispatch loop so the parent learns
    *which* item failed: ``index`` is the batch-global item position and
    ``label`` the caller-supplied description of that item (the engine
    passes the scenario's scheme/apps).  The original exception is the
    ``__cause__`` where the process boundary preserves it; its ``repr``
    is always embedded in the message.
    """

    def __init__(
        self, message: str, index: int = -1, label: str = ""
    ) -> None:
        super().__init__(message)
        self.index = index
        self.label = label

    def __reduce__(self):
        # Exceptions pickle through their constructor args; carry the
        # attribution attributes across the process boundary too.
        return (type(self), (self.args[0], self.index, self.label))


class ProtocolError(ReproError):
    """A protocol codec (CoAP, Blynk, M2X, JSON) rejected a message."""


class ServeError(ReproError):
    """The simulation service (``repro serve``) rejected a request."""


class JobSpecError(ServeError):
    """A submitted job specification is malformed (HTTP 400)."""


class UnknownJobError(ServeError):
    """A job id does not exist on this service (HTTP 404)."""


class QuotaError(ServeError):
    """A client exceeded its concurrent-job quota (HTTP 429)."""


class ServiceClosedError(ServeError):
    """The service is draining or closed and accepts no new jobs (HTTP 503)."""
