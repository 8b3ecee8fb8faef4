"""Exception hierarchy for the Pipe-BD reproduction library."""

from typing import Any, Dict, Tuple


class ReproError(Exception):
    """Base class for all library-specific errors."""


class ConfigurationError(ReproError):
    """Raised when an experiment or model configuration is invalid."""


class ScheduleError(ReproError):
    """Raised when a schedule plan is malformed or infeasible."""


class SimulationError(ReproError):
    """Raised when the discrete-event simulation cannot make progress."""


class MemoryCapacityError(ReproError):
    """Raised when a plan does not fit in a device's memory capacity."""


class ShapeError(ReproError):
    """Raised when tensor or layer shapes are inconsistent."""


class ClusterError(ReproError):
    """Raised when a cluster workload cannot be scheduled or is malformed."""


class StoreError(ReproError):
    """Raised when the persistent experiment store is unusable or misused."""


class StoreSchemaError(StoreError):
    """Raised when an on-disk store's schema version does not match the library."""


class RequestError(ReproError):
    """A rejected CLI or HTTP request, with its HTTP status and a structured body.

    ``body`` always holds ``status`` / ``type`` / ``message`` and, when
    given, ``field`` / ``value`` / ``choices`` / ``detail``.  The service
    answers with :meth:`response`; the CLI prints the message and exits 2.
    """

    def __init__(self, status: int, type: str, message: str, **extra: Any) -> None:
        super().__init__(message)
        self.status = status
        self.body: Dict[str, Any] = {"status": status, "type": type, "message": message}
        for key, value in extra.items():
            if value is not None:
                self.body[key] = value

    def response(self) -> Tuple[int, dict]:
        return self.status, {"error": self.body}
