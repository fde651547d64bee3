"""The service's event vocabulary.

Three event kinds cover the controller's northbound interface — the
same trio the empower-style runtimes dispatch to their apps:

* :class:`StationJoin` — a station asks to associate; the answer is an
  AP id, produced by the admission layer (possibly micro-batched).
* :class:`StationLeave` — a station disassociates; feeds the online
  learner's encounter / co-leaving extraction.
* :class:`StatsReport` — a periodic per-station rate report; feeds the
  demand EWMA the selector's feasibility check uses.

Every event carries a ``seq`` — its position in the *global* event
order — and a sim-clock ``time`` that must be non-decreasing in ``seq``
order.  Producers may submit events in any interleaving; the service's
reorder buffer (:class:`~repro.service.loop.ControllerService`)
processes them strictly by ``seq``, which is what keeps same-seed
journals byte-identical whether one producer submitted everything or
eight raced each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Tuple, Union

# The events are frozen dataclasses with ``__slots__`` declared in the
# class body (a 100k-event stream is over a fifth smaller without a
# ``__dict__`` per event).  ``dataclass(slots=True)`` needs Python 3.10,
# and before 3.11 a frozen, slotted dataclass cannot unpickle: the
# default protocol restores slots through ``__setattr__``, which a
# frozen class refuses.  So each class pickles as a constructor call.


@dataclass(frozen=True)
class StationJoin:
    """A station requesting association."""

    __slots__ = ("seq", "time", "user_id")

    seq: int
    time: float
    user_id: str

    def __reduce__(self) -> Tuple[Any, ...]:
        return (StationJoin, (self.seq, self.time, self.user_id))


@dataclass(frozen=True)
class StationLeave:
    """A station disassociating."""

    __slots__ = ("seq", "time", "user_id")

    seq: int
    time: float
    user_id: str

    def __reduce__(self) -> Tuple[Any, ...]:
        return (StationLeave, (self.seq, self.time, self.user_id))


@dataclass(frozen=True)
class StatsReport:
    """A periodic rate report for one associated station."""

    __slots__ = ("seq", "time", "user_id", "mean_rate")

    seq: int
    time: float
    user_id: str
    #: Observed mean rate (bytes/second) since the last report.
    mean_rate: float

    def __reduce__(self) -> Tuple[Any, ...]:
        return (
            StatsReport, (self.seq, self.time, self.user_id, self.mean_rate)
        )


ServiceEvent = Union[StationJoin, StationLeave, StatsReport]
