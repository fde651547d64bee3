"""A log-distance path-loss RSSI model.

The default enterprise-WLAN strategy the paper criticizes associates each
station with the strongest-RSSI AP.  To implement that baseline the
simulator needs a radio model; the standard indoor log-distance form is
used::

    RSSI(d) = P_tx - PL_0 - 10 * n * log10(max(d, d_0) / d_0) + shadowing

with transmit power ``P_tx`` = 20 dBm, reference loss ``PL_0`` = 40 dB at
``d_0`` = 1 m, and path-loss exponent ``n`` = 3 (indoor with obstacles).
Optional log-normal shadowing models fading; the replay engine keeps it
deterministic per (user, session) via named RNG streams.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Mapping, Optional, Tuple

import numpy as np

from repro.trace.social import AccessPointInfo, BuildingInfo

TX_POWER_DBM = 20.0
REFERENCE_LOSS_DB = 40.0
REFERENCE_DISTANCE_M = 1.0
PATH_LOSS_EXPONENT = 3.0

#: Stations cannot decode below this; APs weaker than the floor are not
#: candidates for association.
SENSITIVITY_FLOOR_DBM = -90.0


def path_loss_rssi(
    distance: float,
    tx_power: float = TX_POWER_DBM,
    exponent: float = PATH_LOSS_EXPONENT,
    shadowing_db: float = 0.0,
) -> float:
    """Received signal strength (dBm) at ``distance`` meters."""
    if distance < 0:
        raise ValueError(f"negative distance {distance!r}")
    return float(_received_dbm(distance, tx_power, exponent, shadowing_db))


def _received_dbm(distance: Any, tx_power: float, exponent: float, shadowing_db: Any) -> Any:
    """The log-distance formula, elementwise over floats or arrays alike."""
    d = np.maximum(distance, REFERENCE_DISTANCE_M)
    loss = REFERENCE_LOSS_DB + 10.0 * exponent * np.log10(d / REFERENCE_DISTANCE_M)
    return tx_power - loss + shadowing_db


def rssi_map(
    position: Tuple[float, float],
    aps: Iterable[AccessPointInfo],
    rng: Optional[np.random.Generator] = None,
    shadowing_sigma_db: float = 0.0,
) -> Dict[str, float]:
    """RSSI from ``position`` to each AP, above the sensitivity floor.

    With ``rng`` and a positive ``shadowing_sigma_db``, i.i.d. log-normal
    shadowing is applied per AP, one ``normal`` draw per AP in ``aps``
    order, taken as one call.  APs below the floor are omitted; callers
    should treat an empty map as "no coverage here".
    """
    return ApPositions(aps).rssi_map(position, rng, shadowing_sigma_db)


class ApPositions:
    """The ids and coordinates of a fixed list of APs, as arrays, for
    the RSSI maps of many stations (:func:`rssi_map` for each)."""

    __slots__ = ("ap_ids", "x", "y")

    def __init__(self, aps: Iterable[AccessPointInfo]) -> None:
        aps = list(aps)
        self.ap_ids = [ap.ap_id for ap in aps]
        self.x = np.array([ap.position[0] for ap in aps], dtype=float)
        self.y = np.array([ap.position[1] for ap in aps], dtype=float)

    def rssi_map(
        self,
        position: Tuple[float, float],
        rng: Optional[np.random.Generator] = None,
        shadowing_sigma_db: float = 0.0,
    ) -> Dict[str, float]:
        """:func:`rssi_map` from ``position`` to these APs."""
        x, y = position
        shadow: Any = 0.0
        if rng is not None and shadowing_sigma_db > 0:
            shadow = rng.normal(0.0, shadowing_sigma_db, size=len(self.ap_ids))
        rssi = _received_dbm(
            np.hypot(x - self.x, y - self.y), TX_POWER_DBM, PATH_LOSS_EXPONENT, shadow
        )
        return {
            ap_id: value
            for ap_id, value in zip(self.ap_ids, rssi.tolist())
            if value >= SENSITIVITY_FLOOR_DBM
        }


def sample_position(
    building: BuildingInfo,
    rng: np.random.Generator,
    radius: float = 45.0,
) -> Tuple[float, float]:
    """A uniform random position inside the building's coverage disc."""
    if radius <= 0:
        raise ValueError(f"non-positive radius {radius!r}")
    angle = rng.random() * 2 * np.pi
    # sqrt for area-uniform sampling within the disc.
    r = radius * np.sqrt(rng.random())
    return (
        building.position[0] + float(r * np.cos(angle)),
        building.position[1] + float(r * np.sin(angle)),
    )


def strongest_ap(rssi: Mapping[str, float]) -> str:
    """The AP id with the strongest signal (id as deterministic tie-break)."""
    if not rssi:
        raise ValueError("empty RSSI map — no coverage")
    return max(rssi.items(), key=lambda item: (item[1], item[0]))[0]
