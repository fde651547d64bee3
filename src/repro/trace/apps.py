"""The six application realms of the paper and their traffic models.

Section III.A of the paper examines the top-30 applications by traffic
volume and folds them into six realms: IM, P2P, music, e-mail, video and
web-browsing.  Applications are identified from core-router flow logs "by
analyzing the port combination using certain heuristics" (paper ref [1]).

This module defines:

* :class:`AppRealm` — the six realms, in the paper's order (Fig. 8 x-axis);
* the canonical application → (protocol, port) tables used both by the
  synthetic flow generator and by the :class:`~repro.trace.classifier.
  PortClassifier` that re-identifies realms from ports (the generator and
  the classifier must agree for the analysis pipeline to be end-to-end);
* :class:`TrafficModel` — lognormal per-session volume models per realm,
  used by the generator to size flows.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np


class AppRealm(enum.IntEnum):
    """The paper's six application categories, in Fig. 8 order."""

    IM = 0
    P2P = 1
    MUSIC = 2
    EMAIL = 3
    VIDEO = 4
    WEB = 5

    @property
    def label(self) -> str:
        """Human-readable realm name (Fig. 8 axis label)."""
        return _LABELS[self]


_LABELS: Dict[AppRealm, str] = {
    AppRealm.IM: "IM",
    AppRealm.P2P: "P2P",
    AppRealm.MUSIC: "music",
    AppRealm.EMAIL: "email",
    AppRealm.VIDEO: "video",
    AppRealm.WEB: "browsing",
}

#: All realms in canonical order.
REALMS: Tuple[AppRealm, ...] = tuple(AppRealm)

#: Number of realms (the dimensionality of application-profile vectors).
N_REALMS: int = len(REALMS)


@dataclass(frozen=True)
class ApplicationSpec:
    """One concrete application: a name plus its identifying ports."""

    name: str
    realm: AppRealm
    protocol: str  # "tcp" or "udp"
    ports: Tuple[int, ...]


#: The concrete applications the synthetic campus runs.  Port numbers follow
#: the real-world services each application name suggests; what matters for
#: the reproduction is that the table is the *shared ground truth* between
#: flow generation and port-heuristic classification.
APPLICATIONS: Tuple[ApplicationSpec, ...] = (
    # IM
    ApplicationSpec("qq", AppRealm.IM, "udp", (8000, 4000)),
    ApplicationSpec("msn", AppRealm.IM, "tcp", (1863,)),
    ApplicationSpec("xmpp-chat", AppRealm.IM, "tcp", (5222, 5223)),
    ApplicationSpec("irc", AppRealm.IM, "tcp", (6667,)),
    # P2P
    ApplicationSpec("bittorrent", AppRealm.P2P, "tcp", (6881, 6882, 6883, 6889)),
    ApplicationSpec("emule", AppRealm.P2P, "tcp", (4662,)),
    ApplicationSpec("emule-kad", AppRealm.P2P, "udp", (4672,)),
    ApplicationSpec("xunlei", AppRealm.P2P, "tcp", (15000,)),
    # music
    ApplicationSpec("music-stream", AppRealm.MUSIC, "tcp", (8087,)),
    ApplicationSpec("shoutcast", AppRealm.MUSIC, "tcp", (8001,)),
    ApplicationSpec("daap", AppRealm.MUSIC, "tcp", (3689,)),
    # email
    ApplicationSpec("smtp", AppRealm.EMAIL, "tcp", (25, 587)),
    ApplicationSpec("pop3", AppRealm.EMAIL, "tcp", (110, 995)),
    ApplicationSpec("imap", AppRealm.EMAIL, "tcp", (143, 993)),
    # video
    ApplicationSpec("rtsp", AppRealm.VIDEO, "tcp", (554,)),
    ApplicationSpec("rtmp", AppRealm.VIDEO, "tcp", (1935,)),
    ApplicationSpec("pplive", AppRealm.VIDEO, "udp", (3951,)),
    ApplicationSpec("mms-stream", AppRealm.VIDEO, "tcp", (1755,)),
    # web-browsing
    ApplicationSpec("http", AppRealm.WEB, "tcp", (80, 8080)),
    ApplicationSpec("https", AppRealm.WEB, "tcp", (443,)),
)


def applications_for_realm(realm: AppRealm) -> List[ApplicationSpec]:
    """All concrete applications belonging to ``realm``."""
    return [app for app in APPLICATIONS if app.realm == realm]


def port_table() -> Dict[Tuple[str, int], AppRealm]:
    """The (protocol, port) → realm ground-truth mapping."""
    table: Dict[Tuple[str, int], AppRealm] = {}
    for app in APPLICATIONS:
        for port in app.ports:
            key = (app.protocol, port)
            if key in table and table[key] != app.realm:
                raise ValueError(f"port {key} claimed by two realms")
            table[key] = app.realm
    return table


@dataclass(frozen=True)
class VolumeModel:
    """Lognormal model of per-session bytes for one realm.

    ``median_bytes`` is the median per-hour volume a session of this realm
    generates; ``sigma`` the lognormal shape (heavier tail for P2P/video).
    """

    median_bytes: float
    sigma: float

    def sample(self, rng: np.random.Generator, hours: float, n: int = 1) -> np.ndarray:
        """Draw ``n`` session volumes for a session lasting ``hours``."""
        _check_hours(hours)
        mu = np.log(self.median_bytes * max(hours, 1e-6))
        return rng.lognormal(mean=mu, sigma=self.sigma, size=n)


def _check_hours(hours: float) -> None:
    """Reject a negative or NaN session length."""
    if not hours >= 0:
        raise ValueError(
            f"negative duration {hours!r}" if hours < 0 else "NaN duration"
        )


class TrafficModel:
    """Per-realm session-volume models for the synthetic campus.

    Medians are loosely calibrated to 2012-era campus traffic: video and
    P2P carry the most bytes, IM and e-mail the fewest.  The spread is kept
    within one order of magnitude on purpose — with a larger gap the heavy
    realms would dominate every user's *normalized* profile and erase the
    per-type interest differences the paper's clustering (Fig. 7/8)
    recovers.
    """

    DEFAULT_VOLUMES: Mapping[AppRealm, VolumeModel] = {
        AppRealm.IM: VolumeModel(median_bytes=10e6, sigma=0.7),
        AppRealm.P2P: VolumeModel(median_bytes=45e6, sigma=0.9),
        AppRealm.MUSIC: VolumeModel(median_bytes=25e6, sigma=0.7),
        AppRealm.EMAIL: VolumeModel(median_bytes=10e6, sigma=0.7),
        AppRealm.VIDEO: VolumeModel(median_bytes=50e6, sigma=0.8),
        AppRealm.WEB: VolumeModel(median_bytes=28e6, sigma=0.7),
    }

    def __init__(self, volumes: Mapping[AppRealm, VolumeModel] = None) -> None:
        self._volumes = dict(volumes if volumes is not None else self.DEFAULT_VOLUMES)
        missing = [realm for realm in REALMS if realm not in self._volumes]
        if missing:
            raise ValueError(f"traffic model missing realms: {missing}")
        self._medians = np.array([self._volumes[r].median_bytes for r in REALMS])
        self._sigmas = np.array([self._volumes[r].sigma for r in REALMS])

    def volume(self, realm: AppRealm) -> VolumeModel:
        """The volume model of one realm."""
        return self._volumes[realm]

    def sample_session_volumes(
        self,
        rng: np.random.Generator,
        realm_weights: Sequence[float],
        duration_seconds: float,
    ) -> np.ndarray:
        """Sample per-realm byte volumes for one session.

        ``realm_weights`` is the user's (possibly unnormalized) interest
        vector over the six realms; a realm's volume is its model draw
        scaled by the user's relative interest, so users of different types
        produce visibly different traffic mixes.

        The realms with positive weight draw one ``standard_normal(k)``
        call, in realm order, turned into volumes by
        :meth:`session_volumes`: the same draws and the same bits as one
        ``lognormal`` call over those realms (and as one
        :meth:`VolumeModel.sample` per such realm).
        """
        weights = np.asarray(realm_weights, dtype=float)
        if weights.shape != (N_REALMS,):
            raise ValueError(f"expected {N_REALMS} realm weights, got {weights.shape}")
        _check_weights(weights)
        _check_hours(duration_seconds / 3600.0)
        normals = rng.standard_normal(np.count_nonzero(weights > 0))
        volumes: np.ndarray = self.session_volumes(
            weights[np.newaxis], np.array([duration_seconds]), normals
        )[0]
        return volumes

    def session_volumes(
        self,
        realm_weights: np.ndarray,
        durations_seconds: np.ndarray,
        normals: np.ndarray,
    ) -> np.ndarray:
        """Per-realm volumes of many sessions from their drawn normals.

        Row ``i`` of ``realm_weights`` (shape ``(n, N_REALMS)``) is session
        ``i``'s interest vector and ``durations_seconds[i]`` its length;
        ``normals`` holds every session's standard normals, sessions in
        order and, within one, one per positive-weight realm in realm
        order.  A drawn realm's volume is ``exp(mu + sigma * z) * weight``
        with ``mu = log(median * max(hours, 1e-6))``: numpy's
        ``lognormal`` is ``exp(mean + sigma * standard_normal())`` in C,
        and :func:`math.exp` is that same C ``exp``, so the volumes equal
        :meth:`sample_session_volumes`' old one-``lognormal`` form bit for
        bit (``np.exp`` is not: its vector kernel rounds a few percent of
        these exponents differently).  The checks run once over all rows
        and reject exactly what the per-session checks reject.
        """
        weights = np.asarray(realm_weights, dtype=float)
        if weights.ndim != 2 or weights.shape[1] != N_REALMS:
            raise ValueError(
                f"expected (n, {N_REALMS}) realm weights, got {weights.shape}"
            )
        hours = np.asarray(durations_seconds, dtype=float) / 3600.0
        if hours.shape != weights.shape[:1]:
            raise ValueError("one duration per session")
        _check_weights(weights)
        valid = hours >= 0
        if not valid.all():
            _check_hours(float(hours[np.argmin(valid)]))
        drawn = weights > 0
        z = np.asarray(normals, dtype=float)
        if z.shape != (np.count_nonzero(drawn),):
            raise ValueError("one normal per drawn realm")
        scaled = (self._medians * np.maximum(hours, 1e-6)[:, np.newaxis])[drawn]
        sigmas = np.broadcast_to(self._sigmas, weights.shape)[drawn]
        exponents = np.log(scaled) + sigmas * z
        volumes = np.zeros(weights.shape)
        volumes[drawn] = (
            np.fromiter(map(math.exp, exponents.tolist()), float, len(exponents))
            * weights[drawn]
        )
        return volumes


def _check_weights(weights: np.ndarray) -> None:
    """Reject a negative or NaN realm weight."""
    if np.count_nonzero(weights >= 0) < weights.size:
        raise ValueError("realm weights must be non-negative")
