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
        if hours < 0:
            raise ValueError(f"negative duration {hours!r}")
        mu = np.log(self.median_bytes * max(hours, 1e-6))
        return rng.lognormal(mean=mu, sigma=self.sigma, size=n)


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

        The realms with positive weight draw in one ``lognormal`` call, in
        realm order: the same draws as one :meth:`VolumeModel.sample` per
        such realm.
        """
        weights = np.asarray(realm_weights, dtype=float)
        if weights.shape != (N_REALMS,):
            raise ValueError(f"expected {N_REALMS} realm weights, got {weights.shape}")
        if np.count_nonzero(weights >= 0) < N_REALMS:
            raise ValueError("realm weights must be non-negative")
        hours = duration_seconds / 3600.0
        if hours < 0:
            raise ValueError(f"negative duration {hours!r}")
        drawn = weights > 0
        mu = np.log(self._medians[drawn] * max(hours, 1e-6))
        volumes = np.zeros(N_REALMS)
        volumes[drawn] = rng.lognormal(mu, self._sigmas[drawn]) * weights[drawn]
        return volumes
