"""Transient-container lifetime models.

The paper derives lifetime CDFs from the Google cluster trace under three
safety margins (Figure 1, Table 1) and drives its EC2 experiments by sampling
container lifetimes from those CDFs (§5.1.1). This module provides:

* :class:`PercentileLifetimeModel` — an inverse-CDF model pinned to the
  paper's Table 1 percentile anchors, used by all engine experiments so that
  the eviction regimes match the paper exactly;
* :class:`EmpiricalLifetimeModel` — built from lifetimes our own trace
  analysis extracts (Figure 1 reproduction);
* :class:`ExponentialLifetimeModel` and :class:`NoEvictionModel` for
  ablations and the "none" eviction rate.
"""

from __future__ import annotations

import bisect
import enum
import math
from typing import Optional, Sequence

import numpy as np

MINUTES = 60.0


class LifetimeModel:
    """Samples transient-container lifetimes in seconds."""

    def sample(self, rng: np.random.Generator) -> float:
        raise NotImplementedError

    def sample_at(self, now: float, rng: np.random.Generator) -> float:
        """Lifetime for a container launched at ``now``.

        Time-homogeneous models ignore the launch time and delegate to
        :meth:`sample` — the path every resource-manager launch takes.
        Launch-time-dependent models (:class:`WaveLifetimeModel`)
        override this and reject plain :meth:`sample` calls.
        """
        return self.sample(rng)

    def cdf(self, t_seconds: float) -> float:
        """Fraction of containers with lifetime <= ``t_seconds``."""
        raise NotImplementedError


class NoEvictionModel(LifetimeModel):
    """Containers never evicted — the paper's "none" eviction rate."""

    def sample(self, rng: np.random.Generator) -> float:
        return math.inf

    def cdf(self, t_seconds: float) -> float:
        return 0.0

    def __repr__(self) -> str:
        return "NoEvictionModel()"


class ExponentialLifetimeModel(LifetimeModel):
    """Memoryless lifetimes with the given mean (seconds)."""

    def __init__(self, mean_seconds: float) -> None:
        if mean_seconds <= 0:
            raise ValueError("mean lifetime must be positive")
        self.mean_seconds = mean_seconds

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.exponential(self.mean_seconds))

    def cdf(self, t_seconds: float) -> float:
        if t_seconds <= 0:
            return 0.0
        return 1.0 - math.exp(-t_seconds / self.mean_seconds)

    def __repr__(self) -> str:
        return f"ExponentialLifetimeModel(mean={self.mean_seconds:.0f}s)"


class PercentileLifetimeModel(LifetimeModel):
    """Inverse-CDF sampling through percentile anchor points.

    Between anchors the quantile function interpolates linearly in
    log-lifetime, which matches the heavy-tailed shape of the Figure 1 CDFs.
    Anchors are ``(fraction, lifetime_seconds)`` pairs; an implicit
    ``(0, min_lifetime)`` and ``(1, max_lifetime)`` bracket the range.
    """

    def __init__(self, anchors: Sequence[tuple[float, float]],
                 min_lifetime: float = 0.5 * MINUTES,
                 max_lifetime: Optional[float] = None,
                 name: str = "percentile") -> None:
        pts = sorted(anchors)
        if not pts:
            raise ValueError("need at least one percentile anchor")
        for frac, life in pts:
            if not 0.0 < frac < 1.0:
                raise ValueError(f"anchor fraction {frac} outside (0, 1)")
            if life <= 0:
                raise ValueError("anchor lifetimes must be positive")
        lifetimes = [life for _, life in pts]
        if lifetimes != sorted(lifetimes):
            raise ValueError("anchor lifetimes must be non-decreasing")
        if max_lifetime is None:
            # Extrapolate the tail one more log-step beyond the last anchor.
            max_lifetime = lifetimes[-1] * 3.0
        if min_lifetime > lifetimes[0]:
            min_lifetime = lifetimes[0]
        self.name = name
        self._fracs = [0.0] + [f for f, _ in pts] + [1.0]
        self._logs = ([math.log(min_lifetime)]
                      + [math.log(life) for life in lifetimes]
                      + [math.log(max_lifetime)])

    def quantile(self, u: float) -> float:
        """Lifetime (seconds) at cumulative fraction ``u``."""
        if not 0.0 <= u <= 1.0:
            raise ValueError("quantile fraction must lie in [0, 1]")
        idx = bisect.bisect_right(self._fracs, u) - 1
        if idx >= len(self._fracs) - 1:
            return math.exp(self._logs[-1])
        f0, f1 = self._fracs[idx], self._fracs[idx + 1]
        g0, g1 = self._logs[idx], self._logs[idx + 1]
        w = 0.0 if f1 == f0 else (u - f0) / (f1 - f0)
        return math.exp(g0 + w * (g1 - g0))

    def sample(self, rng: np.random.Generator) -> float:
        return self.quantile(float(rng.random()))

    def cdf(self, t_seconds: float) -> float:
        if t_seconds <= math.exp(self._logs[0]):
            return 0.0
        if t_seconds >= math.exp(self._logs[-1]):
            return 1.0
        log_t = math.log(t_seconds)
        idx = bisect.bisect_right(self._logs, log_t) - 1
        g0, g1 = self._logs[idx], self._logs[idx + 1]
        f0, f1 = self._fracs[idx], self._fracs[idx + 1]
        w = 0.0 if g1 == g0 else (log_t - g0) / (g1 - g0)
        return f0 + w * (f1 - f0)

    def __repr__(self) -> str:
        return f"PercentileLifetimeModel({self.name})"


class EmpiricalLifetimeModel(LifetimeModel):
    """Resamples from observed lifetimes (seconds)."""

    def __init__(self, lifetimes_seconds: Sequence[float],
                 name: str = "empirical") -> None:
        if len(lifetimes_seconds) == 0:
            raise ValueError("need at least one observed lifetime")
        arr = np.asarray(sorted(lifetimes_seconds), dtype=float)
        if np.any(arr <= 0):
            raise ValueError("lifetimes must be positive")
        self._sorted = arr
        self.name = name

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.choice(self._sorted))

    def cdf(self, t_seconds: float) -> float:
        return float(np.searchsorted(self._sorted, t_seconds, side="right")
                     / len(self._sorted))

    def percentile(self, q: float) -> float:
        """q-th percentile (0-100) of the observed lifetimes."""
        return float(np.percentile(self._sorted, q))

    def __repr__(self) -> str:
        return f"EmpiricalLifetimeModel({self.name}, n={len(self._sorted)})"


class WaveLifetimeModel(LifetimeModel):
    """Lifetimes pinned to a cluster-wide schedule of eviction waves.

    The multi-tenant layer (:mod:`repro.cluster.tenancy`) models transient
    reclamation as *correlated waves*: at known times the latency-critical
    side reclaims memory across the whole datacenter at once, so every
    co-located job loses containers in the same tick. ``waves`` is a
    sequence of ``(offset_seconds, severity)`` pairs, offsets measured from
    the start of the job's simulation; a container alive at a wave dies in
    it with probability ``severity``, otherwise survives to face the next
    wave. A container that survives every wave lives forever.

    Sampling is launch-time aware: the resource manager calls
    :meth:`sample_at` with the container's launch time so replacements
    provisioned mid-run still die exactly on wave boundaries. The plain
    :meth:`sample` entry point is therefore ill-posed once any wave is
    scheduled — it used to silently assume launch at time zero, which
    made every mid-run replacement die too early — and now raises
    :class:`~repro.errors.ModelError` unless the schedule is empty.
    """

    def __init__(self, waves: Sequence[tuple[float, float]]) -> None:
        pts = sorted((float(t), float(s)) for t, s in waves)
        for t, severity in pts:
            if not t >= 0.0:
                raise ValueError("wave offsets must be non-negative")
            if not 0.0 < severity <= 1.0:
                raise ValueError("wave severity must lie in (0, 1]")
        self.waves = tuple(pts)
        # Waves are sorted, so the ones elapsed by any time form a
        # prefix: _survive[k] is the survival product over the first k,
        # multiplied in wave order.
        self._offsets = [t for t, _ in pts]
        self._survive = [1.0]
        for _, severity in pts:
            self._survive.append(self._survive[-1] * (1.0 - severity))

    def sample_at(self, now: float, rng: np.random.Generator) -> float:
        """Lifetime (seconds from ``now``) for a container launched at
        ``now``: the delay until the first wave that claims it."""
        for t, severity in self.waves:
            if t <= now:
                continue
            if severity >= 1.0 or float(rng.random()) < severity:
                return t - now
        return math.inf

    def sample(self, rng: np.random.Generator) -> float:
        if self.waves:
            from repro.errors import ModelError
            raise ModelError(
                "WaveLifetimeModel lifetimes depend on launch time; "
                "call sample_at(now, rng) instead of sample()")
        return math.inf

    def cdf(self, t_seconds: float) -> float:
        """Probability a container launched at time zero dies by
        ``t_seconds``: one minus the survival product over elapsed waves."""
        if t_seconds != t_seconds:
            return 0.0  # NaN: no wave has elapsed
        elapsed = bisect.bisect_right(self._offsets, t_seconds)
        return 1.0 - self._survive[elapsed]

    def __repr__(self) -> str:
        return f"WaveLifetimeModel(waves={len(self.waves)})"


class EvictionRate(enum.Enum):
    """The paper's four eviction regimes (Figure 1 / Table 1).

    Each maps a Borg-style safety margin to the Table 1 lifetime percentiles:
    0.1% margin = high eviction, 1% = medium, 5% = low.
    """

    NONE = "none"
    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"

    @property
    def safety_margin(self) -> Optional[float]:
        return {EvictionRate.NONE: None, EvictionRate.LOW: 0.05,
                EvictionRate.MEDIUM: 0.01, EvictionRate.HIGH: 0.001}[self]

    def lifetime_model(self) -> LifetimeModel:
        """Lifetime model pinned to the paper's Table 1 percentiles."""
        if self is EvictionRate.NONE:
            return NoEvictionModel()
        anchors = {
            EvictionRate.HIGH: [(0.10, 1 * MINUTES), (0.50, 2 * MINUTES),
                                (0.90, 19 * MINUTES)],
            EvictionRate.MEDIUM: [(0.10, 1 * MINUTES), (0.50, 10 * MINUTES),
                                  (0.90, 64 * MINUTES)],
            EvictionRate.LOW: [(0.10, 1 * MINUTES), (0.50, 20 * MINUTES),
                               (0.90, 276 * MINUTES)],
        }[self]
        return PercentileLifetimeModel(anchors, name=self.value)


#: Table 1 of the paper: (safety margin, percentile) -> lifetime minutes.
TABLE1_LIFETIME_MINUTES = {
    ("0.1%", 10): 1, ("0.1%", 50): 2, ("0.1%", 90): 19,
    ("1%", 10): 1, ("1%", 50): 10, ("1%", 90): 64,
    ("5%", 10): 1, ("5%", 50): 20, ("5%", 90): 276,
}

#: Table 2 of the paper: safety margin -> collected idle memory fraction of
#: total memory allocated to LC jobs ("baseline" collects all idle memory).
TABLE2_COLLECTED_MEMORY = {
    "baseline": 0.260, "0.1%": 0.259, "1%": 0.253, "5%": 0.227,
}
