"""Temporally-constrained preemption model: an age-dependent hazard.

*Modeling The Temporally Constrained Preemptions of Transient Cloud VMs*
(PAPERS.md) observes that transient reclamations are not memoryless —
eviction risk concentrates at specific ages (billing-period boundaries,
correlated reclaim waves), so a constant-rate model systematically
mis-ranks containers. This module fits a piecewise-constant hazard
function over age bins from observed lifetimes, handling right-censoring
the Nelson–Aalen way: each interval contributes *exposure* to every bin
it lives through and a *death* only to the bin it was evicted in, and

``hazard[j] = deaths[j] / exposure[j]``.

Survival follows as ``S(t) = exp(-H(t))`` with ``H`` the integrated
hazard. The predictor learns online — the resource manager feeds every
witnessed eviction via :meth:`HazardPredictor.observe` — and falls back
to a prior (typically the static table) until it has seen
``min_observations`` uncensored lifetimes, so a cold-start run behaves
exactly like the static default. :meth:`HazardPredictor.from_analysis`
fits the Google-trace intervals of
:class:`~repro.trace.lifetimes.LifetimeAnalysis` directly.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.predict.base import DEFAULT_HORIZON, LifetimePredictor


class HazardPredictor(LifetimePredictor):
    """Piecewise-constant-hazard survival model fitted from intervals.

    Ages are discretized into ``bin_seconds`` bins up to ``max_age``;
    beyond ``max_age`` the hazard is extrapolated as constant (the last
    estimated bin). Refitting is lazy: observations mark the model dirty
    and the next query refits in one O(samples + bins) pass.
    :meth:`expected_remaining` is memoized on the clamped age until the
    next observation, so the prior must be a pure function of its
    (non-negative) age argument.
    """

    def __init__(self, bin_seconds: float = 30.0, max_age: float = 7200.0,
                 horizon: float = DEFAULT_HORIZON,
                 min_observations: int = 8,
                 prior: Optional[LifetimePredictor] = None) -> None:
        if bin_seconds <= 0:
            raise ValueError("bin_seconds must be positive")
        if max_age < bin_seconds:
            raise ValueError("max_age must cover at least one bin")
        self.bin_seconds = float(bin_seconds)
        self.max_age = float(max_age)
        self.horizon = horizon
        self.min_observations = min_observations
        self.prior = prior
        self._samples: list[tuple[float, bool]] = []
        self._evicted = 0
        self._dirty = True
        self._nbins = int(round(self.max_age / self.bin_seconds))
        self._hazard: list[float] = [0.0] * self._nbins
        self._cumhaz: list[float] = [0.0] * (self._nbins + 1)
        self._tail_hazard = 0.0
        #: clamped age -> ``expected_remaining``; :meth:`observe` clears it.
        self._remaining: dict[float, float] = {}

    # ------------------------------------------------------------------
    # observation stream

    def observe(self, lifetime: float, censored: bool = False) -> None:
        if lifetime < 0:
            raise ValueError("lifetime must be non-negative")
        self._samples.append((float(lifetime), not censored))
        if not censored:
            self._evicted += 1
        self._dirty = True
        self._remaining.clear()

    @property
    def observation_count(self) -> int:
        """Number of uncensored (actually-evicted) lifetimes seen."""
        return self._evicted

    @property
    def fitted(self) -> bool:
        """True once enough evictions have been seen to trust the fit."""
        return self._evicted >= self.min_observations

    @classmethod
    def from_analysis(cls, analysis, **kwargs) -> "HazardPredictor":
        """Fit from a :class:`~repro.trace.lifetimes.LifetimeAnalysis`:
        completed intervals are deaths, still-alive ones are censored at
        the trace end."""
        predictor = cls(**kwargs)
        for interval in analysis.intervals:
            if interval.evicted:
                predictor.observe(interval.lifetime)
            else:
                predictor.observe(
                    max(0.0, analysis.trace_duration - interval.start),
                    censored=True)
        return predictor

    # ------------------------------------------------------------------
    # fitting

    def _refit(self) -> None:
        self._dirty = False
        nbins, width = self._nbins, self.bin_seconds
        deaths = [0] * nbins
        # Difference array over bins each sample fully covers, plus the
        # partial remainder in the bin it ends in.
        full = [0] * (nbins + 1)
        partial = [0.0] * nbins
        for lifetime, evicted in self._samples:
            capped = min(lifetime, self.max_age)
            k = int(capped / width)  # bins 0..k-1 are fully covered
            if k > nbins:
                k = nbins
            full[0] += 1
            full[k] -= 1
            if k < nbins:
                partial[k] += capped - k * width
            if evicted and lifetime < self.max_age:
                # A death exactly on a bin edge belongs to the bin that
                # just ended, not the zero-exposure one starting there.
                db = int(max(capped - 1e-9, 0.0) / width)
                deaths[min(db, nbins - 1)] += 1
        hazard = self._hazard
        running = 0
        last = 0.0
        for j in range(nbins):
            running += full[j]
            exposure = running * width + partial[j]
            if exposure > 0.0:
                last = deaths[j] / exposure
            # Zero-exposure bins inherit the last estimate (no evidence
            # either way); before any exposure that is hazard 0.
            hazard[j] = last
        cumhaz = self._cumhaz
        for j in range(nbins):
            cumhaz[j + 1] = cumhaz[j] + hazard[j] * width
        self._tail_hazard = last

    def _cum(self, t: float) -> float:
        """Integrated hazard H(t)."""
        if self._dirty:
            self._refit()
        if t <= 0.0:
            return 0.0
        if t >= self.max_age:
            return (self._cumhaz[self._nbins]
                    + (t - self.max_age) * self._tail_hazard)
        j = int(t / self.bin_seconds)
        return self._cumhaz[j] + self._hazard[j] * (t - j * self.bin_seconds)

    # ------------------------------------------------------------------
    # the predictor protocol

    def survival(self, age: float, horizon: float) -> float:
        if not self.fitted:
            if self.prior is not None:
                return self.prior.survival(age, horizon)
            return 1.0
        age = max(0.0, age)
        delta = self._cum(age + max(0.0, horizon)) - self._cum(age)
        return math.exp(-delta)

    def expected_remaining(self, age: float) -> float:
        # Between two observations the answer depends only on the
        # clamped age: the fit, ``fitted`` and the prior change only in
        # observe(), which clears the memo. So each distinct age is
        # computed once per observation epoch, bit-identically.
        age = max(0.0, age)
        remaining = self._remaining.get(age)
        if remaining is None:
            remaining = self._remaining[age] = self._integrate(age)
        return remaining

    def _integrate(self, age: float) -> float:
        """Mean residual lifetime at a clamped ``age``, uncached."""
        if not self.fitted:
            if self.prior is not None:
                return self.prior.expected_remaining(age)
            return math.inf
        if self._dirty:
            self._refit()
        width = self.bin_seconds
        # Trapezoid over the binned range, then the constant-hazard tail
        # in closed form: remaining mass s at max_age contributes s / λ.
        total = 0.0
        prev = 1.0
        t = age
        while t < self.max_age:
            step = min(width, self.max_age - t)
            t += step
            cur = self.survival(age, t - age)
            total += 0.5 * (prev + cur) * step
            prev = cur
        tail_s = self.survival(age, max(0.0, self.max_age - age)) \
            if age < self.max_age else 1.0
        if age >= self.max_age:
            # Entirely inside the constant-hazard tail.
            if self._tail_hazard <= 0.0:
                return math.inf
            return 1.0 / self._tail_hazard
        if tail_s > 0.0:
            if self._tail_hazard <= 0.0:
                return math.inf
            total += tail_s / self._tail_hazard
        return total

    def quantile(self, q: float) -> float:
        """Age by which a fraction ``q`` of containers have been
        evicted (the fitted model's percentile table), by bisection on
        the integrated hazard."""
        if not 0.0 < q < 1.0:
            raise ValueError("q must be in (0, 1)")
        target = -math.log(1.0 - q)
        upper = self.max_age
        while self._cum(upper) < target:
            if self._tail_hazard <= 0.0:
                return math.inf
            upper *= 2.0
        lo, hi = 0.0, upper
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            if self._cum(mid) < target:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)
