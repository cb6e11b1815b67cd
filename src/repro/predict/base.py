"""The lifetime-predictor protocol and the static-table default.

Pado's premise is acting on *estimated* transient lifetimes (§2.1, §6),
but estimation was previously hard-wired: the resource manager sampled a
static percentile table and nothing downstream ever saw a survival
estimate. This module defines the pluggable protocol every layer now
programs against:

* ``survival(age, horizon)`` — probability a container that has already
  lived ``age`` seconds survives ``horizon`` more;
* ``expected_remaining(age)`` — conditional mean residual lifetime;
* ``risk_rank(containers, now)`` — live containers ordered most-at-risk
  first, the input to the master's proactive re-replication hook.

:class:`StaticTablePredictor` wraps any
:class:`~repro.trace.models.LifetimeModel` CDF (the Table 1 percentile
tables included) and is the behavior-preserving default; the hazard and
portfolio predictors live in :mod:`repro.predict.hazard` and
:mod:`repro.predict.portfolio`.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional, Sequence

from repro.trace.models import LifetimeModel

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.cluster.resources import Container

#: Default look-ahead window (seconds) for eviction-probability queries —
#: roughly the time the master needs to push a container's outputs to a
#: safer home before the predicted eviction lands.
DEFAULT_HORIZON = 120.0

#: Upper bound (seconds) on numerical survival integration; beyond this a
#: model is treated as effectively eviction-free.
INTEGRATION_CAP = 4 * 24 * 3600.0


class LifetimePredictor:
    """Base class of the prediction protocol.

    Subclasses implement :meth:`survival` and :meth:`expected_remaining`;
    ranking and probability helpers are shared. Predictors that learn
    online additionally override :meth:`observe`, which the
    :class:`~repro.cluster.manager.ResourceManager` calls with every
    completed container lifetime it witnesses.
    """

    #: Default horizon for :meth:`eviction_probability` / :meth:`risk_rank`.
    horizon: float = DEFAULT_HORIZON

    def survival(self, age: float, horizon: float) -> float:
        """P(lifetime > age + horizon | lifetime > age), in [0, 1]."""
        raise NotImplementedError

    def expected_remaining(self, age: float) -> float:
        """Conditional mean residual lifetime (seconds) at ``age``;
        ``math.inf`` for effectively eviction-free resources."""
        raise NotImplementedError

    def eviction_probability(self, age: float,
                             horizon: Optional[float] = None) -> float:
        """P(evicted within ``horizon`` | alive at ``age``), clamped."""
        if horizon is None:
            horizon = self.horizon
        survival = self.survival(max(0.0, age), horizon)
        return min(1.0, max(0.0, 1.0 - survival))

    def risk_rank(self, containers: Sequence["Container"],
                  now: float) -> list:
        """Live containers ordered by eviction probability, highest
        first; ties break on container id for determinism."""
        return sorted(
            containers,
            key=lambda c: (-self.eviction_probability(
                max(0.0, now - c.launched_at)), c.container_id))

    def observe(self, lifetime: float, censored: bool = False) -> None:
        """Feed one observed container lifetime (no-op by default).

        ``censored=True`` marks a right-censored observation: the
        container was still alive when last seen, so ``lifetime`` is a
        lower bound.
        """


class StaticTablePredictor(LifetimePredictor):
    """The existing behavior as a predictor: condition a static
    :class:`~repro.trace.models.LifetimeModel` CDF on current age.

    ``survival(age, h) = S(age + h) / S(age)`` with ``S = 1 - cdf``.
    This is exactly what the paper's Table 1 percentile tables imply and
    is the behavior-preserving default everywhere a predictor is
    optional.
    """

    def __init__(self, model: LifetimeModel,
                 horizon: float = DEFAULT_HORIZON) -> None:
        self.model = model
        self.horizon = horizon

    def survival(self, age: float, horizon: float) -> float:
        age = max(0.0, age)
        return self._conditional(age, 1.0 - self.model.cdf(age), horizon)

    def _conditional(self, age: float, s_age: float,
                     horizon: float) -> float:
        """:meth:`survival` at a clamped ``age`` given ``S(age)``."""
        if s_age <= 0.0:
            return 0.0
        s_later = 1.0 - self.model.cdf(age + max(0.0, horizon))
        return min(1.0, max(0.0, s_later / s_age))

    def expected_remaining(self, age: float) -> float:
        # E[T - age | T > age] = integral of survival(age, u) du. Find a
        # cap where survival has effectively hit zero by doubling, then
        # integrate with the trapezoid rule. S(age) is the same for
        # every point, so it is computed once.
        age = max(0.0, age)
        s_age = 1.0 - self.model.cdf(age)
        cap = max(self.horizon, 60.0)
        while (self._conditional(age, s_age, cap) > 0.01
               and cap < INTEGRATION_CAP):
            cap *= 2.0
        if self._conditional(age, s_age, cap) > 0.5:
            # Survival never decays (e.g. NoEvictionModel): no finite mean.
            return math.inf
        steps = 256
        dt = cap / steps
        total = 0.0
        prev = 1.0
        for i in range(1, steps + 1):
            cur = self._conditional(age, s_age, i * dt)
            total += 0.5 * (prev + cur) * dt
            prev = cur
        return total


def make_predictor(name: Optional[str], model: LifetimeModel,
                   pools: Optional[Sequence] = None,
                   horizon: float = DEFAULT_HORIZON) -> LifetimePredictor:
    """Build a predictor by registry name.

    ``None`` or ``"static"`` wraps the cluster's lifetime model in the
    behavior-preserving :class:`StaticTablePredictor`. ``"hazard"``
    builds an online :class:`~repro.predict.hazard.HazardPredictor` with
    the static table as its cold-start prior. ``"portfolio"`` requires
    §6 transient pools and builds a
    :class:`~repro.predict.portfolio.PortfolioPredictor` over them.
    """
    if name is None or name == "static":
        return StaticTablePredictor(model, horizon=horizon)
    if name == "hazard":
        from repro.predict.hazard import HazardPredictor
        return HazardPredictor(horizon=horizon,
                               prior=StaticTablePredictor(model,
                                                          horizon=horizon))
    if name == "portfolio":
        if not pools:
            raise ValueError(
                "portfolio predictor needs transient pools; configure "
                "ClusterConfig.transient_pools or pick 'static'/'hazard'")
        from repro.predict.portfolio import PortfolioPredictor
        return PortfolioPredictor.from_pools(pools, horizon=horizon)
    raise ValueError(f"unknown predictor {name!r}; "
                     f"choose from static, hazard, portfolio")
