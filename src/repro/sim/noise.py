"""Deterministic noise models for channel service times.

Real links show run-to-run variation (DVFS, cache effects, background
traffic).  The simulator is noise-free by default so unit tests are exact;
experiments that want realistic scatter attach one of these jitter models to
their channels.  All models are driven by a seeded generator, so a run is
reproducible given its seed.

Each model also has ``floor(calls)``: a lower bound on every one of its
next ``calls`` multipliers, or None when it cannot know one.  The offline
static-share search uses the floors to bound a candidate's time without
simulating it; :func:`jitter_floor` applies them to any model.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def jitter_floor(model, calls: int) -> float | None:
    """Lower bound on ``model``'s next ``calls`` multipliers.

    No model (a noise-free channel) gives 1.0; a model without a
    ``floor`` method gives None, since an arbitrary callable may return
    anything.
    """
    if model is None:
        return 1.0
    floor = getattr(model, "floor", None)
    return None if floor is None else floor(calls)


@lru_cache(maxsize=1024)
def _lognormal_min(seed: int, mu: float, sigma: float, calls: int) -> float:
    """Smallest of the first ``calls`` draws of a fresh generator."""
    rng = np.random.default_rng(seed)
    return float(rng.lognormal(mu, sigma, size=calls).min())


class LognormalJitter:
    """Multiplicative lognormal jitter with mean 1.

    ``sigma`` is the log-space standard deviation; typical measured link
    variation corresponds to sigma in [0.005, 0.05].  :meth:`seeded`
    builds one whose generator is only created on the first draw.
    """

    def __init__(self, rng: np.random.Generator | None, sigma: float = 0.01) -> None:
        if sigma < 0:
            raise ValueError("sigma must be >= 0")
        self.rng = rng
        self._seed: int | None = None
        self.sigma = float(sigma)
        # E[lognormal(mu, sigma)] = exp(mu + sigma^2/2) == 1 for this mu:
        self._mu = -0.5 * self.sigma**2

    @classmethod
    def seeded(cls, seed: int, sigma: float = 0.01) -> "LognormalJitter":
        """Jitter drawing from ``np.random.default_rng(seed)``, created lazily.

        Draws the same sequence as ``LognormalJitter(default_rng(seed),
        sigma)``; ``rng`` stays None until the first draw, so a simulation
        that builds jitter for every channel pays for a generator only on
        the channels it uses.
        """
        jitter = cls(None, sigma)
        jitter._seed = int(seed)
        return jitter

    def __call__(self, nbytes: int) -> float:
        if self.sigma == 0:
            return 1.0
        rng = self.rng
        if rng is None:
            rng = self.rng = np.random.default_rng(self._seed)
        return float(rng.lognormal(self._mu, self.sigma))

    def floor(self, calls: int) -> float | None:
        """The exact minimum of the next ``calls`` draws (``calls >= 1``).

        Known only for a :meth:`seeded` jitter that has not drawn yet: its
        draws are the first ones of a fresh generator on its seed.
        """
        if self.sigma == 0:
            return 1.0
        if self.rng is not None or self._seed is None:
            return None
        return _lognormal_min(self._seed, self._mu, self.sigma, calls)


class BurstSlowdown:
    """Occasional slow transfers (straggler model).

    With probability ``prob`` a transfer is slowed by ``factor``; otherwise
    it is unaffected.  Used by failure-injection tests to check that the
    dynamic planner still beats single-path under stragglers.
    """

    def __init__(
        self, rng: np.random.Generator, prob: float = 0.01, factor: float = 3.0
    ) -> None:
        if not 0 <= prob <= 1:
            raise ValueError("prob must be in [0, 1]")
        if factor < 1:
            raise ValueError("factor must be >= 1")
        self.rng = rng
        self.prob = float(prob)
        self.factor = float(factor)

    def __call__(self, nbytes: int) -> float:
        return self.factor if self.rng.random() < self.prob else 1.0

    def floor(self, calls: int) -> float:
        return 1.0


class SizeDependentEfficiency:
    """Bandwidth efficiency that ramps up with message size.

    Real links only reach asymptotic bandwidth for large transfers; small
    transfers see protocol overhead beyond the fixed alpha.  The service
    demand is multiplied by ``1 + knee/nbytes`` so that transfers much larger
    than ``knee`` bytes are unaffected while small ones slow down.  This is
    one of the effects behind the paper's Observation 4 (the model
    over-estimates performance for small messages).
    """

    def __init__(self, knee_bytes: float = 256 * 1024) -> None:
        if knee_bytes < 0:
            raise ValueError("knee_bytes must be >= 0")
        self.knee_bytes = float(knee_bytes)

    def __call__(self, nbytes: int) -> float:
        if nbytes <= 0:
            return 1.0
        return 1.0 + self.knee_bytes / float(nbytes)

    def floor(self, calls: int) -> float:
        return 1.0


class LinearDrift:
    """Deterministic slow degradation of one channel's effective bandwidth.

    Models DVFS / thermal-throttling style drift: the service-demand
    multiplier ramps linearly from 1.0 to ``factor`` over ``ramp``
    invocations starting at invocation ``start`` (each fabric copy on the
    channel consults its jitter model exactly once), then holds at
    ``factor``.  A ``factor`` of ``1 / (1 - d)`` degrades the channel's
    effective bandwidth by the fraction ``d``; ``ramp=0`` gives a step
    change.  Purely counter-based, hence reproducible without a seed —
    the drift-detection benches rely on knowing exactly when the channel
    started lying to the calibrated model.
    """

    def __init__(self, factor: float, start: int = 0, ramp: int = 0) -> None:
        if factor <= 0:
            raise ValueError("factor must be > 0")
        if start < 0 or ramp < 0:
            raise ValueError("start and ramp must be >= 0")
        self.factor = float(factor)
        self.start = int(start)
        self.ramp = int(ramp)
        self.calls = 0

    def __call__(self, nbytes: int) -> float:
        self.calls += 1
        elapsed = self.calls - 1 - self.start  # 0 at the onset invocation
        if elapsed < 0:
            return 1.0
        progress = 1.0 if self.ramp == 0 else min(1.0, (elapsed + 1) / self.ramp)
        return 1.0 + (self.factor - 1.0) * progress

    def floor(self, calls: int) -> float:
        return min(1.0, self.factor)


class ComposedJitter:
    """Product of several jitter models."""

    def __init__(self, *models) -> None:
        self.models = models

    def __call__(self, nbytes: int) -> float:
        out = 1.0
        for m in self.models:
            out *= m(nbytes)
        return out

    def floor(self, calls: int) -> float | None:
        """Product of the parts' floors (every part draws once per call,
        and all floors here are >= 0); None if any part has none."""
        out = 1.0
        for m in self.models:
            f = jitter_floor(m, calls)
            if f is None:
                return None
            out *= f
        return out


__all__ = [
    "jitter_floor",
    "LognormalJitter",
    "BurstSlowdown",
    "SizeDependentEfficiency",
    "LinearDrift",
    "ComposedJitter",
]
