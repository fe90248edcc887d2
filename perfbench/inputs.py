"""Seeded problem generators owned by the benchmark.

``random_spec`` and ``random_alternating`` make the same draws, in the same
order, as the helpers behind ``helmrad verify`` and the acceptance tests, so
the base populations at ``BASE_SEED`` are the test populations.  They are
copied here so that moving or changing those helpers leaves the benchmark's
inputs unchanged.

Problems are returned as plain dicts in the ``ProblemSpec.to_dict`` layout;
``to_spec`` turns one into a helmrad object at the last moment.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

#: seed of the acceptance tests and of ``helmrad verify``
BASE_SEED = 20260823

#: relative jitter the workload seed applies to frequencies and jump points;
#: small enough that the population keeps its make-up (which specs escalate
#: to arbitrary precision), large enough that every input differs per seed
JITTER = 1e-3

#: oracle specs kept at their base inputs on every seed.  The recursion
#: route fails the backward-error check on spec 48 (d=3, m=5, n=1): 9e-9 at
#: the base, 5e-10 to 5e-8 once jittered, so jittered it would fail on some
#: seeds only.  At its base inputs it fails the same way on every seed
#: (fault f).
ORACLE_FIXED = (48,)

#: seed of the fixed high-mode population (see ``high_mode_population``)
HIGH_MODE_SEED = 7204

#: specs named in the description of faults (c) and (d)
FAULT_C = dict(dimension=3, mode=30, omega=7.086389133912954,
               boundary_coefficient=[1.0, 0.0],
               jump_points=[0.0, 0.05638264574284964, 0.631148806017453, 1.0],
               speeds=[10.155648231717109, 0.22163251877829607,
                       0.13984743380345396])
FAULT_D = dict(dimension=3, mode=20, omega=0.5605376570828529,
               boundary_coefficient=[1.0, 0.0],
               jump_points=[0.0, 0.17974365144767035, 0.9037845024235195,
                            0.9054173266933417, 1.0],
               speeds=[0.5888156532791181, 9.618509570750803,
                       0.5340690479615751, 1.408578525350417])


def _spec(d, m, omega, x, c):
    return dict(dimension=int(d), mode=int(m), omega=float(omega),
                boundary_coefficient=[1.0, 0.0],
                jump_points=[float(v) for v in x],
                speeds=[float(v) for v in c])


def random_spec(rng, n_max: int = 20) -> dict:
    """Mixed population: d in {1,3}, m 0-5, n 1-n_max, omega 1-50."""
    d = int(rng.choice([1, 3]))
    m = int(rng.integers(0, 6)) if d == 3 else 0
    n = int(rng.integers(1, n_max + 1))
    cuts = np.sort(rng.uniform(0.02, 0.98, size=n))
    x = (0.0, *map(float, cuts), 1.0)
    c = rng.uniform(0.5, 4.0, size=n + 1)
    omega = float(rng.uniform(1.0, 50.0))
    return _spec(d, m, omega, x, c)


def random_alternating(rng) -> dict:
    """Two-speed alternating d=3, m=0 profile, n 1-40, omega 1-60."""
    n = int(rng.integers(1, 41))
    q = float(rng.uniform(-0.8, 0.8))
    c1 = 1.0
    c2 = c1 * (1.0 + q) / (1.0 - q)
    speeds = [c1 if j % 2 == 0 else c2 for j in range(n + 1)]
    cuts = np.sort(rng.uniform(0.02, 0.98, size=n))
    x = (0.0, *map(float, cuts), 1.0)
    omega = float(rng.uniform(1.0, 60.0))
    return _spec(3, 0, omega, x, speeds)


def jitter(doc: dict, rng, eps: float = JITTER) -> dict:
    """Perturb omega and every interior jump point by a relative eps."""
    x = list(doc["jump_points"])
    for j in range(1, len(x) - 1):
        lo, hi = x[j - 1], x[j + 1]
        x[j] = min(max(x[j] * (1.0 + eps * (2.0 * rng.random() - 1.0)),
                       x[j] + 0.25 * (lo - x[j])), x[j] + 0.25 * (hi - x[j]))
    omega = doc["omega"] * (1.0 + eps * (2.0 * rng.random() - 1.0))
    return dict(doc, jump_points=x, omega=omega)


def oracle_population(seed: int, size: int = 200) -> list[dict]:
    """The test suite's oracle population, jittered by the workload seed.

    Specs listed in ``ORACLE_FIXED`` keep their base inputs.
    """
    base = np.random.default_rng(BASE_SEED)
    rng = np.random.default_rng([seed, 1])
    docs = [random_spec(base) for _ in range(size)]
    return [doc if i in ORACLE_FIXED else jitter(doc, rng)
            for i, doc in enumerate(docs)]


def alternating_population(seed: int, size: int = 500) -> list[dict]:
    """The test suite's alternating population, jittered by the seed."""
    base = np.random.default_rng(BASE_SEED)
    rng = np.random.default_rng([seed, 2])
    return [jitter(random_alternating(base), rng) for _ in range(size)]


def high_mode_spec(rng) -> dict:
    """d=3, m 10-50, n 0-4, omega 0.5-20 (log-uniform).

    One draw in three puts the first jump point at 1e-8; the others cut the
    interval uniformly.  Speeds are log-uniform in [10^-1.5, 10^1.5], so
    neighbouring layers differ by up to a factor 1e3 either way.
    """
    m = int(rng.integers(10, 51))
    n = int(rng.integers(0, 5))
    omega = float(math.exp(rng.uniform(math.log(0.5), math.log(20.0))))
    cuts = sorted(float(v) for v in rng.uniform(0.02, 0.98, size=n))
    if n and rng.random() < 1.0 / 3.0:
        cuts[0] = 1e-8
    c = 10.0 ** rng.uniform(-1.5, 1.5, size=n + 1)
    return _spec(3, m, omega, (0.0, *cuts, 1.0), c)


def high_mode_population(size: int = 36) -> list[dict]:
    """Fixed high-mode population; it does not depend on the workload seed.

    Four specs reproduce the mode table of the precision-ladder fault
    (profile (0, .5, 1), speeds (1, 2), omega 3, m = 10, 20, 30, 50); two
    are the specs of faults (c) and (d); the rest are drawn at
    ``HIGH_MODE_SEED``.
    """
    fixed = [_spec(3, m, 3.0, (0.0, 0.5, 1.0), (1.0, 2.0))
             for m in (10, 20, 30, 50)] + [dict(FAULT_C), dict(FAULT_D)]
    rng = np.random.default_rng(HIGH_MODE_SEED)
    return fixed + [high_mode_spec(rng) for _ in range(size - len(fixed))]


def to_spec(doc: dict):
    """helmrad ProblemSpec for a generated dict."""
    from helmrad.problem import ProblemSpec
    return ProblemSpec.from_dict(doc)


def companion_oracle(size: int = 60) -> list[dict]:
    """The first d=1 specs of the unjittered oracle population.

    Companion sets only give every run a value for every metric; cheap,
    escalation-free specs keep those values steady.
    """
    base = np.random.default_rng(BASE_SEED)
    docs = (random_spec(base) for _ in itertools.count())
    return list(itertools.islice((d for d in docs if d["dimension"] == 1),
                                 size))


def companion_alternating(size: int = 60) -> list[dict]:
    """The first alternating specs with n <= 8 of the unjittered population."""
    base = np.random.default_rng(BASE_SEED)
    docs = (random_alternating(base) for _ in itertools.count())
    return list(itertools.islice(
        (d for d in docs if len(d["speeds"]) <= 9), size))
