"""Fixed problem populations shared by the tests.

``high_mode_population`` makes the same draws, in the same order, as the
benchmark's high-mode workload: d=3 with m 10-50, thin first layers and
contrasts up to 1e3, where the precision tiers decide correctness.
"""

import math

import numpy as np

from helmrad.problem import ProblemSpec

# fault (c): refinement with the double factors diverges here; taken as
# it stands, the answer is wrong by a factor of 1e21 or more
FAULT_C = dict(dimension=3, mode=30, omega=7.086389133912954,
               boundary_coefficient=[1.0, 0.0],
               jump_points=[0.0, 0.05638264574284964, 0.631148806017453, 1.0],
               speeds=[10.155648231717109, 0.22163251877829607,
                       0.13984743380345396])
# fault (d): mpmath's dense LU called this system numerically singular
FAULT_D = dict(dimension=3, mode=20, omega=0.5605376570828529,
               boundary_coefficient=[1.0, 0.0],
               jump_points=[0.0, 0.17974365144767035, 0.9037845024235195,
                            0.9054173266933417, 1.0],
               speeds=[0.5888156532791181, 9.618509570750803,
                       0.5340690479615751, 1.408578525350417])

# accepted by the recursion's own rerun at 66 digits, with A_2 wrong by
# 4.9e-3 relative (draw 35 of the wide sweep over the validated domain)
S35 = dict(dimension=3, mode=9, omega=0.10966058234766524,
           boundary_coefficient=[1.0, 0.0],
           jump_points=[0.0, 0.9998689203491512, 1.0],
           speeds=[9.167185700130128, 0.05721307044791071])

# specs validate accepts, at speeds 1e-300/1e300 or 1e-150/1e150 with
# g = 1, and the typed refusal each meets: the banded route's w^{2,1}
# vanishes (DegenerateNormaliser), or omega/c, or k r, leaves the double
# range (OverflowError, from the field evaluator)
EXTREME = [
    (dict(dimension=d, mode=m, omega=omega, boundary_coefficient=[1.0, 0.0],
          jump_points=[0.0, 0.5, 1.0], speeds=list(c)), refusal)
    for d, m, omega, c, refusal in [
        (3, 0, 1e-300, (1e-300, 1e300), "OverflowError"),
        (3, 0, 1e100, (1e-300, 1e300), "OverflowError"),
        (3, 0, 1e-300, (1e300, 1e-300), "OverflowError"),
        (3, 0, 1e-300, (1e150, 1e-150), "OverflowError"),
        (3, 2, 1e-300, (1e-300, 1e300), "DegenerateNormaliser"),
        (3, 2, 1e100, (1e-300, 1e300), "DegenerateNormaliser"),
        (3, 2, 1e100, (1e300, 1e-300), "OverflowError"),
        (3, 2, 3.0, (1e-150, 1e150), "DegenerateNormaliser"),
        (3, 20, 1e-300, (1e-300, 1e300), "DegenerateNormaliser"),
        (3, 20, 3.0, (1e-300, 1e300), "DegenerateNormaliser"),
        (3, 20, 1e100, (1e-300, 1e300), "DegenerateNormaliser"),
        (3, 20, 1e100, (1e300, 1e-300), "OverflowError"),
        (3, 20, 1e-300, (1e-150, 1e150), "DegenerateNormaliser"),
        (3, 20, 3.0, (1e-150, 1e150), "DegenerateNormaliser"),
        (3, 20, 1e100, (1e-150, 1e150), "DegenerateNormaliser"),
        (1, 0, 1e-300, (1e300, 1e-300), "OverflowError"),
        (1, 0, 1e-300, (1e150, 1e-150), "OverflowError"),
    ]]
EXTREME_IDS = [f"d{doc['dimension']}-m{doc['mode']}-w{doc['omega']:g}"
               f"-c{doc['speeds'][0]:g}" for doc, _ in EXTREME]

HIGH_MODE_SEED = 7204


def _doc(m, omega, x, c):
    return dict(dimension=3, mode=int(m), omega=float(omega),
                boundary_coefficient=[1.0, 0.0],
                jump_points=[float(v) for v in x],
                speeds=[float(v) for v in c])


def _high_mode_doc(rng) -> dict:
    """m 10-50, n 0-4, omega 0.5-20 log-uniform; one draw in three puts
    the first jump point at 1e-8; speeds log-uniform in [10^-1.5, 10^1.5]."""
    m = int(rng.integers(10, 51))
    n = int(rng.integers(0, 5))
    omega = float(math.exp(rng.uniform(math.log(0.5), math.log(20.0))))
    cuts = sorted(float(v) for v in rng.uniform(0.02, 0.98, size=n))
    if n and rng.random() < 1.0 / 3.0:
        cuts[0] = 1e-8
    c = 10.0 ** rng.uniform(-1.5, 1.5, size=n + 1)
    return _doc(m, omega, (0.0, *cuts, 1.0), c)


def high_mode_population(size: int = 36) -> list[ProblemSpec]:
    """Profile (0, .5, 1), speeds (1, 2), omega 3 at m = 10, 20, 30, 50,
    the specs of faults (c) and (d), then draws at ``HIGH_MODE_SEED``."""
    docs = [_doc(m, 3.0, (0.0, 0.5, 1.0), (1.0, 2.0))
            for m in (10, 20, 30, 50)] + [FAULT_C, FAULT_D]
    rng = np.random.default_rng(HIGH_MODE_SEED)
    docs += [_high_mode_doc(rng) for _ in range(size - len(docs))]
    return [ProblemSpec.from_dict(doc) for doc in docs]
