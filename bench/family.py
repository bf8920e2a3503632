"""Seeded inputs for the benchmark workloads.

The scaled family is a diffusive consensus network built with the public
``make_consensus_network``: a ring of ``n`` agents plus seeded chords,
B = R = I, Q = 30 I, a banded gain mask and K0 = 10 (I o mask), as in the
6-agent builtins. Scenarios are written with ``save_scenario`` so the CLI
reads them back through the normal parser.

Exploration differs from the builtins on purpose. The builtin probe
(0.5-50 rad/s, dt 5e-5, 10 ms windows, 2x unknowns windows) leaves the
data rank-deficient once n grows: on a 12-agent ring with a band-1 mask it
gave rank 168 against 222 unknowns. Raising the frequency cap to
200 rad/s, with dt 1e-4 and 5 ms windows, reached rank 222, so the
recorded workload uses those settings (module constants below).
"""

import hashlib

import numpy as np

from structlqr.experiments import (ExplorationConfig, ScenarioSpec,
                                   SolverConfig, make_consensus_network)
from structlqr.learning import required_samples
from structlqr.structure import SparsityMask

DT = 1e-4
WINDOW = 5e-3
FREQ_MAX = 200.0
TOL = 1e-3  # stop when the change in P falls below this, as in the builtins


def banded_mask(n: int, half_bandwidth: int) -> SparsityMask:
    idx = np.arange(n)
    return SparsityMask((np.abs(idx[:, None] - idx[None, :])
                         <= half_bandwidth).astype(float))


def ring_network_scenario(name: str, n: int, network_seed: int, seed: int,
                          chords: int = 0,
                          half_bandwidth: int = 1) -> ScenarioSpec:
    """Ring of n agents plus ``chords`` long-range couplings.

    ``network_seed`` draws the couplings and ``seed`` draws x0 and the
    exploration seed. The exploration window count is twice the regression
    unknowns n(n+1)/2 + n*m, the same margin the builtins use.
    """
    rng = np.random.default_rng(network_seed)
    couplings = {(i, (i + 1) % n): float(rng.uniform(1.0, 3.0))
                 for i in range(n)}
    while len(couplings) < n + chords:
        i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
        key = (min(i, j), max(i, j))
        if j - i in (1, -1, n - 1, 1 - n) or key in couplings:
            continue
        couplings[key] = float(rng.uniform(0.5, 1.5))
    net = make_consensus_network(n, couplings)
    rng = np.random.default_rng(seed)
    mask = banded_mask(n, half_bandwidth)
    unknowns = n * (n + 1) // 2 + n * n
    windows = max(2 * unknowns, required_samples(n, mask))
    return ScenarioSpec(
        name=name, A=net.A, B=net.B, Q=30.0 * np.eye(n), R=np.eye(n),
        mask=mask, x0=rng.uniform(0.2, 1.0, size=n), dt=DT,
        exploration=ExplorationConfig(
            seed=int(rng.integers(2**31)), duration=windows * WINDOW,
            window=WINDOW, num_sinusoids=100, freq_min=0.5,
            freq_max=FREQ_MAX, amplitude=100.0, substeps=1),
        solver=SolverConfig(tol=TOL, max_iter=30, rank_tol=1e-12),
        initial_gain=10.0 * (np.eye(n) * mask.indicator))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def array_digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]
