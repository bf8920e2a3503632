import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import random_stable_matrix
from structlqr import (InputPolicy, LtiSystem, SparsityMask, required_samples,
                       simulate, solve_lyapunov)
from structlqr.experiments import (BUILTIN_SCENARIOS, ExplorationConfig,
                                   ScenarioSpec, SolverConfig,
                                   builtin_scenario, parse_scenario,
                                   save_scenario)
from structlqr.system import _MAX_STEPS


@settings(max_examples=80, deadline=None)
@given(x=arrays(np.float64, st.integers(1, 8),
                elements=st.floats(-1e3, 1e3, allow_nan=False)))
def test_kron_vector_norm_identity(x):
    assert np.linalg.norm(np.kron(x, x)) == pytest.approx(
        np.linalg.norm(x) ** 2, rel=1e-12, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 6))
def test_lyapunov_residual_property(seed, n):
    rng = np.random.default_rng(seed)
    M = random_stable_matrix(rng, n)
    G = rng.standard_normal((n, n))
    S = G.T @ G
    P = solve_lyapunov(M, S)
    res = np.linalg.norm(M.T @ P + P @ M + S, "fro")
    assert res <= 1e-9 * (1.0 + np.linalg.norm(S, "fro"))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 5),
       m=st.integers(1, 5))
def test_required_samples_formula(seed, n, m):
    rng = np.random.default_rng(seed)
    ind = (rng.random((m, n)) < 0.6).astype(float)
    if ind.sum() == 0:
        ind[0, 0] = 1.0
    mask = SparsityMask(ind)
    assert required_samples(n, mask) == 2 * (n * (n + 1) // 2 + mask.nnz)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_simulation_sample_count_contract(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    sys = LtiSystem(A=random_stable_matrix(rng, n), B=np.eye(n))
    dt = float(rng.uniform(0.005, 0.05))
    steps = int(rng.integers(1, 40))
    horizon = steps * dt
    traj = simulate(sys, InputPolicy(), rng.standard_normal(n),
                    horizon, dt=dt, substeps=2)
    assert len(traj.times) == steps + 1


_BUILTIN_LINES = {name: save_scenario(builtin_scenario(name)).splitlines()
                  for name in BUILTIN_SCENARIOS}
_TOKENS = st.one_of(
    st.integers(-10**9, 10**9).map(str),
    st.floats(-1e6, 1e6, allow_nan=False).map(repr),
    st.from_regex(r"[A-Za-z][A-Za-z0-9_-]{0,8}", fullmatch=True))


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(BUILTIN_SCENARIOS), data=st.data())
def test_scenario_line_mutation_parses_or_raises_a_keyed_error(name, data):
    # a mutated builtin parses, or its error names the line it rejects or
    # the required line it misses
    lines = list(_BUILTIN_LINES[name])
    idx = data.draw(st.integers(0, len(lines) - 1))
    mutation = data.draw(st.sampled_from(["drop", "repeat", "replace"]))
    if mutation == "drop":
        del lines[idx]
    elif mutation == "repeat":
        lines.insert(idx, lines[idx])
    else:
        toks = lines[idx].split() or [""]
        toks[data.draw(st.integers(0, len(toks) - 1))] = data.draw(_TOKENS)
        lines[idx] = " ".join(toks)
    try:
        parse_scenario("\n".join(lines))
    except ValueError as exc:
        assert re.match(r"(line \d+: |missing )", str(exc)), str(exc)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_POSITIVE = st.floats(min_value=1e-300, max_value=1e300)
_BOUNDED = st.floats(-1.0, 1.0)


@st.composite
def _scenario_specs(draw):
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    mask = draw(arrays(np.float64, (m, n), elements=st.sampled_from([0.0, 1.0])))
    mask[draw(st.integers(0, m - 1)), draw(st.integers(0, n - 1))] = 1.0
    freq_min, freq_max = sorted(draw(st.lists(_POSITIVE, min_size=2,
                                              max_size=2)))
    # the exploration grid a scenario accepts: window = k dt with k >= 2
    # and duration = j windows, with k j substeps RK4 steps kept below
    # _MAX_STEPS, the most one exploration may take
    budget = _MAX_STEPS - 1
    substeps = draw(st.integers(1, budget // 2))
    k = draw(st.integers(2, budget // substeps))
    j = draw(st.integers(1, budget // (substeps * k)))
    dt = draw(st.floats(min_value=1e-300, max_value=1e290))
    # cost weights a scenario accepts: Q positive semidefinite, R definite
    G = draw(arrays(np.float64, (n, n), elements=_BOUNDED))
    H = draw(arrays(np.float64, (m, m), elements=_BOUNDED))
    return ScenarioSpec(
        name=draw(st.from_regex(r"[a-z][a-z0-9-]{0,10}", fullmatch=True)),
        A=draw(st.none() | arrays(np.float64, (n, n), elements=_FINITE)),
        B=draw(arrays(np.float64, (n, m), elements=_FINITE)),
        Q=G.T @ G, R=H.T @ H + np.eye(m),
        mask=SparsityMask(mask),
        x0=draw(arrays(np.float64, (n,), elements=st.floats(-1e150, 1e150))),
        dt=dt,
        exploration=ExplorationConfig(
            seed=draw(st.integers(0, 2**63 - 1)),
            duration=j * (k * dt), window=k * dt,
            num_sinusoids=draw(st.integers(1, 10**4)),
            freq_min=freq_min, freq_max=freq_max,
            amplitude=draw(_POSITIVE), substeps=substeps),
        solver=SolverConfig(tol=draw(_POSITIVE),
                            max_iter=draw(st.integers(1, 10**6)),
                            rank_tol=draw(st.floats(min_value=1e-300,
                                                    max_value=1.0,
                                                    exclude_max=True))),
        # K0 is zero off the mask
        initial_gain=mask * draw(arrays(np.float64, (m, n),
                                        elements=_FINITE)))


@settings(max_examples=100, deadline=None)
@given(spec=_scenario_specs())
def test_scenario_save_parse_save_is_byte_identical(spec):
    text = save_scenario(spec)
    assert save_scenario(parse_scenario(text)) == text


@settings(max_examples=100, deadline=None)
@given(spec=_scenario_specs(),
       key=st.sampled_from(["exploration window", "exploration duration"]),
       frac=st.floats(0.01, 0.99))
def test_off_grid_exploration_timing_names_its_line(spec, key, frac):
    # a window between two dt multiples, or a duration between two windows
    ex = spec.exploration
    if key == "exploration window":
        value = ex.window - frac * spec.dt
    else:
        value = ex.duration - frac * ex.window
    lines = save_scenario(spec).splitlines()
    idx = next(k for k, line in enumerate(lines)
               if line.rsplit(" ", 1)[0] == key)
    lines[idx] = f"{key} {value!r}"
    with pytest.raises(ValueError,
                       match=rf"^line {idx + 1}: {key} must be an integer "
                             "multiple"):
        parse_scenario("\n".join(lines))
