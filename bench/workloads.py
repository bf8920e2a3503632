"""The three benchmark workloads: set-up, one timed op, output checks.

The constructor builds the inputs from the benchmark seed; it and the
warm-up op are the set-up the benchmark times. ``prepare_checks`` then
computes the reference gains, outside that time. ``op`` is the only timed
code; ``check`` runs after it and returns the list of failed output checks
and the gain error. Every call into structlqr goes through a module
attribute looked up at call time, so an installed tracer sees it.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np

import structlqr.cli
import structlqr.experiments
import structlqr.learning
import structlqr.system
from family import array_digest, digest, ring_network_scenario

# The scaled networks are fixed and the benchmark seed draws x0 and the
# exploration signal. With the couplings drawn per seed, the structured
# iteration took 5 or 6 steps depending on the seed (n = 20 and n = 40,
# seeds 0-19), which alone moved the op time by about 7%.
NETWORK_SEED = 0

OUTPUT_FILES = ("report.json", "gains.csv", "convergence.csv", "trajectory.csv")


def oracle_structured_gain(spec):
    """Structured policy iteration with scipy's Bartels-Stewart solver.

    Same update and stopping rule as ``kleinman_structured``, but the
    Lyapunov solve shares no code with structlqr.
    """
    from scipy.linalg import solve_continuous_lyapunov

    A, B, Q, R = (np.asarray(M, float) for M in (spec.A, spec.B, spec.Q, spec.R))
    ind = spec.mask.indicator
    RinvBt = np.linalg.solve(R, B.T)
    K = np.asarray(spec.initial_gain, float)
    P_prev = None
    for _ in range(spec.solver.max_iter):
        P = solve_continuous_lyapunov((A - B @ K).T, -(Q + K.T @ R @ K))
        P = 0.5 * (P + P.T)
        K = (RinvBt @ P) * ind
        if P_prev is not None and np.linalg.norm(P - P_prev) < spec.solver.tol:
            return K
        P_prev = P
    raise RuntimeError(f"oracle iteration did not converge on {spec.name}")


def _files_digest(out_dir):
    h = hashlib.sha256()
    for name in OUTPUT_FILES:
        h.update((Path(out_dir) / name).read_bytes())
    return h.hexdigest()


class CliWorkload:
    """Ops are in-process ``structlqr.cli.main`` calls writing to --out.

    Checks: exit code 0, no gain entry off the mask, gain within ``gain_tol``
    of the reference, and the four output files byte-identical across ops
    with the same scenario and seed (acceptance criterion 8).

    ``calibration`` maps a timing ("op", "setup") to the child.py kernel
    that tracks its bottleneck; those timings are scaled to a reference
    machine speed. Timings without one are reported as measured.
    """

    gain_tol = None
    data_driven = False
    calibration = {}

    def __init__(self, workdir):
        self.workdir = Path(workdir)
        self.specs = {}         # scenario -> ScenarioSpec
        self.references = {}    # scenario -> reference gain
        self.first_digest = {}  # scenario -> output digest of its first op
        self.inputs = {}        # input name -> digest of its scenario text

    def prepare_checks(self):
        self.references = {name: oracle_structured_gain(spec)
                           for name, spec in self.specs.items()}

    def scenario_for(self, k):
        raise NotImplementedError

    def argv(self, scenario, out_dir):
        raise NotImplementedError

    def op(self, k):
        scenario = self.scenario_for(k)
        out_dir = self.workdir / f"out-{k % 2}"
        with contextlib.redirect_stdout(io.StringIO()):
            code = structlqr.cli.main(self.argv(scenario, str(out_dir)))
        return scenario, out_dir, code

    def check(self, outcome):
        scenario, out_dir, code = outcome
        if code != 0:
            return [f"{scenario}: exit code {code}"], None
        report = json.loads((out_dir / "report.json").read_text())
        failures = []
        if report["structure_violation_max"] != 0:
            failures.append(f"{scenario}: structure violation "
                            f"{report['structure_violation_max']}")
        gain_err = float(np.linalg.norm(np.array(report["gain"])
                                        - self.references[scenario]))
        if not gain_err <= self.gain_tol:
            failures.append(f"{scenario}: gain error {gain_err:.3e} "
                            f"> {self.gain_tol:g}")
        files = _files_digest(out_dir)
        if self.first_digest.setdefault(scenario, files) != files:
            failures.append(f"{scenario}: output files differ from the "
                            "first op with the same scenario and seed")
        return failures, gain_err if self.data_driven else None


class SrlConsensus(CliWorkload):
    """``compare`` on the two 6-agent builtins, alternating, one seed.

    The paper's benchmark end to end; exploration simulation dominates.
    The gain tolerance is 1e-2: the acceptance suite's 1e-3 holds at the
    builtin seed 7, but over exploration seeds 0-39 the error reaches
    1.11e-3 (seed 9) and 3.27e-3 (seed 34) on consensus-a.
    """

    gain_tol = 1e-2
    data_driven = True
    # the RK4 loop and probe calls are ~90% of an op and of the warm-up
    calibration = {"op": "loop", "setup": "loop"}
    scenarios = ("consensus-a", "consensus-b")

    def __init__(self, workdir, seed):
        super().__init__(workdir)
        self.seed = seed % 2**32
        for name in self.scenarios:
            spec = self.specs[name] = structlqr.experiments.builtin_scenario(name)
            self.inputs[name] = digest(structlqr.experiments.save_scenario(spec)
                                       + f"seed {self.seed}\n")

    def scenario_for(self, k):
        return self.scenarios[k % 2]

    def argv(self, scenario, out_dir):
        return ["compare", "--scenario", scenario, "--seed", str(self.seed),
                "--out", out_dir]


class ModelBasedN40(CliWorkload):
    """``model-based`` on a 40-agent ring plus 20 chords; the seed draws x0.

    Banded mask (half-bandwidth 2); the n^2 x n^2 Kronecker Lyapunov work
    dominates. The CLI reads the scenario file back on every op.
    """

    gain_tol = 1e-8

    def __init__(self, workdir, seed):
        super().__init__(workdir)
        spec = self.specs["ring40"] = ring_network_scenario(
            "ring40", 40, NETWORK_SEED, seed, chords=20, half_bandwidth=2)
        self.path = self.workdir / "ring40.scn"
        self.inputs["ring40"] = digest(
            structlqr.experiments.save_scenario(spec, self.path))

    def scenario_for(self, k):
        return "ring40"

    def argv(self, scenario, out_dir):
        return ["model-based", "--scenario", str(self.path), "--out", out_dir]


class LearnRecordedN20:
    """Data-driven synthesis from a trajectory recorded at set-up.

    Ring of 20 agents, band-1 mask, 610 regression unknowns, 1220 windows
    of 5 ms at dt 1e-4 (61k samples). An op is ``assemble_data``, the
    rank report and ``srl_synthesize``, in the order ``run_srl`` calls
    them; nothing is simulated inside it. ``srl_synthesize`` raises when
    it does not converge, which fails the op. Checks: no gain entry off
    the mask, gain within ``gain_tol`` of the reference, and the same
    gain bytes on every op. The gain tolerance is 1e-2 against a measured
    2.7e-3 to 4.4e-3 over seeds 0-15, 31 and 33.
    """

    gain_tol = 1e-2
    # window assembly is half an op; the RK4 recording is ~80% of set-up
    calibration = {"op": "stream", "setup": "loop"}

    def __init__(self, workdir, seed):
        self.spec = ring_network_scenario("ring20", 20, NETWORK_SEED, seed,
                                          half_bandwidth=1)
        self.inputs = {"ring20": digest(
            structlqr.experiments.save_scenario(self.spec))}
        self.config = self.spec.srl_config()
        policy = structlqr.system.InputPolicy.feedback_with_probe(
            self.config.initial_gain, self.spec.probe())
        plant = structlqr.learning.hide_state_matrix(self.spec.system())
        self.traj = plant.simulate(policy, self.spec.x0,
                                   self.config.num_windows * self.config.window,
                                   dt=self.config.dt,
                                   substeps=self.config.substeps)
        self.reference = None
        self.first_gain = None

    def prepare_checks(self):
        # made by the simulator under test, so it changes with its arithmetic
        self.inputs["ring20-recording"] = array_digest(self.traj.states,
                                                       self.traj.inputs)
        self.reference = oracle_structured_gain(self.spec)

    def op(self, k):
        data = structlqr.learning.assemble_data(self.traj, self.config.window)
        structlqr.learning.check_rank(data, self.spec.mask,
                                      rank_tol=self.config.rank_tol)
        return structlqr.learning.srl_synthesize(data, self.config)

    def check(self, result):
        failures = []
        off = np.abs(result.K * (1.0 - self.spec.mask.indicator)).max()
        if off != 0:
            failures.append(f"ring20: structure violation {off}")
        gain_err = float(np.linalg.norm(result.K - self.reference))
        if not gain_err <= self.gain_tol:
            failures.append(f"ring20: gain error {gain_err:.3e} > {self.gain_tol:g}")
        gain = result.K.tobytes()
        if self.first_gain is None:
            self.first_gain = gain
        elif gain != self.first_gain:
            failures.append("ring20: gain differs from the first op")
        return failures, gain_err


WORKLOADS = {
    "srl-consensus": SrlConsensus,
    "model-based-n40": ModelBasedN40,
    "learn-recorded-n20": LearnRecordedN20,
}
