"""Differential execution of scenario programs.

One generated program runs exactly like a catalog scenario: once against
the original binary on the source-OS harness (the baseline, shared across
target OSes) and once per synthesized target-OS driver, with the two
observations classified by the same
:func:`repro.validate.differ.classify_observations` rule the validation
matrix uses.  The matrix samples a fixed 11-scenario slice of the input
space; this module runs arbitrary sampled points of the full program
space through identical machinery.
"""

from dataclasses import dataclass, field

from repro.net.traffic import ScenarioProgram
from repro.validate.differ import Divergence, classify_observations
from repro.validate.matrix import expected_status
from repro.validate.observe import OriginalDut, SynthesizedDut
from repro.validate.scenarios import run_scenario


@dataclass
class ProgramRun:
    """One program x one driver x one target OS, classified."""

    driver: str
    target_os: str
    program_name: str
    seed: int
    verdict: str              # 'match' | 'divergent' | 'unsupported' | 'skipped'
    expected: str = "equivalent"
    steps: int = 0
    divergences: list = field(default_factory=list)
    candidate_error: str = ""
    #: serialized program, carried on non-matching runs so the failure
    #: replays from this record alone
    program: dict = None

    @property
    def unexplained(self):
        """True when this run is a finding the matrix semantics cannot
        account for: behavioral divergence anywhere, or an unsupported
        result where equivalence was expected."""
        if self.verdict == "divergent":
            return True
        return self.verdict == "unsupported" \
            and self.expected == "equivalent"

    def to_dict(self):
        return {"driver": self.driver, "target_os": self.target_os,
                "program_name": self.program_name, "seed": self.seed,
                "verdict": self.verdict, "expected": self.expected,
                "steps": self.steps,
                "divergences": [d.to_dict() for d in self.divergences],
                "candidate_error": self.candidate_error,
                "program": self.program}

    @classmethod
    def from_dict(cls, data):
        return cls(driver=data["driver"], target_os=data["target_os"],
                   program_name=data["program_name"], seed=data["seed"],
                   verdict=data["verdict"], expected=data["expected"],
                   steps=data["steps"],
                   divergences=[Divergence.from_dict(d)
                                for d in data["divergences"]],
                   candidate_error=data["candidate_error"],
                   program=data["program"])


def run_program_column(artifact, os_names, programs,
                       exec_backend="compiled"):
    """All (program x target OS) runs for one driver's artifact.

    Mirrors :func:`repro.validate.matrix.compute_column`: one baseline
    per program (the original binary), shared by every target OS; pure
    function of the artifact and programs; ``exec_backend`` names the
    execution tier on both sides.  Returns ``(runs, baselines)`` where
    ``baselines`` maps program name -> baseline :class:`Observation`
    (the fuzz engine mines them for behavior coverage).
    """
    driver = artifact.name
    supported = set(artifact.synthesized.entry_points)
    runs = []
    baselines = {}
    for program in programs:
        if not supported.issuperset(program.requires):
            for os_name in os_names:
                runs.append(ProgramRun(
                    driver=driver, target_os=os_name,
                    program_name=program.name, seed=program.seed,
                    verdict="skipped",
                    expected=expected_status(driver, os_name),
                    steps=len(program.steps)))
            continue
        baseline = run_scenario(
            OriginalDut(driver, exec_backend=exec_backend), program)
        baselines[program.name] = baseline
        for os_name in os_names:
            candidate = run_scenario(
                SynthesizedDut(artifact, os_name,
                               exec_backend=exec_backend), program)
            outcome = classify_observations(baseline, candidate)
            run = ProgramRun(
                driver=driver, target_os=os_name,
                program_name=program.name, seed=program.seed,
                verdict=outcome.verdict,
                expected=expected_status(driver, os_name),
                steps=len(program.steps),
                divergences=outcome.divergences,
                candidate_error=outcome.candidate_error)
            if not outcome.matched:
                run.program = program.to_dict()
            runs.append(run)
    return runs, baselines


def replay_program(program, driver, os_names, artifact,
                   exec_backend="compiled"):
    """Replay one (possibly deserialized) program differentially.

    The seed-replay workflow: load a serialized program (``dict`` or
    :class:`ScenarioProgram`), run it against ``driver`` on every OS in
    ``os_names``, and return the classified :class:`ProgramRun` list.
    """
    if isinstance(program, dict):
        program = ScenarioProgram.from_dict(program)
    runs, _baselines = run_program_column(artifact, os_names, [program],
                                          exec_backend=exec_backend)
    return runs
