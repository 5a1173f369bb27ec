"""Differential execution of scenario programs.

One generated program runs exactly like a catalog scenario, through the
one column runner :func:`repro.validate.matrix.run_column`: once against
the original binary on the source-OS harness (the baseline, shared across
target OSes) and once per synthesized target-OS driver, classified by
:func:`repro.validate.differ.classify_observations`.  The matrix samples
a fixed 11-scenario slice of the input space; this module records
arbitrary sampled points of the full program space as
:class:`ProgramRun`\\ s.
"""

from dataclasses import dataclass, field

from repro.net.traffic import ScenarioProgram
from repro.validate.differ import is_unexplained
from repro.validate.matrix import expected_status, run_column


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
        account for (:func:`~repro.validate.differ.is_unexplained`)."""
        return is_unexplained(self.verdict, self.expected)

    def to_dict(self):
        return {"driver": self.driver, "target_os": self.target_os,
                "program_name": self.program_name, "seed": self.seed,
                "verdict": self.verdict, "expected": self.expected,
                "steps": self.steps,
                "divergences": [d.to_dict() for d in self.divergences],
                "candidate_error": self.candidate_error,
                "program": self.program}


def run_program_column(artifact, os_names, programs,
                       exec_backend="compiled"):
    """All (program x target OS) runs for one driver's artifact, from
    :func:`repro.validate.matrix.run_column`.

    Returns ``(runs, baselines)``: the :class:`ProgramRun` list in
    program-outer, OS-inner order, and a map of program name -> baseline
    :class:`Observation` for every program that ran (the fuzz engine
    mines them for behavior coverage).
    """
    driver = artifact.name
    runs = []
    baselines = {}
    for program, os_name, baseline, outcome in run_column(
            artifact, os_names, programs, exec_backend=exec_backend):
        run = ProgramRun(driver=driver, target_os=os_name,
                         program_name=program.name, seed=program.seed,
                         verdict="skipped",
                         expected=expected_status(driver, os_name),
                         steps=len(program.steps))
        if outcome is not None:
            baselines[program.name] = baseline
            run.verdict = outcome.verdict
            run.divergences = outcome.divergences
            run.candidate_error = outcome.candidate_error
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
