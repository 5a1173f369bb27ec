"""The loop-until-dry differential fuzz driver.

Rounds of seeded program generation run across the driver corpus --
one driver column after another, as the validation matrix does -- and
every (program, driver, target OS) run is classified against the
original binary.  The loop stops when ``dry_rounds`` consecutive rounds
produce **zero new coverage and zero new unexplained divergences** (or
at the ``max_rounds`` safety bound): the sampled program space has gone
dry under the current vocabulary.

Coverage is behavioral, not just syntactic: besides the step-op unigrams
and bigrams a round's programs exercise, every baseline observation is
mined for features -- distinct (driver, operation, status) triples,
bucketed wire/delivery/interrupt counts, link drops, error-log activity
-- so a round only counts as progress when it made some driver *do*
something no earlier round did.
"""

import time
from dataclasses import dataclass, field

from repro.fuzz.differential import run_program_column
from repro.fuzz.generate import MAX_STEPS, MIN_STEPS, ProgramGenerator
from repro.validate.matrix import OS_ORDER


def _bucket(count):
    """Small-count bucketing for coverage features (exact up to 4, then
    coarse -- saturating detail where behavior actually differs)."""
    if count < 5:
        return str(count)
    if count < 10:
        return "5+"
    return "10+"


def program_features(program):
    """Syntactic coverage: the step ops and op bigrams of ``program``."""
    ops = [step.op for step in program.steps]
    features = {"op:%s" % op for op in ops}
    features.update("bigram:%s>%s" % pair for pair in zip(ops, ops[1:]))
    return features


def observation_features(driver, observation):
    """Behavioral coverage mined from one baseline observation."""
    features = set()
    prefix = "beh:%s" % driver
    for label, status in observation.statuses:
        features.add("%s:status:%s:0x%x" % (prefix, label, status))
    features.add("%s:wire:%s" % (prefix, _bucket(len(
        observation.wire_frames))))
    features.add("%s:delivered:%s" % (prefix, _bucket(len(
        observation.delivered))))
    features.add("%s:irq:%s" % (prefix, _bucket(observation.irq_count)))
    features.add("%s:drops:%s" % (prefix, _bucket(observation.link_drops)))
    if observation.error_log:
        features.add("%s:errlog" % prefix)
    if not observation.ok:
        features.add("%s:error:%s" % (prefix, observation.error))
    return features


@dataclass
class FuzzConfig:
    """One fuzz campaign's parameters (the replay key, minus the code)."""

    drivers: tuple = ()        # () -> the whole corpus
    os_names: tuple = tuple(OS_ORDER)
    base_seed: int = 0xC0FFEE
    programs_per_round: int = 4
    max_rounds: int = 8
    dry_rounds: int = 2
    min_steps: int = MIN_STEPS
    max_steps: int = MAX_STEPS
    strategy: str = "coverage"
    script: str = "default"
    exec_backend: str = None   # None runs the default tier, "compiled"

    def resolved_drivers(self):
        from repro.drivers import DRIVERS

        return tuple(sorted(DRIVERS)) if not self.drivers \
            else tuple(self.drivers)

    def to_dict(self):
        return {"drivers": list(self.resolved_drivers()),
                "os_names": list(self.os_names),
                "base_seed": self.base_seed,
                "programs_per_round": self.programs_per_round,
                "max_rounds": self.max_rounds,
                "dry_rounds": self.dry_rounds,
                "min_steps": self.min_steps,
                "max_steps": self.max_steps,
                "strategy": self.strategy,
                "script": self.script,
                "exec_backend": self.exec_backend}


@dataclass
class FuzzResult:
    """Everything one campaign produced, serialized by
    :mod:`repro.fuzz.artifact`."""

    config: dict
    programs: list = field(default_factory=list)   # program dicts, in order
    runs: list = field(default_factory=list)       # ProgramRun, in order
    coverage: set = field(default_factory=set)
    rounds: list = field(default_factory=list)     # per-round summaries
    wall_seconds: float = 0.0
    stopped: str = "dry"       # 'dry' | 'budget'

    def unexplained(self):
        return [run for run in self.runs if run.unexplained]

    def summary(self):
        verdicts = [run.verdict for run in self.runs]
        return {
            "programs": len(self.programs),
            "runs": len(self.runs),
            "steps": sum(run.steps for run in self.runs),
            "matched": verdicts.count("match"),
            "divergent": verdicts.count("divergent"),
            "unsupported": verdicts.count("unsupported"),
            "skipped": verdicts.count("skipped"),
            "unexplained": len(self.unexplained()),
            "coverage": len(self.coverage),
            "rounds": len(self.rounds),
            "stopped": self.stopped,
            "wall_seconds": round(self.wall_seconds, 3),
        }


class FuzzEngine:
    """Runs a differential fuzz campaign over the driver corpus."""

    def __init__(self, orchestrator=None, config=None):
        from repro.pipeline.orchestrator import PipelineOrchestrator

        self.orchestrator = orchestrator or PipelineOrchestrator()
        self.config = config or FuzzConfig()
        self.generator = ProgramGenerator(min_steps=self.config.min_steps,
                                          max_steps=self.config.max_steps)

    def run(self):
        """Fuzz until dry (or the round budget); returns a
        :class:`FuzzResult`."""
        config = self.config
        started = time.monotonic()
        drivers = config.resolved_drivers()
        result = FuzzResult(config=config.to_dict())
        dry_streak = 0
        seed_cursor = config.base_seed
        for round_index in range(config.max_rounds):
            programs = self.generator.programs(seed_cursor,
                                               config.programs_per_round)
            seed_cursor += config.programs_per_round
            round_runs, round_features = self._run_round(drivers, programs)
            for program in programs:
                round_features |= program_features(program)
            new_features = round_features - result.coverage
            new_unexplained = [run for run in round_runs
                               if run.unexplained]
            result.coverage |= round_features
            result.programs.extend(p.to_dict() for p in programs)
            result.runs.extend(round_runs)
            result.rounds.append({
                "round": round_index,
                "seeds": [p.seed for p in programs],
                "new_coverage": len(new_features),
                "new_divergences": len(new_unexplained),
            })
            if not new_features and not new_unexplained:
                dry_streak += 1
                if dry_streak >= config.dry_rounds:
                    break
            else:
                dry_streak = 0
        else:
            result.stopped = "budget"
        result.wall_seconds = time.monotonic() - started
        return result

    # ------------------------------------------------------------------

    def _run_round(self, drivers, programs):
        """One round's (driver x program x OS) runs, one driver column
        after another; returns ``(runs, features)``."""
        config = self.config
        runs = []
        features = set()
        for driver in drivers:
            artifact = self.orchestrator.run(driver, config.strategy,
                                             config.script)
            column, baselines = run_program_column(
                artifact, config.os_names, programs,
                exec_backend=config.exec_backend or "compiled")
            runs.extend(column)
            for observation in baselines.values():
                features |= observation_features(artifact.name,
                                                 observation)
        return runs, features


def run_fuzz(orchestrator=None, **config_kwargs):
    """One-call entry point: build and run a fuzz campaign."""
    config = FuzzConfig(**config_kwargs)
    return FuzzEngine(orchestrator=orchestrator, config=config).run()
