"""Soak mode: sustained differential saturation workloads.

Where the fuzz engine samples many short programs, soak drives one long
deterministic saturation program -- interleaved TX/RX bursts at ring-
pressure rates -- through the full differential harness, per driver and
per execution backend, and reports the packets moved plus the divergence-
free step count.  The equivalence claim is only as strong as the
sustained traffic it survives.  Soak measures no time: timing claims
belong to ``perfbench/``.
"""

from dataclasses import dataclass

from repro.net.traffic import ScenarioProgram, ScenarioStep
from repro.validate.matrix import run_column

#: Frames injected/sent per burst step of the saturation program.
BURST_FRAMES = 4
#: Payload size of the saturation bursts.
BURST_PAYLOAD = 256


def saturation_program(rounds=10, payload=BURST_PAYLOAD,
                       burst=BURST_FRAMES):
    """The soak workload: ``rounds`` repetitions of a TX burst, an RX
    burst, quiet ring pressure and a service drain.  Fully deterministic;
    every round moves ``3 * burst`` frames plus the drain."""
    cycle = (
        ScenarioStep("send_burst", {"size": payload, "count": burst}),
        ScenarioStep("inject_burst", {"size": payload, "count": burst}),
        ScenarioStep("quiet_burst", {"size": payload, "count": burst}),
        ScenarioStep("service", {}),
    )
    return ScenarioProgram(name="soak-%dx%d" % (rounds, burst),
                           seed=0, steps=cycle * rounds,
                           description="saturation soak workload")


@dataclass
class SoakRecord:
    """One (driver, backend) soak cell."""

    driver: str
    target_os: str
    backend: str
    steps: int
    divergence_free_steps: int
    divergences: int
    packets: int

    def to_dict(self):
        return {"driver": self.driver, "target_os": self.target_os,
                "backend": self.backend, "steps": self.steps,
                "divergence_free_steps": self.divergence_free_steps,
                "divergences": self.divergences, "packets": self.packets}


def soak_cell(artifact, os_name, backend, rounds=10):
    """Run the saturation program differentially for one driver on one
    target OS under one execution backend; returns a :class:`SoakRecord`.

    ``backend`` names the execution tier of both sides, exactly as in
    the matrix.
    """
    program = saturation_program(rounds=rounds)
    # the program requires no optional entry point, so it is never skipped
    ((_, _, baseline, outcome),) = run_column(
        artifact, (os_name,), [program], exec_backend=backend)
    steps = len(program.steps)
    return SoakRecord(
        driver=artifact.name, target_os=os_name, backend=backend,
        steps=steps, divergence_free_steps=steps if outcome.matched else 0,
        divergences=len(outcome.divergences),
        packets=len(baseline.wire_frames) + len(baseline.delivered))


def run_soak(orchestrator=None, drivers=None, os_name="winsim",
             backends=("compiled", "interp"), rounds=10,
             strategy="coverage", script="default"):
    """The full soak sweep: every driver x every execution backend.

    Returns a JSON-ready dict: per-driver per-backend records plus
    corpus-wide totals (programs run, steps, packets, divergences).
    """
    from repro.drivers import DRIVERS
    from repro.pipeline.orchestrator import PipelineOrchestrator

    orchestrator = orchestrator or PipelineOrchestrator()
    drivers = sorted(DRIVERS) if drivers is None else list(drivers)
    cells = {}
    totals = {"programs_run": 0, "steps": 0, "packets": 0,
              "divergences": 0}
    for driver in drivers:
        artifact = orchestrator.run(driver, strategy, script)
        cells[driver] = {}
        for backend in backends:
            record = soak_cell(artifact, os_name, backend, rounds=rounds)
            cells[driver][backend] = record.to_dict()
            totals["programs_run"] += 1
            totals["steps"] += record.steps
            totals["packets"] += record.packets
            totals["divergences"] += record.divergences
    return {"os_name": os_name, "rounds": rounds, "drivers": cells,
            "totals": totals}
