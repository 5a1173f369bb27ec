"""The fleet-scale switched fabric: switch semantics, workloads, fleet
determinism, and the switch-transparency differential.

The switch data path (learning + aging, flood-on-unknown, hairpin
filtering, bounded-queue drops, delivery-order determinism, runt policy)
is tested against hand-built frames; the fleet tests run real
synthesized endpoints from the warm artifact cache and assert the
fabric's core claims: same seed + topology => byte-identical canonical
report (across runs and across scheduler modes), and a driver cannot
tell a switched segment from a dedicated medium (the mirror verdict).
"""

import json
import random
import zlib

import pytest

from repro.eval.runner import get_cache
from repro.net import BROADCAST_MAC, Medium
from repro.net.crc import crc32_ethernet, crc32_ethernet_reference
from repro.net.fabric import (
    DEFAULT_QUEUE_DEPTH,
    EndpointProgram,
    FabricRun,
    FleetWorkload,
    SwitchNode,
    SwitchedDut,
    WORKLOADS,
    build_workload,
    canonical_fabric_json,
    fabric_mac,
    fleet_specs,
    mirror_verdict,
    run_fleet,
    run_mirrored_program,
)
from repro.net.traffic import ScenarioProgram, ScenarioStep
from repro.validate.observe import OriginalDut, SynthesizedDut
from repro.validate.scenarios import SCENARIOS, run_scenario

A, B, C, D = fabric_mac(0), fabric_mac(1), fabric_mac(2), fabric_mac(3)


def _frame(dst, src, payload=b"\x00" * 50):
    return dst + src + b"\x08\x00" + payload


class TestCrcEquivalence:
    def test_zlib_matches_reference_on_random_frames(self):
        rng = random.Random(0xC2C)
        for _ in range(64):
            data = bytes(rng.randrange(256)
                         for _ in range(rng.randrange(1, 1600)))
            assert crc32_ethernet(data) == crc32_ethernet_reference(data)

    def test_edge_lengths(self):
        for data in (b"", b"\x00", b"\xff" * 4, b"123456789"):
            assert crc32_ethernet(data) == crc32_ethernet_reference(data)
        # the classic CRC-32 check value
        assert crc32_ethernet(b"123456789") == 0xCBF43926

    def test_bytearray_and_memoryview_accepted(self):
        data = bytes(range(64))
        want = zlib.crc32(data) & 0xFFFFFFFF
        assert crc32_ethernet(bytearray(data)) == want
        assert crc32_ethernet(memoryview(data)) == want
        assert crc32_ethernet_reference(bytearray(data)) == want


class TestMediumBytearray:
    def test_transmit_normalizes_to_bytes(self):
        medium = Medium()
        medium.transmit(bytearray(b"x" * 60))
        assert medium.transmitted == [b"x" * 60]
        popped = medium.pop_transmitted()
        assert popped == [b"x" * 60]
        assert all(type(f) is bytes for f in popped)
        assert medium.transmitted == []

    def test_inject_normalizes_to_bytes(self):
        medium = Medium()
        sink = []
        medium.attach(type("Nic", (), {
            "receive_frame": staticmethod(sink.append)})())
        medium.inject(bytearray(b"z" * 60))
        assert sink == [b"z" * 60]
        assert type(sink[0]) is bytes


class TestSendToOp:
    def test_send_to_addresses_the_named_station(self):
        dut = OriginalDut("rtl8029")
        dut.boot()
        step = ScenarioStep("send_to", {"dst": C.hex(), "count": 2,
                                        "size": 96})
        step.execute(dut)
        frames = dut.medium.pop_transmitted()
        assert len(frames) == 2
        assert all(frame[0:6] == C for frame in frames)
        assert all(frame[6:12] == dut.mac for frame in frames)

    def test_send_to_round_trips(self):
        step = ScenarioStep("send_to", {"dst": B.hex(), "count": 1,
                                        "size": 64})
        assert ScenarioStep.from_list(step.to_list()) == step


class TestSwitchSemantics:
    def test_learning_and_unicast_forwarding(self):
        switch = SwitchNode(3)
        switch.switch_batch(0, [_frame(B, A)], now=0)      # A unknown -> B
        assert switch.lookup(A, 0) == 0
        assert switch.unknown_floods == 1
        switch.drain(1), switch.drain(2)
        switch.switch_batch(1, [_frame(A, B)], now=1)      # A is known now
        assert switch.lookup(B, 1) == 1
        assert switch.drain(0) == [_frame(A, B)]
        assert switch.drain(2) == []
        assert switch.unknown_floods == 1

    def test_aging_expires_entries(self):
        switch = SwitchNode(2, mac_age=4)
        switch.switch_batch(0, [_frame(B, A)], now=0)
        assert switch.lookup(A, 4) == 0
        assert switch.lookup(A, 5) is None                  # past mac_age
        assert switch.expire(5) == 1
        assert switch.aged_out == 1
        assert A not in switch.table

    def test_stale_relearn_counts_as_aged(self):
        # The batched scheduler only expires on event ticks; a stale entry
        # relearned before expire() ran must still count as aged so both
        # modes report identical aging counters.
        switch = SwitchNode(2, mac_age=4)
        switch.switch_batch(0, [_frame(B, A)], now=0)
        switch.switch_batch(0, [_frame(B, A)], now=9)
        assert switch.aged_out == 1
        assert switch.lookup(A, 9) == 0

    def test_flood_on_unknown_walks_ports_in_order(self):
        switch = SwitchNode(4)
        switch.switch_batch(1, [_frame(D, A)], now=0)
        assert switch.drain(0) == [_frame(D, A)]
        assert switch.drain(2) == [_frame(D, A)]
        assert switch.drain(3) == [_frame(D, A)]
        assert switch.drain(1) == []                        # never hairpins

    def test_hairpin_filtered(self):
        switch = SwitchNode(3)
        switch.switch_batch(0, [_frame(B, A)], now=0)       # learn A@0
        switch.switch_batch(0, [_frame(C, B)], now=0)       # learn B@0 too
        for port in range(3):
            switch.drain(port)
        switch.switch_batch(0, [_frame(A, C)], now=0)       # dst on ingress
        assert switch.filtered == 1
        assert switch.pending() == 0

    def test_bounded_queue_drop_accounting(self):
        switch = SwitchNode(2, queue_depth=2)
        frames = [_frame(BROADCAST_MAC, A, bytes([i]) * 50)
                  for i in range(5)]
        switch.switch_batch(0, frames, now=0)
        assert len(switch.ports[1].queue) == 2
        assert switch.ports[1].drops == 3
        assert switch.stats()["queue_drops"] == 3
        assert switch.drain(1) == frames[:2]                # FIFO survivors

    def test_broadcast_vs_unicast_delivery_order_deterministic(self):
        def run():
            switch = SwitchNode(4)
            switch.switch_batch(2, [_frame(A, C)], now=0)   # learn C@2
            for port in range(4):
                switch.drain(port)
            switch.switch_batch(0, [_frame(BROADCAST_MAC, A),
                                    _frame(C, A),
                                    _frame(BROADCAST_MAC, A)], now=1)
            return [(port, [f.hex() for f in switch.drain(port)])
                    for port in range(4)]
        first, second = run(), run()
        assert first == second
        # port 2 sees broadcast, unicast, broadcast in arrival order
        assert [f[:24] for port, fs in first for f in fs
                if port == 2] == [(BROADCAST_MAC + A).hex(), (C + A).hex(),
                                  (BROADCAST_MAC + A).hex()]

    def test_runt_policy(self):
        switch = SwitchNode(2)
        switch.switch_batch(0, [b"\xff" * 5], now=0)        # no dst: drop
        assert switch.runts_dropped == 1
        assert switch.pending() == 0
        switch.switch_batch(0, [B + b"\xaa" * 2], now=0)    # dst, no src
        assert switch.frames_switched == 1
        assert switch.table == {}                           # not learned
        assert len(switch.drain(1)) == 1
        switch.switch_batch(0, [_frame(B, A)], now=0)       # full header
        assert switch.lookup(A, 0) == 0

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match=">= 2 ports"):
            SwitchNode(1)
        with pytest.raises(ValueError, match="queue_depth"):
            SwitchNode(2, queue_depth=0)
        with pytest.raises(ValueError, match="mac_age"):
            SwitchNode(2, mac_age=0)

    def test_fabric_run_defaults_and_unknown_mode(self):
        """Scheduler and queue depth are arguments only: ``None`` means
        ``"batched"`` and the default depth; an unknown mode is loud."""
        run = FabricRun([object(), object()])
        assert run.mode == "batched"
        assert run.switch.queue_depth == DEFAULT_QUEUE_DEPTH
        with pytest.raises(ValueError, match="unknown fabric mode"):
            FabricRun([object(), object()], mode="bogus")


class TestWorkloads:
    def test_builders_are_pure_functions_of_count_and_seed(self):
        for name in WORKLOADS:
            one = build_workload(name, 8, 42)
            two = build_workload(name, 8, 42)
            assert one.to_json() == two.to_json(), name
            assert one.digest() == two.digest(), name
            other = build_workload(name, 8, 43)
            assert one.digest() != other.digest(), name

    def test_workload_round_trips(self):
        plan = build_workload("churn", 6, 7)
        again = FleetWorkload.from_dict(json.loads(plan.to_json()))
        assert again.to_json() == plan.to_json()
        assert again.count == 6

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown fleet workload"):
            build_workload("ddos", 4, 0)

    def test_all_pairs_never_self_addresses(self):
        plan = build_workload("all_pairs", 12, 5)
        for index, slot in enumerate(plan.slots):
            own = fabric_mac(index).hex()
            for step in slot.program.steps:
                if step.op == "send_to":
                    assert step.params["dst"] != own


class TestFleetSpecs:
    def test_specs_skip_unsupported_cells(self):
        from repro.validate.matrix import EXPECTED_UNSUPPORTED
        specs = fleet_specs(32)
        assert len(specs) == 32
        for spec in specs:
            assert (spec.driver, spec.os_name) not in EXPECTED_UNSUPPORTED

    def test_specs_cycle_every_supported_cell(self):
        specs = fleet_specs(28)                             # 2 x 14 cells
        cells = {(s.driver, s.os_name) for s in specs}
        assert len(cells) == 14


@pytest.fixture(scope="module")
def cache():
    return get_cache()


class TestFleetRuns:
    def _report(self, cache, plan, **kwargs):
        return run_fleet(plan, orchestrator=cache, **kwargs)

    def test_modes_agree_and_reruns_are_byte_identical(self, cache):
        plan = build_workload("saturation", 4, 1234)
        batched = self._report(cache, plan, mode="batched")
        lockstep = self._report(cache, plan, mode="lockstep")
        again = self._report(cache, plan, mode="batched")
        assert batched["switch"]["frames_switched"] > 0
        assert canonical_fabric_json(batched) \
            == canonical_fabric_json(lockstep)
        assert canonical_fabric_json(batched) \
            == canonical_fabric_json(again)
        assert batched["volatile"]["mode"] == "batched"
        assert lockstep["volatile"]["mode"] == "lockstep"

    def test_link_flap_mid_burst_three_endpoints(self, cache):
        # Endpoint 1 pulls its cable between two bursts from endpoint 0;
        # the fleet keeps running, the drops are accounted, and both
        # schedulers tell the byte-identical story.
        def talk(i, peer):
            return ScenarioStep("send_to", {"dst": fabric_mac(peer).hex(),
                                            "count": 2, "size": 96})
        slots = (
            EndpointProgram(ScenarioProgram(
                name="flap-sender", seed=0,
                steps=(talk(0, 1), talk(0, 1), ScenarioStep("service", {})),
                description="t"), start=0, stride=3),
            EndpointProgram(ScenarioProgram(
                name="flap-victim", seed=0,
                steps=(talk(1, 0),
                       ScenarioStep("link_flap",
                                    {"size": 64, "frames_down": 2}),
                       ScenarioStep("service", {})),
                description="t"), start=1, stride=3),
            EndpointProgram(ScenarioProgram(
                name="flap-bystander", seed=0,
                steps=(talk(2, 0), ScenarioStep("service", {})),
                description="t"), start=2, stride=3),
        )
        plan = FleetWorkload("flap3", 77, slots)
        batched = self._report(cache, plan, mode="batched")
        lockstep = self._report(cache, plan, mode="lockstep")
        assert canonical_fabric_json(batched) \
            == canonical_fabric_json(lockstep)
        assert batched["totals"]["step_errors"] == 0
        assert batched["totals"]["link_drops"] > 0
        assert batched["switch"]["frames_switched"] > 0

    def test_incast_fills_the_victim_queue(self, cache):
        plan = build_workload("incast", 6, 11)
        report = self._report(cache, plan, queue_depth=2)
        assert report["switch"]["queue_drops"] > 0
        assert report["topology"]["queue_depth"] == 2
        assert report["totals"]["step_errors"] == 0

    def test_report_shape_and_per_driver_aggregates(self, cache):
        plan = build_workload("saturation", 4, 9)
        report = self._report(cache, plan)
        assert report["schema_version"] == 2
        assert report["workload"]["digest"] == plan.digest()
        assert report["topology"]["ports"] == 4
        assert len(report["endpoints"]) == 4
        assert sum(cell["endpoints"]
                   for cell in report["per_driver"].values()) == 4
        for record in report["endpoints"]:
            assert record["driver"] in report["per_driver"]
            assert "instrs_retired" in record
            assert "calls" in record
        assert report["volatile"]["packets_per_second"] >= 0.0


MIRROR_PROGRAM = ScenarioProgram(
    name="mirror-transparency", seed=0, steps=(
        ScenarioStep("send_burst", {"size": 128, "count": 2}),
        ScenarioStep("inject_burst", {"size": 96, "count": 2}),
        ScenarioStep("quiet_burst", {"size": 64, "count": 2}),
        ScenarioStep("service", {}),
        ScenarioStep("inject_tagged", {"dst": "station", "tag": 7}),
        ScenarioStep("bidirectional", {"size": 80, "rounds": 2,
                                       "pattern": [1, 2]}),
        ScenarioStep("query_mac", {}),
    ), description="fabric transparency check")


#: Every driver (winsim) x the mixed-op program and every catalog
#: program.  The mixed-op program keeps the bare driver id.
MIRROR_CASES = [
    pytest.param(driver, program,
                 id=driver if program is MIRROR_PROGRAM
                 else "%s-%s" % (driver, program.name))
    for driver in ("pcnet", "rtl8029", "rtl8139", "smc91c111")
    for program in (MIRROR_PROGRAM,) + tuple(SCENARIOS)]


def _count_arrivals(dut):
    """Record every wire-side arrival ``dut`` is handed (both RX paths)."""
    arrivals = []
    for name in ("inject", "inject_quiet"):
        def counted(frame, receive=getattr(dut, name)):
            arrivals.append(frame)
            return receive(frame)
        setattr(dut, name, counted)
    return arrivals


class TestMirrorDifferential:
    @pytest.mark.parametrize("driver,program", MIRROR_CASES)
    def test_fabric_is_invisible_to_the_driver(self, cache, driver,
                                               program):
        artifact = cache.run(driver)

        def make_dut():
            return SynthesizedDut(artifact, "winsim",
                                  exec_backend="compiled")
        verdict, dedicated, mirrored = mirror_verdict(make_dut, program)
        assert dedicated.ok and mirrored.ok
        assert verdict.verdict == "match", verdict.divergences

        # Every arrival crossed the switch: a wrapper that handed frames
        # straight to the driver would match too, with nothing delivered.
        direct = make_dut()
        arrivals = _count_arrivals(direct)
        run_scenario(direct, program)
        switched = SwitchedDut(make_dut())
        assert run_scenario(switched, program) == mirrored
        assert switched.switch.ports[0].delivered == len(arrivals)

    def test_mirror_reports_driver_errors_like_run_scenario(self, cache):
        artifact = cache.run("rtl8029")

        class Exploding:
            mac = fabric_mac(0)
            peer = fabric_mac(1)

            def boot(self):
                raise RuntimeError("boom")
        dut = SynthesizedDut(artifact, "winsim", exec_backend="compiled")
        dut.boot = Exploding().boot
        obs = run_mirrored_program(dut, MIRROR_PROGRAM)
        assert not obs.ok
        assert obs.error == "RuntimeError"
