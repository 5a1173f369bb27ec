#!/usr/bin/env python
"""Run one driver cold with superblocks off and on, diff all the bytes.

The superblock-tier contract (``repro.ir.superblock``): fusing hot block
chains changes wall time only.  This script builds, twice -- once in
the ``"blocks"`` execution tier (compiled blocks, superblocks off), once
in ``"compiled"`` (superblocks on) -- a canonical JSON document covering
every consumer of the execution tiers:

* the **pipeline artifact** -- a cold reverse-engineering run's
  :class:`RunArtifact` canonical JSON (superblocks never fuse pipeline
  blocks, so this must be bit-for-bit stable);
* the **matrix column** -- the original binary's observations over the
  whole workload catalog on the compiled DBT tier, where hot chains
  actually dispatch;
* the **synthesized run** -- the recovered driver in the winsim
  template, the static-flavour consumer.

Any divergence prints the first differing canonical path and exits 1;
a run where the on-side never dispatched a chain is vacuous and also
fails, and so does one that never iterated a loop chain (every
driver's quick script makes at least one loop hot; rtl8029's remote-DMA
byte loop is the hottest), and, for the drivers that copy packets
through a data register (:data:`STREAMING_DRIVERS`), one that moved no
element by a stream transfer.  CI runs this with a fixed configuration
per driver and uploads both documents on mismatch.

Usage:
    PYTHONPATH=src python examples/superblocks_diff.py [options]

Options:
    --driver NAME   driver to run                    (default rtl8139)
    --script NAME   exercise script                  (default quick)
    --out-off P     write the superblocks-off canonical JSON here
    --out-on P      write the superblocks-on canonical JSON here
"""

import argparse
import json
import sys
import time

from repro.counters import counting
from repro.drivers import DRIVERS, build_driver, device_class
from repro.net import UdpWorkload
from repro.pipeline.artifact import build_artifact, canonical_json
from repro.revnic import RevNic, RevNicConfig
from repro.synth import synthesize
from repro.targetos import TARGET_OSES
from repro.templates import DmaNicTemplate
from repro.validate.observe import OriginalDut
from repro.validate.scenarios import SCENARIOS, run_scenario

MAC = b"\x52\x54\x00\xAA\xBB\xCC"
PEER = b"\x02\x00\x00\x00\x00\x01"

#: Drivers whose copy loops move packets through a device data register
#: (NE2000 remote DMA over ports, the SMC 91C111 DATA window over MMIO):
#: their on-side runs must stream.
STREAMING_DRIVERS = ("rtl8029", "smc91c111")


def run_matrix_column(name, exec_backend):
    """The original binary through the workload catalog."""
    observations = []
    for scenario in SCENARIOS:
        dut = OriginalDut(name, exec_backend=exec_backend)
        observations.append(run_scenario(dut, scenario).to_dict())
    return observations


def run_synthesized(artifact, exec_backend, packets=20):
    """The synthesized driver in the winsim template (static flavour)."""
    target = TARGET_OSES["winsim"](device_class(artifact.name), mac=MAC)
    template = DmaNicTemplate(artifact.synthesized, target,
                              original_image=artifact.image,
                              exec_backend=exec_backend)
    template.initialize()
    tx = UdpWorkload(MAC, PEER, 256)
    statuses = [template.send(tx.next_frame().to_bytes())
                for _ in range(packets)]
    rx = UdpWorkload(PEER, MAC, 128)
    delivered = []
    for _ in range(4):
        delivered.extend(template.inject_rx(rx.next_frame().to_bytes()))
    env = template.runtime.env
    return {
        "statuses": statuses,
        "wire": [f.hex() for f in target.medium.transmitted],
        "delivered": [f.hex() for f in delivered],
        "instrs_retired": env.instrs_retired,
        "ops_retired": env.ops_retired,
        "io_ops": env.io_ops,
        "irq_count": target.irq_count,
    }


def run_once(name, script, exec_backend):
    image = build_driver(name)
    config = RevNicConfig(driver_name=name, pci=device_class(name).PCI,
                          script=script)
    engine = RevNic(image, config)
    started = time.perf_counter()
    result = engine.run()
    artifact = build_artifact(config, result, synthesize(result))
    document = {
        "artifact": json.loads(canonical_json(artifact)),
        "matrix_column": run_matrix_column(name, exec_backend),
        "synthesized_run": run_synthesized(artifact, exec_backend),
    }
    elapsed = time.perf_counter() - started
    return json.dumps(document, indent=1, sort_keys=True), elapsed


def first_divergence(off_text, on_text):
    """Walk both canonical trees to the first differing path."""
    def walk(a, b, path):
        if type(a) is not type(b):
            return path or "/", a, b
        if isinstance(a, dict):
            for key in sorted(set(a) | set(b)):
                if key not in a or key not in b:
                    return "%s/%s" % (path, key), a.get(key), b.get(key)
                found = walk(a[key], b[key], "%s/%s" % (path, key))
                if found:
                    return found
            return None
        if isinstance(a, list):
            if len(a) != len(b):
                return path or "/", "len=%d" % len(a), "len=%d" % len(b)
            for index, (left, right) in enumerate(zip(a, b)):
                found = walk(left, right, "%s[%d]" % (path, index))
                if found:
                    return found
            return None
        if a != b:
            return path or "/", a, b
        return None

    return walk(json.loads(off_text), json.loads(on_text), "")


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="superblocks-off vs -on cold artifact byte diff")
    parser.add_argument("--driver", default="rtl8139",
                        choices=sorted(DRIVERS))
    parser.add_argument("--script", default="quick")
    parser.add_argument("--out-off")
    parser.add_argument("--out-on")
    args = parser.parse_args(argv)

    off_text, off_seconds = run_once(args.driver, args.script, "blocks")
    with counting() as on:
        on_text, on_seconds = run_once(args.driver, args.script, "compiled")
    for path, text in ((args.out_off, off_text), (args.out_on, on_text)):
        if path:
            with open(path, "w") as handle:
                handle.write(text)

    chain_runs = on["superblock_runs"]
    loop_iterations = on["superblock_loop_iterations"]
    streamed = on["superblock_stream_elements"]
    print("driver=%s script=%s" % (args.driver, args.script))
    print("superblocks off  %.3fs" % off_seconds)
    print("superblocks on   %.3fs  chains formed=%d runs=%d blocks=%d "
          "deopts=%d loop iterations=%d streamed elements=%d" %
          (on_seconds, on["superblocks_formed"], chain_runs,
           on["superblock_blocks"], on["superblock_deopts"],
           loop_iterations, streamed))
    if chain_runs == 0:
        print("VACUOUS: the on-side run never dispatched a superblock",
              file=sys.stderr)
        return 1
    if loop_iterations == 0:
        print("VACUOUS: the on-side run never iterated a loop chain",
              file=sys.stderr)
        return 1
    if streamed == 0 and args.driver in STREAMING_DRIVERS:
        print("VACUOUS: the on-side run moved no element by a stream "
              "transfer", file=sys.stderr)
        return 1
    if on_text == off_text:
        print("documents byte-identical (%d bytes)" % len(off_text))
        return 0
    divergence = first_divergence(off_text, on_text)
    print("BYTE DIVERGENCE at %s:\n  off: %r\n  on : %r"
          % divergence, file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
