"""Tables 1-4 of the paper, plus the cross-OS validation matrix table.

The validation matrix is this reproduction's own table (the paper reports
functional equivalence anecdotally, per OS); see docs/validation.md.
"""

import inspect
from dataclasses import dataclass

from repro.asm.disasm import static_call_targets
from repro.drivers import DRIVERS, build_driver
from repro.guestos.structures import NdisStatus, PacketFilter
from repro.net import EthernetFrame, EtherType
from repro.validate.observe import PEER_MAC, VALIDATION_MAC


# ==========================================================================
# Table 1: characteristics of the driver binaries

@dataclass
class Table1Row:
    driver: str
    windows_file: str
    ported_to: str
    driver_size: int
    code_segment_size: int
    imported_functions: int
    implemented_functions: int


_PORTS = {
    "pcnet": "Windows, Linux, KitOS",
    "rtl8139": "Windows, Linux, KitOS",
    "smc91c111": "uC/OS-II, KitOS",
    "rtl8029": "Windows, Linux, KitOS",
}


def table1_compute():
    """Static analysis of the four binaries (Table 1's columns)."""
    rows = []
    for name in ("pcnet", "rtl8139", "smc91c111", "rtl8029"):
        image = build_driver(name)
        rows.append(Table1Row(
            driver=name,
            windows_file=DRIVERS[name].windows_file,
            ported_to=_PORTS[name],
            driver_size=image.file_size,
            code_segment_size=image.code_size,
            imported_functions=len(image.imports),
            implemented_functions=len(static_call_targets(image)),
        ))
    return rows


def table1_render(rows=None):
    rows = rows or table1_compute()
    lines = ["Table 1: characteristics of the driver binaries",
             "%-10s %-14s %-24s %8s %8s %8s %8s"
             % ("driver", "windows file", "ported to", "size", "code",
                "imports", "funcs")]
    for row in rows:
        lines.append("%-10s %-14s %-24s %7dB %7dB %8d %8d"
                     % (row.driver, row.windows_file, row.ported_to,
                        row.driver_size, row.code_segment_size,
                        row.imported_functions, row.implemented_functions))
    return "\n".join(lines)


# ==========================================================================
# Table 2: functionality coverage of the synthesized drivers

#: Feature availability per chip, exactly as Table 2 reports it.
#: 'check' = testable and must pass; 'NT' = code present but not testable
#: on the (virtual) hardware; 'NA' = chip lacks the feature.
TABLE2_FEATURES = {
    "init_shutdown": {"pcnet": "check", "rtl8139": "check",
                      "smc91c111": "check", "rtl8029": "check"},
    "send_receive": {"pcnet": "check", "rtl8139": "check",
                     "smc91c111": "check", "rtl8029": "check"},
    "multicast": {"pcnet": "check", "rtl8139": "check",
                  "smc91c111": "check", "rtl8029": "check"},
    "get_set_mac": {"pcnet": "check", "rtl8139": "check",
                    "smc91c111": "check", "rtl8029": "check"},
    "promiscuous": {"pcnet": "check", "rtl8139": "check",
                    "smc91c111": "check", "rtl8029": "check"},
    "full_duplex": {"pcnet": "check", "rtl8139": "check",
                    "smc91c111": "check", "rtl8029": "check"},
    "dma": {"pcnet": "check", "rtl8139": "check",
            "smc91c111": "NA", "rtl8029": "NA"},
    "wake_on_lan": {"pcnet": "check", "rtl8139": "check",
                    "smc91c111": "NA", "rtl8029": "NA"},
    "led_status": {"pcnet": "NT", "rtl8139": "check",
                   "smc91c111": "check", "rtl8029": "NT"},
}


def _frame(dst, payload=b"x" * 64):
    return EthernetFrame(dst=dst, src=PEER_MAC, ethertype=EtherType.IPV4,
                         payload=payload).to_bytes()


def _feature_checks(template, device):
    """Run each Table 2 feature on an instantiated synthesized driver;
    returns {feature: bool}."""
    results = {}
    results["init_shutdown"] = device.rx_enabled
    frame = _frame(b"\xff" * 6)
    sent = template.send(frame) == NdisStatus.SUCCESS \
        and template.medium.transmitted[-1] == frame
    rx = _frame(VALIDATION_MAC, b"y" * 77)
    received = template.inject_rx(rx) == [rx]
    results["send_receive"] = sent and received

    group = b"\x01\x00\x5e\x00\x00\x01"
    template.set_multicast_list([group])
    template.set_packet_filter(PacketFilter.DIRECTED
                               | PacketFilter.MULTICAST)
    results["multicast"] = template.inject_rx(_frame(group)) == \
        [_frame(group)]

    new_mac = b"\x52\x54\x00\x01\x02\x03"
    template.set_mac(new_mac)
    results["get_set_mac"] = template.query_mac() == new_mac \
        and bytes(device.mac) == new_mac

    template.set_packet_filter(PacketFilter.DIRECTED
                               | PacketFilter.PROMISCUOUS)
    results["promiscuous"] = device.promiscuous and \
        template.inject_rx(_frame(b"\x02\x99" * 3)) == [_frame(b"\x02\x99" * 3)]

    template.set_full_duplex(True)
    results["full_duplex"] = device.full_duplex

    results["dma"] = device.stats["tx_frames"] > 0 and \
        getattr(device, "bus", None) is not None

    status = template.enable_wake_on_lan()
    results["wake_on_lan"] = status == NdisStatus.SUCCESS \
        and device.wol_enabled

    status = template.set_led(1)
    results["led_status"] = status == NdisStatus.SUCCESS \
        and device.led_state != 0

    template.shutdown()
    results["init_shutdown"] = results["init_shutdown"] \
        and not device.rx_enabled
    return results


def table2_compute(cache=None):
    """Verify every Table 2 feature of every synthesized driver.

    Returns {feature: {driver: 'check'|'NT'|'NA'|'FAIL'}}.
    """
    from repro.drivers import device_class
    from repro.eval.runner import get_cache
    from repro.targetos import WinSim
    from repro.templates import NicTemplate

    cache = cache or get_cache()
    matrix = {feature: {} for feature in TABLE2_FEATURES}
    for name in sorted(DRIVERS):
        run = cache.run(name)
        target = WinSim(device_class(name), mac=VALIDATION_MAC)
        template = NicTemplate(run.synthesized, target,
                               original_image=run.image)
        template.initialize()
        checks = _feature_checks(template, target.device)
        for feature, availability in TABLE2_FEATURES.items():
            expected = availability[name]
            if expected == "check":
                matrix[feature][name] = "check" if checks[feature] \
                    else "FAIL"
            else:
                matrix[feature][name] = expected
    return matrix


def table2_render(matrix=None):
    matrix = matrix or table2_compute()
    marks = {"check": "X", "NT": "N/T", "NA": "N/A", "FAIL": "FAIL"}
    drivers = ("pcnet", "rtl8139", "smc91c111", "rtl8029")
    lines = ["Table 2: functionality coverage of synthesized drivers",
             "%-16s %8s %8s %10s %8s" % ("functionality", *drivers)]
    for feature, row in matrix.items():
        lines.append("%-16s %8s %8s %10s %8s"
                     % (feature, *(marks[row[d]] for d in drivers)))
    return "\n".join(lines)


# ==========================================================================
# Table 3: template-writing effort (person-days paper / LoC+API proxies)

def table3_compute():
    from repro import targetos as targetos_pkg
    from repro.drivers import device_class
    from repro.targetos import TARGET_OSES
    from repro.templates.base import TEMPLATE_INFO

    rows = []
    for name, os_cls in TARGET_OSES.items():
        source = inspect.getsource(inspect.getmodule(os_cls))
        instance = os_cls(device_class("rtl8029"))
        rows.append({
            "target_os": name,
            "person_days_paper": TEMPLATE_INFO[name].person_days_paper,
            "boilerplate_loc": len(source.splitlines()),
            "api_surface": len(instance.adaptation_table()),
        })
    return rows


def table3_render(rows=None):
    rows = rows or table3_compute()
    lines = ["Table 3: time to write a template (paper person-days; "
             "repo proxies: boilerplate LoC / adapted API surface)",
             "%-10s %12s %16s %12s" % ("target OS", "person-days",
                                       "boilerplate LoC", "API surface")]
    for row in sorted(rows, key=lambda r: -r["person_days_paper"]):
        lines.append("%-10s %12d %16d %12d"
                     % (row["target_os"], row["person_days_paper"],
                        row["boilerplate_loc"], row["api_surface"]))
    return "\n".join(lines)


# ==========================================================================
# Table 4: developer effort (paper numbers + automation proxies)

#: The paper's Table 4 (manual Linux development vs RevNIC).
TABLE4_PAPER = {
    "rtl8139": {"manual_persons": 18, "manual_span": "4 years",
                "revnic_persons": 1, "revnic_span": "1 week"},
    "smc91c111": {"manual_persons": 8, "manual_span": "4 years",
                  "revnic_persons": 1, "revnic_span": "4 days"},
    "rtl8029": {"manual_persons": 5, "manual_span": "2 years",
                "revnic_persons": 1, "revnic_span": "5 days"},
    "pcnet": {"manual_persons": 3, "manual_span": "4 years",
              "revnic_persons": 1, "revnic_span": "1 week"},
}


def table4_compute(cache=None):
    from repro.eval.runner import get_cache

    cache = cache or get_cache()
    rows = []
    for name in ("rtl8139", "smc91c111", "rtl8029", "pcnet"):
        run = cache.run(name)
        report = run.synthesized.report
        paper = TABLE4_PAPER[name]
        rows.append({
            "driver": name,
            **paper,
            "functions_recovered": report.function_count,
            "functions_automatic": report.fully_synthesized_count,
            "manual_integration": report.manual_count,
            "wall_seconds": run.stats["wall_seconds"],
        })
    return rows


# ==========================================================================
# Validation matrix: drivers x target OSes under the workload catalog

def validation_matrix_compute(cache=None):
    """Run the full differential validation matrix (see repro.validate)."""
    from repro.eval.runner import get_cache
    from repro.validate import ValidationMatrix

    return ValidationMatrix(orchestrator=cache or get_cache()).run()


def _cell_text(cell):
    status = cell.status
    if status == "skipped":
        return "-"
    if status == "unsupported":
        return "unsup"
    matched, ran = len(cell.matched), len(cell.ran)
    mark = "" if status == "equivalent" else "!"
    return "%d%s/%d" % (matched, mark, ran)


def validation_matrix_render(result=None):
    """Render the matrix: one row per driver, one column per target OS.

    A cell reads ``matched/run`` scenarios (``!`` flags divergences),
    ``unsup`` marks templates that cannot host the driver (verified
    against the per-cell expectation), ``-`` an all-skipped cell.
    """
    result = result or validation_matrix_compute()
    lines = ["Validation matrix: original binary vs synthesized driver "
             "(matched/run scenarios)",
             "%-10s" % "driver"
             + "".join("%10s" % os_name for os_name in result.os_names)
             + "   unexplained"]
    for driver in result.drivers:
        row = "%-10s" % driver
        unexplained = 0
        for os_name in result.os_names:
            cell = result.cell(driver, os_name)
            row += "%10s" % _cell_text(cell)
            unexplained += len(cell.unexplained())
        lines.append(row + "%14d" % unexplained)
    summary = result.summary()
    unsupported = [cell for cell in result.cells.values()
                   if cell.status == "unsupported"]
    unsupported_note = ""
    if unsupported:
        unsupported_note = " (all expected)" \
            if all(cell.expected == "unsupported" for cell in unsupported) \
            else " (UNEXPECTED)"
    lines.append("cells: %d equivalent, %d unsupported%s, "
                 "%d divergent; %d/%d scenarios matched [%.1fs]"
                 % (summary["equivalent"], summary["unsupported"],
                    unsupported_note, summary["divergent"],
                    summary["scenarios_matched"],
                    summary["scenarios_run"], summary["wall_seconds"]))
    for driver, os_name, scenario in result.unexplained():
        first = scenario.divergences[0].detail if scenario.divergences \
            else scenario.candidate_error
        lines.append("  UNEXPLAINED %s/%s %s: %s"
                     % (driver, os_name, scenario.name, first))
    return "\n".join(lines)


def table4_render(rows=None):
    rows = rows or table4_compute()
    lines = ["Table 4: developer effort (paper) + automation proxies "
             "(measured)",
             "%-10s %14s %14s %8s %8s %8s %9s"
             % ("device", "manual (Linux)", "RevNIC (paper)", "funcs",
                "auto", "manual", "rev-eng s")]
    for row in rows:
        lines.append("%-10s %3d p/%-9s  1 p/%-9s %8d %8d %8d %8.1fs"
                     % (row["driver"], row["manual_persons"],
                        row["manual_span"], row["revnic_span"],
                        row["functions_recovered"],
                        row["functions_automatic"],
                        row["manual_integration"], row["wall_seconds"]))
    return "\n".join(lines)
