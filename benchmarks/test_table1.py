"""Bench T1: regenerate Table 1 (driver-binary characteristics)."""

from repro.eval.tables import table1_compute, table1_render


def test_table1():
    rows = table1_compute()
    print()
    print(table1_render(rows))
    assert len(rows) == 4
    for row in rows:
        # Shape of Table 1: NIC-driver-sized binaries with a code segment
        # smaller than the file and a double-digit function count.
        assert row.code_segment_size < row.driver_size
        assert row.implemented_functions >= 10
        assert row.imported_functions >= 8
