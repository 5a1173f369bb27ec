"""Bench T4: regenerate Table 4 (developer effort / automation)."""

from repro.eval.tables import table4_compute, table4_render


def test_table4(cache):
    rows = table4_compute(cache)
    print()
    print(table4_render(rows))
    for row in rows:
        # RevNIC's mechanical phase is minutes, not person-years: most
        # recovered functions need no manual template integration.
        assert row["functions_automatic"] > row["manual_integration"]
        assert row["wall_seconds"] < 600
