"""Bench T3: regenerate Table 3 (template-writing effort)."""

from repro.eval.tables import table3_compute, table3_render


def test_table3():
    rows = table3_compute()
    print()
    print(table3_render(rows))
    by_os = {row["target_os"]: row for row in rows}
    # Shape: effort ordering Windows > Linux > uC/OS-II > KitOS holds for
    # the paper's person-days and for our boilerplate/API proxies.
    assert by_os["winsim"]["person_days_paper"] \
        > by_os["linsim"]["person_days_paper"] \
        > by_os["ucsim"]["person_days_paper"] \
        > by_os["kitos"]["person_days_paper"]
    assert by_os["kitos"]["boilerplate_loc"] <= by_os["winsim"]["boilerplate_loc"] + 200
