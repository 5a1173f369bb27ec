"""Bench T2: regenerate Table 2 (functionality coverage matrix)."""

from repro.eval.tables import TABLE2_FEATURES, table2_compute, table2_render


def test_table2(cache):
    matrix = table2_compute(cache)
    print()
    print(table2_render(matrix))
    # Every testable feature of every synthesized driver must pass --
    # Table 2's claim is a full check-mark matrix.
    for feature, row in matrix.items():
        for driver, mark in row.items():
            expected = TABLE2_FEATURES[feature][driver]
            assert mark == expected, (feature, driver, mark)
