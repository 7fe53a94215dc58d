"""The verify harness against the benchmark's golden CSV at seed 42.

Every suite but khintchine runs here, embeddings (about 1.6 s) included, so that
the shared inequality tally is compared with the file; khintchine takes most of
a verify pass and is left to the benchmark.  The golden file is read, never written.
"""

import os

import pytest

from fockhaus import harness

GOLDEN_CSV = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "golden",
                          "verify-seed42.csv")
SUITES = ("embeddings", "dilation", "examples", "coefficients", "explema")


def golden_rows() -> dict[str, tuple[int, int, float | None]]:
    """property id -> (trials, violations, measured constant) from the golden CSV."""
    with open(GOLDEN_CSV, encoding="utf-8") as fh:
        header, *lines = fh.read().splitlines()
    assert header == harness.CSV_HEADER
    rows = {}
    for line in lines:
        # from the right: the four numeric fields hold no comma, some dilation ids do
        pid, trials, violations, _, const = line.rsplit(",", 4)
        rows[pid] = (int(trials), int(violations), float(const) if const else None)
    return rows


def test_quick_suites_match_the_golden_csv():
    golden = golden_rows()
    results = [r for suite in SUITES for r in harness.run_suite(suite, seed=42)]
    ids = [r.property_id for r in results]
    assert ids == [pid for pid in golden if not pid.startswith("khintchine[")]
    assert "dilation/slope-fit[p=1,q=2]" in ids
    for r in results:
        trials, violations, const = golden[r.property_id]
        assert (r.trials, r.violations, violations) == (trials, 0, 0), r.property_id
        if const is None:
            assert r.measured_constant is None, r.property_id
        else:
            assert r.measured_constant == pytest.approx(const, rel=1e-6), r.property_id
