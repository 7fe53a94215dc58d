"""Tests of the verdict module, starting from a golden file of CLI output.

The golden file holds `fockhaus classify ... --weight gauss:1` output for
nine measures at seven (p, q) pairs, which between them make every
smoothing and summing criterion applicable at least once.  Regenerate it
after an intended change of output with

    PYTHONPATH=src python tests/test_classify.py

and list the change of every entry in CHANGES.md.
"""

import contextlib
import io
import json
import math
import pathlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fockhaus import classify, cli, harness, measure
from fockhaus.focknorm import INF

GOLDEN = pathlib.Path(__file__).parent / "golden" / "classify.json"

GOLDEN_MEASURES = {
    "hardy": "hardy",
    "beta:2:2": "beta:2:2",
    "beta:2.5:1.5": "beta:2.5:1.5",
    "geom:0.5:2": "geom:0.5:2",
    "dirac:1": "dirac:1",
    "dirac:0.5": "dirac:0.5",
    "dirac:2": "dirac:2",
    "hardy*hardy": measure.MellinConvolution(measure.hardy_measure(), measure.hardy_measure()),
    "3*geom:0.5:2": measure.Scaled(3.0, measure.named_measure("geom:0.5:2")),
}
GOLDEN_PQ = (("1", "inf"), ("2", "inf"), ("1", "2"), ("0.5", "2"), ("1.5", "2"),
             ("2", "4"), ("0.5", "1"))


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """cli.main in process: exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def golden_text(workdir: pathlib.Path) -> str:
    """The golden file's content as the code computes it now."""
    entries = []
    for name, spec in GOLDEN_MEASURES.items():
        if isinstance(spec, str):
            descriptor = spec
        else:
            path = workdir / (name.replace("*", "_") + ".json")
            path.write_text(spec.to_json(), encoding="utf-8")
            descriptor = str(path)
        for p, q in GOLDEN_PQ:
            code, out, err = run_cli(["classify", "--measure", descriptor, "--p", p,
                                      "--q", q, "--weight", "gauss:1"])
            reports = json.loads(out) if code == 0 else []
            err = err if code != 0 else ""  # warnings on a success are not output
            # one report a line, so that a diff of the file names what changed
            rows = ",\n  ".join(json.dumps(r) for r in reports)
            entries.append(f'{json.dumps(f"{name} p={p} q={q}")}: {{"exit": {code}, '
                           f'"stderr": {json.dumps(err)}, "reports": [\n  {rows}]}}')
    return "{\n" + ",\n".join(entries) + "\n}\n"


def test_classify_output_matches_golden_file(tmp_path):
    want = GOLDEN.read_text(encoding="utf-8")
    got = golden_text(tmp_path)
    if got != want:
        got_entries, want_entries = json.loads(got), json.loads(want)
        changed = [k for k in want_entries if got_entries.get(k) != want_entries[k]]
        raise AssertionError(f"classify output differs from {GOLDEN.name} at {changed}")


# -- the published example table ---------------------------------------------------

# (example, criterion, verdict); "bounded"/"compact" are the support dichotomies
EXAMPLE_TABLE = [
    ("hardy", "bounded", "Yes"),
    ("hardy", "compact", "Yes"),
    ("dirac1", "bounded", "Yes"),
    ("dirac1", "compact", "No"),
    ("bump-below-1", "bounded", "No"),
    ("atoms-1+1/k", "bounded", "Yes"),
    ("atoms-1+1/k", "compact", "Yes"),
    ("mellin-hardy2", "summing/absolutely-summing-iff", "Yes"),
    ("mellin-hardy2", "smoothing/sup-to-l1", "SufficientHolds"),
    ("atom-at-1-family", "bounded", "Yes"),
    ("atom-at-1-family", "compact", "No"),
    ("atom-at-1-family", "smoothing/monomial-gap", "NecessaryFails"),
    ("geom", "smoothing/sup-to-l1", "SufficientHolds"),
    ("beta22", "smoothing/sup-to-l1", "SufficientHolds"),
    ("hardy", "smoothing/sup-to-l1", "Inconclusive"),
    ("hardy", "summing/absolutely-summing-iff", "No"),
]
EXAMPLE_PQ = {
    "summing/absolutely-summing-iff": (1.0, 2.0),
    "smoothing/sup-to-l1": (1.0, INF),
    "smoothing/monomial-gap": (1.0, 2.0),
}


@pytest.mark.parametrize("example, criterion, verdict", EXAMPLE_TABLE)
def test_example_table(example, criterion, verdict):
    m = harness._example_measures()[example]
    if criterion == "bounded":
        got = classify.classify_bounded(m)
    elif criterion == "compact":
        got = classify.classify_compact(m)
    else:
        evaluate = (classify.summing_criteria if criterion.startswith("summing/")
                    else classify.smoothing_criteria)
        p, q = EXAMPLE_PQ[criterion]
        (got,) = evaluate(m, p=p, q=q, criteria=[criterion])
        assert got.params["criterion"] == criterion
    assert got.verdict.value == verdict


# -- criterion selection --------------------------------------------------------------

GRID = (0.5, 1.0, 1.5, 2.0, 3.0, INF)
SMALL_P = {(p, q) for p in (1.0, 1.5, 2.0) for q in GRID}
# where each criterion applies on GRID x GRID (p first), as the criteria state it
APPLICABLE = {
    "smoothing/monomial-gap": {(1.0, 1.5), (1.0, 2.0), (1.0, 3.0), (1.0, INF), (1.5, 2.0),
                               (1.5, 3.0), (1.5, INF), (2.0, 3.0), (2.0, INF), (3.0, INF)},
    "smoothing/hilbert-source": {(0.5, 2.0), (1.0, 2.0), (1.5, 2.0)},
    "smoothing/sup-to-l1": {(1.0, INF)},
    "smoothing/dilation-route": {(1.0, 2.0), (1.0, 3.0), (1.0, INF), (1.5, 2.0), (1.5, 3.0),
                                 (1.5, INF), (2.0, 3.0), (2.0, INF)},
    "smoothing/sup-to-lp": {(1.0, INF), (1.5, INF), (2.0, INF)},
    "smoothing/hilbert-to-lp": {(0.5, 2.0), (1.0, 2.0), (1.5, 2.0)},
    "smoothing/hilbert-chain": {(1.0, 2.0), (2.0, INF)},
    "smoothing/l1-to-mixed-sup": {(p, 1.0) for p in GRID},
    "smoothing/to-mixed-hilbert": {(p, q) for p in GRID for q in (0.5, 1.0, 1.5)},
    "summing/absolutely-summing-iff": {(p, q) for p in GRID for q in GRID},
    "summing/nuclear-chain": {(p, q) for p in GRID for q in GRID},
    "summing/p-nuclear-small": {(1.5, 1.5), (1.5, 2.0), (2.0, 2.0)},
    "summing/p-nuclear-large": {(0.5, 2.0), (0.5, 3.0), (1.0, 2.0), (1.0, 3.0), (1.5, 2.0),
                                (1.5, 3.0), (2.0, 2.0), (2.0, 3.0), (3.0, 3.0)},
    "summing/summing-small-p": SMALL_P,
    "summing/summing-large-q": {(p, 3.0) for p in GRID},
    "summing/p-summing-dual-suff": SMALL_P,
    "summing/p-summing-dual-nec": SMALL_P,
    "summing/cotype-21": SMALL_P,
}


@pytest.mark.parametrize("criterion", list(APPLICABLE))
def test_criterion_applies_where_stated(criterion):
    (record,) = [c for c in classify.CRITERIA if c.id == criterion]
    found = {(p, q) for p in GRID for q in GRID if record.applies(p, q)}
    assert found == APPLICABLE[criterion]


def test_table_holds_exactly_the_stated_criteria():
    assert [c.id for c in classify.CRITERIA] == list(APPLICABLE)


def test_unknown_criterion_is_rejected():
    with pytest.raises(classify.CriterionInapplicable, match="unknown criterion"):
        classify.smoothing_criteria(measure.hardy_measure(), 1.0, INF, criteria=["smoothing/x"])
    # a summing id is unknown to the smoothing question and the other way round
    with pytest.raises(classify.CriterionInapplicable, match="unknown criterion"):
        classify.summing_criteria(measure.hardy_measure(), criteria=["smoothing/sup-to-l1"])


def test_inapplicable_criterion_is_rejected():
    with pytest.raises(classify.CriterionInapplicable, match="does not cover p=2, q=4"):
        classify.smoothing_criteria(measure.hardy_measure(), 2.0, 4.0,
                                    criteria=["smoothing/sup-to-l1"])
    with pytest.raises(classify.CriterionInapplicable, match="does not cover p=3, q=inf"):
        classify.summing_criteria(measure.hardy_measure(), 3.0, INF,
                                  criteria=["summing/cotype-21"])


# -- properties over named measures -------------------------------------------------------

named_measures = st.one_of(
    st.just("hardy"),
    st.builds("beta:{}:{}".format, st.sampled_from([1.5, 2.0, 2.5, 3.0]),
              st.sampled_from([0.5, 1.0, 1.5, 2.0])),
    st.builds("geom:{}:{}".format, st.sampled_from([0.25, 0.5, 0.75]),
              st.sampled_from([1.0, 1.5, 2.0, 3.0])),
    st.builds("dirac:{}".format, st.sampled_from([0.5, 0.9, 1.0, 1.1, 2.0])),
)
exponent_pairs = st.sampled_from([(1.0, INF), (2.0, INF), (1.0, 2.0), (0.5, 2.0), (1.5, 2.0),
                                  (2.0, 4.0), (0.5, 1.0)])


def verdicts(m, p, q) -> list[tuple]:
    reports = [classify.classify_entire(m), classify.classify_bounded(m, p, q),
               classify.classify_compact(m, p, q)]
    reports += classify.classify_weighted(m, classify.gauss_weight(1.0))
    reports += classify.smoothing_criteria(m, p, q) + classify.summing_criteria(m, p, q)
    return [(r.question, r.params.get("criterion"), r.verdict) for r in reports]


@given(named_measures, exponent_pairs, st.sampled_from([1e-3, 0.3, 7.0, 1e4]))
def test_verdicts_are_invariant_under_scaling(name, pq, c):
    m = measure.named_measure(name)
    assert verdicts(measure.Scaled(c, m), *pq) == verdicts(m, *pq)


@given(named_measures, exponent_pairs)
def test_compact_implies_bounded(name, pq):
    m = measure.named_measure(name)
    if classify.classify_compact(m, *pq).verdict == classify.Verdict.YES:
        assert classify.classify_bounded(m, *pq).verdict == classify.Verdict.YES
    weighted_bounded, weighted_compact = classify.classify_weighted(
        m, classify.gauss_weight(1.0))
    if weighted_compact.verdict == classify.Verdict.YES:
        assert weighted_bounded.verdict == classify.Verdict.YES


# -- regressions ------------------------------------------------------------------------------


@pytest.mark.parametrize("t, inside_unit_ball", [(1e200, True), (1e-200, False)])
def test_far_dirac_classifies_without_overflow(t, inside_unit_ball):
    # mu_n = t**-n leaves double range after a few terms at either distance
    code, out, err = run_cli(["classify", "--measure", f"dirac:{t:g}"])
    assert code == 0, err
    assert "Traceback" not in err
    got = {r["question"]: r["verdict"] for r in json.loads(out)}
    want = "Yes" if inside_unit_ball else "No"
    assert got["entire-continuity"] == "Yes"
    assert got["fock-bounded"] == want and got["compact"] == want


def test_beta_tail_with_negative_a_classifies():
    # b < 1 with a < 0: the envelope constants come from Wendel's inequality
    code, out, err = run_cli(["classify", "--measure", "beta:-0.3:0.5"])
    assert code == 0, err
    got = {r["question"]: r["verdict"] for r in json.loads(out)}
    assert (got["entire-continuity"], got["fock-bounded"], got["compact"]) == ("Yes",) * 3


def test_series_verdict_takes_logs_of_far_envelopes():
    near_zero = classify.series_verdict(measure.dirac(1e200), power=2.0)
    assert near_zero.outcome == "converges"
    assert 0.0 <= near_zero.tail_bound < 1e-300
    assert near_zero.witness == "geometric envelope ratio 1e-200"
    huge = classify.series_verdict(measure.dirac(1e-200), power=2.0)
    assert huge.outcome == "diverges" and huge.partial == math.inf
    assert huge.witness == "terms grow geometrically at ratio exp(921.034)"


def test_sup_scan_stops_once_unbounded_is_certified():
    # mu_n of a density reaching down to 0.5 grows like 2**n and would pass the
    # moment plausibility bound near n = 166 if the scan ran on
    bump = measure.Density(lambda t: 1.0, (0.5, 1.0), label="unit bump")
    sv = classify.sup_verdict(bump)
    assert sv.outcome == "unbounded"
    assert classify.DIVERGENCE_CUTOFF < sv.partial < math.inf and sv.n_terms < 80
    for p, q in ((1.0, INF), (1.0, 2.0), (2.0, 4.0)):
        assert classify.smoothing_criteria(bump, p, q) and classify.summing_criteria(bump, p, q)


def test_bounded_sup_scan_runs_to_its_horizon():
    sv = classify.sup_verdict(measure.dirac(2.0), weight_exponent=0.5)
    assert sv.outcome == "bounded" and sv.n_terms == 2048


@pytest.mark.parametrize("name, bounded, compact", [
    ("hardy", "Yes", "Yes"), ("dirac:1", "Yes", "No"), ("dirac:0.5", "No", "No"),
])
def test_weighted_compactness_is_its_own_verdict(name, bounded, compact):
    reports = classify.classify_weighted(measure.named_measure(name), classify.gauss_weight(1.0))
    assert [(r.question, r.verdict.value) for r in reports] == [
        ("weighted-bounded", bounded), ("weighted-compact", compact)]


def test_weighted_compactness_needs_declared_flags():
    undeclared = classify.RadialWeight("v")
    m = measure.hardy_measure()
    (bounded,) = classify.classify_weighted(m, undeclared, compactness=False)
    assert bounded.question == "weighted-bounded"
    with pytest.raises(classify.HypothesisNotDeclared):
        classify.classify_weighted(m, undeclared)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(golden_text(pathlib.Path(tmp)), encoding="utf-8")
