import contextlib
import io
import json
import math
import os
import pathlib
import signal
import subprocess
import sys
import warnings

import pytest
from hypothesis import example, given, settings, strategies as st

import fockhaus
from fockhaus import cli, measure


def test_apply_quadrature_on_beta_tail(capsys):
    # mu_3 of beta:2:1 is B(1, 5) = 1/5 and (1+i)**3 = -2+2i
    code = cli.main(
        ["apply", "--measure", "beta:2:1", "--fn", "monomial:3",
         "--mode", "quadrature", "--at", "1+1j"]
    )
    assert code == 0
    assert capsys.readouterr().out == "(1+1j) -> -0.4 + 0.4j\n"


@pytest.mark.parametrize("descriptor", ["beta:2.5:1.5", "beta:-0.3:0.5", "beta:0.5:0.3"])
def test_apply_quadrature_matches_spectral(descriptor, capsys):
    # the image of u_2 is mu_2 u_2: spectral mode prints mu_2 as coefficient 2,
    # quadrature mode its value 4 mu_2 at z = 2
    assert cli.main(["apply", "--measure", descriptor, "--fn", "monomial:2"]) == 0
    mu2_re, mu2_im = json.loads(capsys.readouterr().out)["coeffs"][2]
    assert mu2_im == 0.0
    argv = ["apply", "--measure", descriptor, "--fn", "monomial:2",
            "--mode", "quadrature", "--at", "2"]
    assert cli.main(argv) == 0
    point, value = capsys.readouterr().out.strip().split(" -> ")
    assert point == "(2+0j)"
    assert complex(value.replace(" ", "")) == pytest.approx(4.0 * mu2_re, rel=1e-10)


# -- the exit-code contract --------------------------------------------------------------------

NAMED = ["hardy", "beta:2:2", "beta:-0.3:0.5", "dirac:1", "dirac:1e-300", "dirac:1e300",
         "geom:0.5:2",
         # these raised OverflowError (beta:2:1e-320 through mu_0 ~ 1e320, geom:0.5:1e308
         # through its atom positions) or built a list of 57 564 628 953 atoms
         "beta:2:1e-320", "geom:0.5:1e308", "geom:0.999999999:1"]
HARDY = {"type": "density", "kind": "power_tail", "a": 1.0}
PRODUCTS = {
    "atom*hardy*hardy": {
        "type": "mellin", "right": HARDY,
        "left": {"type": "mellin", "left": {"type": "point_masses", "atoms": [[0.5, 0.5]]},
                 "right": HARDY}},
    "2beta*atom*power": {
        "type": "mellin",
        "left": {"type": "scaled", "c": 2.0,
                 "inner": {"type": "density", "kind": "beta_tail", "a": 2.0, "b": 2.0}},
        "right": {"type": "mellin", "left": {"type": "point_masses", "atoms": [[0.5, 0.5]]},
                  "right": {"type": "density", "kind": "power_tail", "a": 1.5}}},
}
COMMANDS = {
    "moments": ["moments"],
    "classify": ["classify"],
    "classify-weighted": ["classify", "--weight", "gauss:1"],
    "report": ["report"],
    "apply": ["apply", "--fn", "monomial:2"],
    "apply-quadrature": ["apply", "--fn", "monomial:2", "--mode", "quadrature",
                         "--at", "0.5+0.5j"],
}
# The calls that warn today: none.
KNOWN_WARNINGS = {}


@pytest.mark.parametrize("name", [*NAMED, *PRODUCTS])
def test_every_command_exits_0_1_or_2(name, tmp_path, capsys):
    descriptor = name
    if name in PRODUCTS:
        descriptor = str(tmp_path / "measure.json")
        with open(descriptor, "w", encoding="utf-8") as fh:
            json.dump(PRODUCTS[name], fh)
    warned = {}
    for command, (head, *flags) in COMMANDS.items():
        # recorded, so that a known warning does not stop the call it comes from
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main([head, "--measure", descriptor, *flags])
        assert code in (0, 1, 2), (command, capsys.readouterr().err)
        if caught:
            warned[command] = {w.category.__name__ for w in caught}
    assert warned == KNOWN_WARNINGS.get(name, {})


def _out_of_time(signum, frame):
    pytest.fail("the call ran past its 20 s budget")


@pytest.mark.parametrize("name, want", [("hardy*hardy", 0.5j / 9.0),
                                        ("atom*hardy*hardy", 2j / 9.0)])
def test_apply_quadrature_ends_when_the_real_part_cancels(name, want, tmp_path, capsys):
    # (0.5+0.5j)**2 = 0.5j, so the real part of f(z s) = 0.5j s**2 is rounding noise; a
    # tolerance per part chased it to quad's subinterval limit, for minutes.  mu_2 is 1/9
    # for hardy * hardy and 4/9 with the atom of mass 1/2 at 1/2.
    measures = {"hardy*hardy": {"type": "mellin", "left": HARDY, "right": HARDY}, **PRODUCTS}
    descriptor = tmp_path / "measure.json"
    descriptor.write_text(json.dumps(measures[name]), encoding="utf-8")
    argv = ["apply", "--measure", str(descriptor), "--fn", "monomial:2", "--mode", "quadrature",
            "--at", "0.5+0.5j"]
    previous = signal.signal(signal.SIGALRM, _out_of_time)
    signal.alarm(20)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    point, value = capsys.readouterr().out.strip().split(" -> ")
    assert code == 0 and point == "(0.5+0.5j)"
    assert abs(complex(value.replace(" ", "")) - want) <= 1e-10 * abs(want)


@pytest.mark.parametrize("measure_name", ["beta:1e10:2", "beta:1e308:2"])
def test_a_tail_no_gauss_rule_carries_is_a_precondition_failure(measure_name, capsys):
    # beta:1e10:2 printed 0 + 0j for 5e-21j; beta:1e308:2 died with an OverflowError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["apply", "--measure", measure_name, "--fn", "monomial:2",
                         "--mode", "quadrature", "--at", "0.5+0.5j"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("fockhaus: DomainError: ")


@pytest.mark.parametrize("flags", [[], ["--mode", "quadrature", "--at", "0.5+0.5j"]])
def test_image_past_double_range_is_a_precondition_failure(flags, capsys):
    # mu_2 = 1e600 at t = 1e-300: the image of u_2 has no double value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["apply", "--measure", "dirac:1e-300", "--fn", "monomial:2", *flags])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert "DomainError" in err and "nan" not in err.lower()


def _refuse_constant(name):
    raise ValueError(f"bare {name} is not JSON")


@pytest.mark.parametrize("argv", [["report", "--measure", "dirac:1e-300"],
                                  ["classify", "--measure", "hardy"]])
def test_json_output_is_strict(argv, capsys):
    # mu_n = 1e300**n overflows and the hardy series diverge: infinities are strings
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    json.loads(out, parse_constant=_refuse_constant)
    assert '"inf"' in out


def test_subnormal_coefficient_norm(tmp_path, capsys):
    fn = tmp_path / "f.json"
    fn.write_text(json.dumps({"coeffs": [[1.0, 0.0], [0.0, 0.0], [1e-320, 0.0]]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["norm", "--fn", str(fn), "--p", "0.5"])
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    assert float(out) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("argv", [
    ["norm", "--fn", "monomial:3", "--p", "1", "--alpha", "nan"],
    ["norm", "--fn", "monomial:3", "--p", "1", "--alpha", "inf"],
    ["norm", "--fn", "monomial:3", "--p", "1", "--alpha", "1e-320"],  # hung: cutoff inf
    ["norm", "--fn", "monomial:3", "--p", "inf", "--alpha", "1e-320"],
    ["norm", "--fn", "monomial:3", "--p", "0.5", "--alpha", "5e-324"],
    ["classify", "--measure", "hardy", "--alpha", "nan"],
    ["report", "--measure", "hardy", "--alpha", "-1"],
    ["classify", "--measure", "hardy", "--weight", "gauss:nan"],  # labelled gauss:nan
    ["classify", "--measure", "hardy", "--weight", "gauss:inf"],
])
def test_bad_alpha_is_a_usage_error(argv, capsys):
    # these printed 0 or a verdict and exited 0, or never returned
    previous = signal.signal(signal.SIGALRM, _out_of_time)
    signal.alarm(20)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("fockhaus: error: ")  # no traceback


@pytest.mark.parametrize("flags", [
    ["--p", "2", "--alpha", "1e-320"],  # the coefficient series
    ["--p", "4", "--alpha", "1e-300"],  # the radial integral
    ["--p", "4", "--q", "inf", "--alpha", "1e-300"],  # the sup of the mixed norm
    ["--p", "inf", "--alpha", "1e-300"],  # the sup
    # radial rules of 1.4e7 and 4e152 nodes: 1e9 asked numpy for 13.4 GiB, 1e300 ran for minutes
    ["--p", "1e9"],
    ["--p", "1e300"],
    ["--p", "1e-300"],  # printed 1: the root of the integral was lost to rounding
])
def test_norm_past_double_range_is_a_precondition_failure(flags, capsys):
    # ||u_3|| is about e**1036 at alpha = 1e-300: these printed inf after a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["norm", "--fn", "monomial:3", *flags])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("fockhaus: DomainError: ")


def _descriptor(value, path) -> str:
    """value if it is a descriptor, else the path of a JSON file that now holds it."""
    if isinstance(value, str):
        return value
    path.write_text(json.dumps(value), encoding="utf-8")
    return str(path)


_POWER_BETA = {"type": "mellin", "left": {"type": "density", "kind": "power_tail", "a": 1.5},
               "right": {"type": "density", "kind": "beta_tail", "a": 2.0, "b": 0.5}}


@pytest.mark.parametrize("measure_name, fn", [
    # every value of f is finite, a panel's weighted sum is not: the quadrature formed
    # inf - inf, warned, and exited 1 on an empty reduction
    ("beta:80995.536:0.0016884926853706593", {"coeffs": [[1e300, 0.0]] * 21}),
    ("beta:0.6338:0.00927", {"coeffs": [[1e300, 0.0]] * 21}),
    # the rules of four atomless factors nest, so the grid grows as the fourth power of
    # their nodes: this ran for minutes before the quadrature action had a work budget
    ({"type": "mellin", "left": _POWER_BETA, "right": _POWER_BETA}, "monomial:20"),
], ids=["sum-past-range", "sum-past-range-2", "four-tails"])
def test_a_quadrature_the_rules_cannot_finish_is_a_precondition_failure(measure_name, fn,
                                                                          tmp_path):
    code, out, err = _run_in_process([
        "apply", "--measure", _descriptor(measure_name, tmp_path / "m.json"),
        "--fn", _descriptor(fn, tmp_path / "f.json"), "--mode", "quadrature", "--at", "2"])
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("fockhaus: DomainError: ")


def test_kernel_past_the_truncation_cap_is_a_precondition_failure(capsys):
    # the kernel's scale beta |a| radius is inf: int(inf) raised OverflowError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["norm", "--fn", "kernel:1:1e308:0", "--p", "1"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("fockhaus: TruncationError: ")


# -- the norm command under generated inputs ---------------------------------------------

_EXPONENTS = st.one_of(st.floats(0.1, 10.0, exclude_min=True, exclude_max=True),
                       st.floats(-300.0, 300.0).map(lambda e: 10.0**e),
                       st.integers(1, 200).map(lambda k: 2.0 * k),
                       st.just(math.inf))
_ENTRIES = st.one_of(st.sampled_from([0.0, 5e-324, 1e-300, 1e300, -1e300]),
                     st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True))
_FUNCTIONS = st.one_of(
    st.integers(0, 60).map(lambda n: f"monomial:{n}"),
    st.lists(st.tuples(_ENTRIES, _ENTRIES), min_size=1, max_size=21),
)
_ALPHAS = st.one_of(st.floats(-320.0, 300.0).map(lambda e: 10.0**e),
                    st.sampled_from([math.nan, math.inf, -math.inf, 0.0]))


@pytest.fixture(scope="module")
def coeff_file(tmp_path_factory):
    return tmp_path_factory.mktemp("norm") / "f.json"


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(fn=_FUNCTIONS, p=_EXPONENTS, q=st.one_of(st.none(), _EXPONENTS), alpha=_ALPHAS)
def test_norm_keeps_the_exit_code_contract(coeff_file, fn, p, q, alpha):
    if not isinstance(fn, str):
        coeff_file.write_text(json.dumps({"coeffs": fn}), encoding="utf-8")
        fn = str(coeff_file)
    argv = ["norm", "--fn", fn, f"--p={p!r}", f"--alpha={alpha!r}"]  # a bare -inf reads as a flag
    if q is not None:
        argv.append(f"--q={q!r}")
    code, out, err = _run_in_process(argv)
    if code == 0:
        assert err == "" and out.count("\n") == 1 and math.isfinite(float(out))


def _run_in_process(argv) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one CLI call within a 20 s budget, which must
    keep the 0/1/2 contract, warn nothing and print no traceback on a failure."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _out_of_time)
    signal.alarm(20)
    try:
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # a usage error from argparse
                code = exc.code
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    out, err = out.getvalue(), err.getvalue()
    assert not caught, [str(w.message) for w in caught]
    assert code in (0, 1, 2)
    if code != 0:
        assert out == "" and "Traceback" not in err
    return code, out, err


# -- classify and report under generated inputs -------------------------------------------

def _log_uniform(lo: float, hi: float):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


_MEASURES = st.one_of(
    st.just("hardy"),
    st.floats(-300.0, 300.0).map(lambda e: f"dirac:{10.0**e!r}"),
    st.tuples(st.sampled_from([-1.0, 1.0]), _log_uniform(1e-12, 1.0)).map(
        lambda sd: f"dirac:{1.0 + sd[0] * sd[1]!r}"),
    st.tuples(st.floats(1e-3, 0.999), _log_uniform(1.0, 1e3)).map(
        lambda lr: f"geom:{lr[0]!r}:{lr[1]!r}"),
    st.tuples(_log_uniform(1e-3, 1e6), _log_uniform(1e-3, 1e3)).map(
        lambda ab: f"beta:{ab[0]!r}:{ab[1]!r}"),
)
_CLASSIFY_EXPONENTS = st.one_of(_log_uniform(1e-3, 1e7), st.sampled_from([math.inf, 1.0, 2.0]))


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(command=st.sampled_from(["classify", "report"]), m=_MEASURES, p=_CLASSIFY_EXPONENTS,
       q=_CLASSIFY_EXPONENTS, weight=st.booleans())
# each of these died with an OverflowError, or allocated without bound
@example("classify", "dirac:2", 1.0, 0.01, False)
@example("classify", "geom:0.5:2", 1.0, 1e-3, False)
@example("classify", "dirac:1.0001", 1e6, 1e7, False)
@example("classify", "beta:2:2", 1e6, 1e7, False)
@example("report", "beta:820269:0.0141416", 2.0, 54848.2, False)
@example("classify", "dirac:1.00000001", 1.0, 0.5, False)
def test_classify_and_report_keep_the_exit_code_contract(command, m, p, q, weight):
    argv = [command, "--measure", m, f"--p={p!r}", f"--q={q!r}"]
    if weight and command == "classify":
        argv += ["--weight", "gauss:1"]
    code, out, err = _run_in_process(argv)
    if code == 0:
        assert err == ""
        json.loads(out, parse_constant=_refuse_constant)


# -- moments and apply under generated inputs ---------------------------------------------

_POSITIONS = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)
_LEAVES = st.one_of(
    st.lists(st.tuples(_log_uniform(1e-3, 1e3), _POSITIONS), min_size=1, max_size=3).map(
        lambda atoms: {"type": "point_masses", "atoms": atoms}),
    _log_uniform(1e-3, 1e6).map(lambda a: {"type": "density", "kind": "power_tail", "a": a}),
    st.tuples(_log_uniform(1e-3, 1e6), _log_uniform(1e-3, 1e3)).map(
        lambda ab: {"type": "density", "kind": "beta_tail", "a": ab[0], "b": ab[1]}),
)


def _products(factors):
    return st.one_of(
        st.tuples(factors, factors).map(lambda lr: {"type": "mellin", "left": lr[0],
                                                    "right": lr[1]}),
        st.tuples(_log_uniform(1e-3, 1e3), factors).map(lambda ci: {"type": "scaled", "c": ci[0],
                                                                    "inner": ci[1]}),
    )


_ACTION_MEASURES = st.one_of(_MEASURES, _products(st.one_of(_LEAVES, _products(_LEAVES))))
_ACTION_FUNCTIONS = st.one_of(_FUNCTIONS, st.integers(0, 40).map(lambda n: f"peak:{n}"))
_POINTS = st.sampled_from(["2", "0.5+0.5j", "1,0.5+0.5j", "-3j,1e-5", "1,5e-6"])


@pytest.fixture(scope="module")
def action_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("action")
    return folder / "measure.json", folder / "f.json"


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(command=st.sampled_from(["moments", "spectral", "quadrature"]), m=_ACTION_MEASURES,
       n=st.integers(0, 64), fn=_ACTION_FUNCTIONS, at=_POINTS)
# a weighted sum past double range: inf - inf, a warning and exit 1
@example("quadrature", "beta:80995.536:0.0016884926853706593", 10, [(1e300, 0.0)] * 21, "2")
# an image below the normal range: the relative tolerance underflowed, warned, and either
# exited 1 or chased the rules to the panel cap
@example("quadrature", "beta:2:0.5", 10, "monomial:60", "1,5e-6")
def test_moments_and_apply_keep_the_exit_code_contract(action_files, command, m, n, fn, at):
    measure_file, fn_file = action_files
    m = _descriptor(m, measure_file)
    fn = _descriptor(fn if isinstance(fn, str) else {"coeffs": fn}, fn_file)
    if command == "moments":
        argv = ["moments", "--measure", m, "--n", str(n)]
    else:
        argv = ["apply", "--measure", m, "--fn", fn, "--mode", command, f"--at={at}"]
    code, out, err = _run_in_process(argv)
    if code != 0:
        return
    assert err == ""
    if command == "moments":  # a moment past double range prints inf, never nan
        values = [float(v) for v in out.strip().split(", ")]
        assert len(values) == n + 1 and not any(math.isnan(v) for v in values)
    elif command == "spectral":
        coeffs = json.loads(out, parse_constant=_refuse_constant)["coeffs"]
        assert all(isinstance(x, float) and math.isfinite(x) for c in coeffs for x in c)
    else:
        lines = out.splitlines()
        assert len(lines) == len(at.split(","))
        for line in lines:
            value = complex(line.split(" -> ")[1].replace(" ", ""))
            assert math.isfinite(value.real) and math.isfinite(value.imag)


# -- cold start: no path loads scipy ---------------------------------------------------------

_SCIPY_MODULES = ("import sys; print(sorted(m for m in sys.modules "
                  "if m == 'scipy' or m.startswith('scipy.')))")


def _fresh_python(code: str) -> str:
    """stdout of code run by a new interpreter that imports this fockhaus."""
    src = str(pathlib.Path(fockhaus.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120, check=True)
    return done.stdout


@pytest.mark.parametrize("code", [
    "import fockhaus.cli",
    "from fockhaus import cli; cli.main(['norm', '--fn', 'kernel:1:1:0', '--p', '1'])",
    "from fockhaus import cli; cli.main(['classify', '--measure', 'geom:0.5:2'])",
])
def test_no_scipy_module_loads_without_a_quadrature(code):
    assert _fresh_python(f"{code}\n{_SCIPY_MODULES}").splitlines()[-1] == "[]"


_HARDY_HARDY = json.dumps({"type": "mellin", "left": HARDY, "right": HARDY})


@pytest.mark.parametrize("code", [
    "from fockhaus import cli; assert cli.main(['verify', '--suite', 'examples']) == 0",
    "from fockhaus import cli; assert cli.main(['verify', '--suite', 'dilation']) == 0",
    "import pathlib, tempfile; from fockhaus import cli\n"
    "path = pathlib.Path(tempfile.mkdtemp()) / 'hardy2.json'\n"
    f"path.write_text({_HARDY_HARDY!r})\n"
    "assert cli.main(['apply', '--measure', str(path), '--fn', 'monomial:2', '--mode',"
    " 'quadrature', '--at', '0.5+0.5j']) == 0",
    "from fockhaus import cli; assert cli.main(['report', '--measure', 'beta:2:2']) == 0",
    "from fockhaus import measure; m = measure.Density(lambda t: t**-1.5, (0.8, 2.5))\n"
    "print(repr(m.mu0), repr(measure.moment(m, 3)), m.log_moments(256)[256], "
    "m.mass_below(2.0), measure.support_report(m).mass_below_1)",
], ids=["verify-examples", "verify-dilation", "apply-quadrature-hardy2", "report-beta",
        "density"])
def test_no_scipy_module_loads_on_a_quadrature_path(code):
    out = _fresh_python(f"{code}\n{_SCIPY_MODULES}").splitlines()
    assert out[-1] == "[]"
    if code.startswith("from fockhaus import measure"):
        mu0, mu3, log_mu256, below2, below1 = map(float, out[-2].split())
        # mu_n = integral of t**(-n - 2.5) over (0.8, 2.5); the mass of t**-1.5 on (0.8, x)
        assert mu0 == pytest.approx((0.8**-1.5 - 2.5**-1.5) / 1.5, rel=1e-12)
        assert mu3 == pytest.approx((0.8**-4.5 - 2.5**-4.5) / 4.5, rel=1e-12)
        assert log_mu256 == pytest.approx(-257.5 * math.log(0.8) - math.log(257.5), rel=1e-12)
        assert below2 == pytest.approx((0.8**-0.5 - 2.0**-0.5) / 0.5, rel=1e-12)
        assert below1 == pytest.approx((0.8**-0.5 - 1.0) / 0.5, rel=1e-12)
