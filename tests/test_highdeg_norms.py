"""High-degree Fock and mixed norms against a golden file.

The golden file holds 44 norms of degree 120-213 functions at the (p, q)
pairs of the norms-highdeg benchmark: the anchor kernel K_2(., 5) and one
seeded kernel each at |beta a| = 5 and 7, each at p = q; the monomials
u_120 and u_190 with a seeded leading coefficient, and seeded unit-disk
polynomials of degree 140 and 213, each at p in {0.5, 1, 4, inf} and
q in {1, inf}.  A change that makes circle means or radial rules faster must
leave these values where they are: p = 0.5 kernels, whose means sit on a
rounding floor, to 1e-7 relative, and every other norm to 1e-13.
Regenerate the file after an intended change of values with

    PYTHONPATH=src python tests/test_highdeg_norms.py

and list the change of every entry in CHANGES.md.
"""

import cmath
import json
import math
import pathlib

import numpy as np
import pytest

from fockhaus import entire
from fockhaus.focknorm import INF, FockParams, fock_norm, mixed_norm

GOLDEN = pathlib.Path(__file__).parent / "golden" / "highdeg-norms.json"

P4 = (0.5, 1.0, 4.0, INF)
Q2 = (1.0, INF)
KERNEL_RADIUS = 12.0


def highdeg_cases():
    """(name, function, (p, q) pairs) for the golden file, in a fixed order."""
    rng = np.random.default_rng(20)
    cases = [("kernel 2 5", entire.kernel(2.0, 5.0, radius=KERNEL_RADIUS), "kernel")]
    for c_abs, n_mono, n_poly in ((5.0, 120, 140), (7.0, 190, 213)):
        beta = rng.uniform(1.0, 2.0)
        a = cmath.rect(c_abs / beta, rng.uniform(0.0, 2.0 * math.pi))
        lead = cmath.rect(rng.uniform(0.5, 2.0), rng.uniform(0.0, 2.0 * math.pi))
        coeffs = np.sqrt(rng.random(n_poly + 1)) * np.exp(
            1j * rng.uniform(0.0, 2.0 * math.pi, n_poly + 1))
        cases += [
            (f"kernel |beta a|={c_abs:g}", entire.kernel(beta, a, radius=KERNEL_RADIUS),
             "kernel"),
            (f"monomial {n_mono}", entire.CoeffFunction([0.0] * n_mono + [lead]), "other"),
            (f"polynomial {n_poly}", entire.CoeffFunction(coeffs), "other"),
        ]
    for name, f, kind in cases:
        pairs = [(p, p) for p in P4] if kind == "kernel" else [(p, q) for p in P4 for q in Q2]
        yield name, f, pairs


CASES = list(highdeg_cases())


def norm(f, p, q):
    if p == q:
        return fock_norm(f, p, 1.0)
    return mixed_norm(f, FockParams(p, q, 1.0))


def key(name, p, q):
    return f"{name} p={p:g} q={q:g}"


def compute():
    return {key(name, p, q): norm(f, p, q) for name, f, pairs in CASES for p, q in pairs}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_covers_every_case(golden):
    keys = [key(name, p, q) for name, _, pairs in CASES for p, q in pairs]
    assert len(keys) == 44
    assert list(golden) == keys


@pytest.mark.parametrize("name,f,pairs", CASES, ids=[name for name, _, _ in CASES])
def test_norms_match_the_golden_file(name, f, pairs, golden):
    for p, q in pairs:
        rel = 1e-7 if name.startswith("kernel") and p == 0.5 else 1e-13
        assert norm(f, p, q) == pytest.approx(golden[key(name, p, q)], rel=rel), (p, q)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(compute(), indent=1) + "\n", encoding="utf-8")
