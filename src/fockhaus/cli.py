"""Command-line front door: moments | apply | norm | classify | verify | report.

All numeric output is printed with a fixed 13-significant-digit format so a
given invocation is byte-reproducible.  Exit codes: 0 success, 1 usage
error, 2 mathematical precondition failure.
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import json
import math
import os
import sys

from . import classify, entire, harness, measure
from .focknorm import INF, FockParams, mixed_norm
from .hausdorff import HausdorffOperator, IllDefined, apply_quadrature, apply_spectral

FMT = "%.13g"
_SIZE_CAP = 10**6  # the largest --n and monomial:n; past it a call exits 2 at once


def _fmt(x: float) -> str:
    return FMT % x


def _size(n: int) -> int:
    if n > _SIZE_CAP:
        raise measure.DomainError(f"size {n} is past the cap {_SIZE_CAP}")
    return n


def _parse_exponent(text: str) -> float:
    value = float(text)  # reads every spelling of inf
    if value <= 0:
        raise argparse.ArgumentTypeError("exponents must be positive or 'inf'")
    return value


def _read_json(path: str, from_json_dict):
    """from_json_dict of the JSON at path; a value of the wrong shape is a ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        return from_json_dict(data)
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"{path} holds JSON of the wrong shape: {exc}") from None


def _load_measure(descriptor: str) -> measure.MeasureSpec:
    if os.path.exists(descriptor):
        return _read_json(descriptor, measure.from_json_dict)
    return measure.named_measure(descriptor)


def _load_function(descriptor: str, alpha: float) -> entire.CoeffFunction:
    if os.path.exists(descriptor):
        return _read_json(descriptor, entire.from_json_dict)
    parts = descriptor.split(":")
    head = parts[0]
    if head == "monomial" and len(parts) == 2:
        return entire.monomial(_size(int(parts[1])))
    if head == "kernel" and len(parts) == 4:
        beta = float(parts[1])
        a = complex(float(parts[2]), float(parts[3]))
        return entire.kernel(beta, a, radius=12.0)
    if head == "peak" and len(parts) == 2:
        return entire.gaussian_peak(int(parts[1]), alpha)
    raise ValueError(f"unknown function descriptor {descriptor!r}")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="fockhaus", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_fock_flags(p, need_fn=False):
        p.add_argument("--p", type=_parse_exponent, default=2.0)
        p.add_argument("--q", type=_parse_exponent, default=None)
        p.add_argument("--alpha", type=float, default=1.0)
        if need_fn:
            p.add_argument("--fn", required=True, help="monomial:n | kernel:b:re:im | peak:n | JSON path")

    p_mom = sub.add_parser("moments", help="print mu_0..mu_N")
    p_mom.add_argument("--measure", required=True)
    p_mom.add_argument("--n", type=int, default=10)

    p_apply = sub.add_parser("apply", help="apply the operator to a function")
    p_apply.add_argument("--measure", required=True)
    p_apply.add_argument("--fn", required=True)
    p_apply.add_argument("--mode", choices=("spectral", "quadrature"), default="spectral")
    p_apply.add_argument("--alpha", type=float, default=1.0)
    p_apply.add_argument(
        "--at",
        default="1,0.5+0.5j",
        help="comma-separated complex sample points (quadrature mode)",
    )

    p_norm = sub.add_parser("norm", help="Fock / mixed-norm of a function")
    add_fock_flags(p_norm, need_fn=True)

    p_cls = sub.add_parser("classify", help="run every applicable criterion")
    p_cls.add_argument("--measure", required=True)
    p_cls.add_argument("--p", type=_parse_exponent, default=1.0)
    p_cls.add_argument("--q", type=_parse_exponent, default=INF)
    p_cls.add_argument("--alpha", type=float, default=1.0)
    p_cls.add_argument("--weight", default=None, help="gauss:alpha")

    p_ver = sub.add_parser("verify", help="run a verification suite, emit CSV")
    p_ver.add_argument("--suite", default="all", help="all|" + "|".join(harness.SUITES))
    p_ver.add_argument("--seed", type=int, default=42)

    p_rep = sub.add_parser("report", help="full multi-criterion dossier as JSON")
    p_rep.add_argument("--measure", required=True)
    p_rep.add_argument("--p", type=_parse_exponent, default=1.0)
    p_rep.add_argument("--q", type=_parse_exponent, default=INF)
    p_rep.add_argument("--alpha", type=float, default=1.0)
    p_rep.add_argument("--n", type=int, default=10)
    return parser


def _round_floats(obj):
    """Floats at FMT precision; inf, -inf and nan become strings, so the JSON is strict."""
    if isinstance(obj, float):
        return float(_fmt(obj)) if math.isfinite(obj) else _fmt(obj)
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _classification_reports(m, p, q, alpha, weight):
    reports = [
        classify.classify_entire(m),
        classify.classify_bounded(m, p=p, q=q, alpha=alpha),
        classify.classify_compact(m, p=p, q=q, alpha=alpha),
    ]
    if weight is not None:
        if not weight.startswith("gauss:"):
            raise ValueError(f"unknown weight descriptor {weight!r}")
        reports.extend(
            classify.classify_weighted(m, classify.gauss_weight(float(weight[6:])))
        )
    reports.extend(classify.smoothing_criteria(m, p=p, q=q, alpha=alpha))
    reports.extend(classify.summing_criteria(m, p=p, q=q))
    return reports


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if hasattr(args, "alpha"):
            entire._check_alpha(args.alpha)
        if args.command == "moments":
            m = _load_measure(args.measure)
            seq = measure.moments(m, _size(args.n))
            print(", ".join(_fmt(v) for v in seq.values))
        elif args.command == "apply":
            m = _load_measure(args.measure)
            op = HausdorffOperator(m)
            f = _load_function(args.fn, args.alpha)
            if args.mode == "spectral":
                g = apply_spectral(op, f)
                print(json.dumps(_round_floats(g.to_json_dict()), allow_nan=False))
            else:
                zs = [complex(tok) for tok in args.at.split(",") if tok]
                if not all(map(cmath.isfinite, zs)):
                    raise ValueError(f"sample points must be finite, got {args.at!r}")
                vals = apply_quadrature(op, f, zs)
                for z, v in zip(zs, vals):
                    print(f"{z!r} -> {_fmt(v.real)} {'+' if v.imag >= 0 else '-'} {_fmt(abs(v.imag))}j")
        elif args.command == "norm":
            f = _load_function(args.fn, args.alpha)
            q = args.p if args.q is None else args.q
            print(_fmt(mixed_norm(f, FockParams(args.p, q, args.alpha))))
        elif args.command == "classify":
            m = _load_measure(args.measure)
            reports = _classification_reports(m, args.p, args.q, args.alpha, args.weight)
            print(json.dumps(_round_floats([r.as_dict() for r in reports]), indent=2,
                             allow_nan=False))
        elif args.command == "verify":
            results = harness.run_suite(args.suite, seed=args.seed)
            sys.stdout.write(harness.results_to_csv(results))
        elif args.command == "report":
            m = _load_measure(args.measure)
            seq = measure.moments(m, _size(args.n))
            rep = measure.support_report(m)
            dossier = {
                "measure": m.to_json_dict(),
                "support": dataclasses.asdict(rep),
                "moments": seq.values,
                "moment_methods": seq.methods,
                "criteria": [
                    r.as_dict()
                    for r in _classification_reports(m, args.p, args.q, args.alpha, None)
                ],
            }
            print(json.dumps(_round_floats(dossier), indent=2, allow_nan=False))
        else:  # pragma: no cover
            return 1
    except (
        measure.DivergentMoment,
        measure.ZeroMeasure,
        measure.DomainError,
        entire.TruncationError,
        IllDefined,
        classify.HypothesisNotDeclared,
        classify.CriterionInapplicable,
    ) as exc:
        print(f"fockhaus: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError) as exc:
        print(f"fockhaus: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
