"""Command-line interface emitting deterministic JSON envelopes.

Every command prints a single JSON document

    {"command": ..., "input_digest": ..., "params": ..., "result": ...,
     "warnings": [...]}

and exits 0 on success, 1 on a computation error (the error text is
carried verbatim in an "error" field), and 2 on a usage error.  Outputs
contain no timestamps or other run-dependent fields, so repeated runs on
identical inputs are byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

from . import bounds as _bounds
from . import certificates as _certificates
from . import families as _families
from . import irreducibility as _irreducibility
from . import oracle as _oracle
from .core import (
    DEFAULT_WORD_BUDGET,
    MatrixSet,
    NormKind,
    parse_matrix_set,
)
from .errors import InputFormatError, JsrError

_DEF_NORM = "l2"
_DEF_MESH = 0.01
_DEF_EPSILON = 0.05
_DEF_N_MAX = 6

_TRACE_WARNING = (
    "trace estimate is heuristic: a finite n gives neither a lower nor an "
    "upper bound"
)
_GAMMA_WARNING = (
    "subspace-escape estimate is heuristic: the netted infimum can "
    "overestimate"
)
_CHI_UNCERTIFIED_WARNING = (
    "irreducibility not certified at this mesh (certified_lower = 0)"
)


def _read_input(path: str) -> tuple[MatrixSet, str]:
    with open(path, "rb") as fh:
        raw = fh.read()
    digest = "sha256:" + hashlib.sha256(raw).hexdigest()
    return parse_matrix_set(raw.decode("utf-8")), digest


def _emit(doc: dict, output: str | None) -> None:
    text = json.dumps(doc, indent=2) + "\n"
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _envelope(command: str, digest: str | None, params: dict,
              result, warnings: list[str]) -> dict:
    return {
        "command": command,
        "input_digest": digest,
        "params": params,
        "result": result,
        "warnings": warnings,
    }


def _add_common(parser: argparse.ArgumentParser, *, with_input: bool = True,
                with_norm: bool = True) -> None:
    if with_input:
        parser.add_argument("--input", required=True,
                            help="path to the matrix-set JSON file")
    if with_norm:
        parser.add_argument("--norm", default=_DEF_NORM,
                            choices=["l1", "l2", "linf"])
    parser.add_argument("--output", default=None,
                        help="write the JSON document here instead of stdout")
    parser.add_argument("--max-words", type=int, default=DEFAULT_WORD_BUDGET,
                        help="product enumeration budget")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jsrbound",
        description="Certified bounds for the joint spectral radius",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="norm/spectral sandwich over n = 1..n_max")
    _add_common(p)
    p.add_argument("--n-max", type=int, default=_DEF_N_MAX)
    p.add_argument("--trace", action="store_true",
                   help="also report heuristic trace estimates")

    p = sub.add_parser("oracle", help="brute-force reference interval")
    _add_common(p)
    p.add_argument("--n-max", type=int, default=_DEF_N_MAX)

    p = sub.add_parser("chi", help="sampled irreducibility measure")
    _add_common(p)
    p.add_argument("--p", type=int, default=None,
                   help="max product length (default d - 1)")
    p.add_argument("--mesh", type=float, default=_DEF_MESH)

    p = sub.add_parser("irreducible",
                       help="algebraic test cross-checked with the measure")
    _add_common(p)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--mesh", type=float, default=_DEF_MESH)
    p.add_argument("--tol", type=float, default=1e-6,
                   help="agreement tolerance on the sampled measure")

    p = sub.add_parser("certify",
                       help="certified enclosure driven by the measure")
    _add_common(p)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--mesh", type=float, default=_DEF_MESH)
    p.add_argument("--n", type=int, default=_DEF_N_MAX)

    p = sub.add_parser("plan", help="steps needed for a target accuracy")
    _add_common(p, with_input=False, with_norm=False)
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--epsilon", type=float, default=_DEF_EPSILON)
    p.add_argument("--r", type=int, default=None,
                   help="member count, to check the enumeration budget")

    p = sub.add_parser("gamma", help="subspace-escape lower estimate")
    _add_common(p, with_norm=False)
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--rho-upper", type=float, default=None)
    p.add_argument("--n", type=int, default=None,
                   help="report gamma^(1/n) * upper as an alternative "
                        "lower bound at this n")

    p = sub.add_parser("example",
                       help="closed-form family bound from a single matrix")
    p.add_argument("family", choices=["p", "v"])
    _add_common(p, with_norm=False)

    p = sub.add_parser("zero-test", help="exact zero-radius test")
    _add_common(p, with_norm=False)

    p = sub.add_parser("kronecker",
                       help="Kronecker-power bounds for nonnegative sets")
    _add_common(p, with_norm=False)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--max-kron-dim", type=int,
                   default=_bounds.DEFAULT_KRON_DIM_LIMIT)

    return parser


def _default_p(args_p: int | None, dim: int) -> int:
    return args_p if args_p is not None else max(1, dim - 1)


def _run_bound(args) -> dict:
    mset, digest = _read_input(args.input)
    kind = NormKind.from_name(args.norm)
    warnings: list[str] = []
    reports = _bounds.sandwich(mset, args.n_max, kind, args.max_words)
    result = {
        "reports": [rep.to_dict() for rep in reports],
        "best_lower": reports[-1].best_lower,
        "best_upper": reports[-1].best_upper,
    }
    if args.trace:
        traces = [
            _bounds.trace_estimate(mset, n, args.max_words)
            for n in range(1, args.n_max + 1)
        ]
        result["trace_estimates"] = traces
        warnings.append(_TRACE_WARNING)
    params = {
        "norm": kind.value,
        "n_max": args.n_max,
        "trace": bool(args.trace),
        "max_words": args.max_words,
    }
    return _envelope("bound", digest, params, result, warnings)


def _run_oracle(args) -> dict:
    mset, digest = _read_input(args.input)
    kind = NormKind.from_name(args.norm)
    interval = _oracle.brute_force_interval(
        mset, args.n_max, kind, args.max_words
    )
    params = {
        "norm": kind.value,
        "n_max": args.n_max,
        "max_words": args.max_words,
    }
    return _envelope("oracle", digest, params, interval.to_dict(), [])


def _run_chi(args) -> dict:
    mset, digest = _read_input(args.input)
    kind = NormKind.from_name(args.norm)
    p = _default_p(args.p, mset.dim)
    chi = _irreducibility.chi_measure(
        mset, p, kind, args.mesh, max_words=args.max_words
    )
    warnings = []
    if chi.certified_lower <= 0.0:
        warnings.append(_CHI_UNCERTIFIED_WARNING)
    params = {
        "norm": kind.value,
        "p": p,
        "mesh": args.mesh,
        "max_words": args.max_words,
    }
    return _envelope("chi", digest, params, chi.to_dict(), warnings)


def _run_irreducible(args) -> dict:
    mset, digest = _read_input(args.input)
    kind = NormKind.from_name(args.norm)
    p = _default_p(args.p, mset.dim)
    report = _irreducibility.lemma1_crosscheck(
        mset, p, kind, args.mesh, tolerance=args.tol, max_words=args.max_words
    )
    warnings = []
    if report.chi.certified_lower <= 0.0:
        warnings.append(_CHI_UNCERTIFIED_WARNING)
    params = {
        "norm": kind.value,
        "p": p,
        "mesh": args.mesh,
        "tol": args.tol,
        "max_words": args.max_words,
    }
    return _envelope("irreducible", digest, params, report.to_dict(), warnings)


def _run_certify(args) -> dict:
    mset, digest = _read_input(args.input)
    kind = NormKind.from_name(args.norm)
    p = _default_p(args.p, mset.dim)
    chi = _irreducibility.chi_measure(
        mset, p, kind, args.mesh, max_words=args.max_words
    )
    # The certificate constant always uses the certified lower bound,
    # never the sampled infimum.
    interval = _certificates.certified_interval(
        mset, args.n, p, kind, chi.certified_lower, args.max_words
    )
    params = {
        "norm": kind.value,
        "p": p,
        "mesh": args.mesh,
        "n": args.n,
        "max_words": args.max_words,
    }
    result = {"chi": chi.to_dict(), "interval": interval.to_dict()}
    return _envelope("certify", digest, params, result, [])


def _run_plan(args) -> dict:
    plan = _certificates.plan_steps(
        args.nu, args.epsilon, r=args.r, max_words=args.max_words
    )
    params = {
        "nu": args.nu,
        "epsilon": args.epsilon,
        "r": args.r,
        "max_words": args.max_words,
    }
    return _envelope("plan", None, params, plan.to_dict(), [])


def _run_gamma(args) -> dict:
    mset, digest = _read_input(args.input)
    estimate = _certificates.protasov_gamma(
        mset, rho_upper=args.rho_upper, samples=args.samples
    )
    result = estimate.to_dict()
    warnings = [_GAMMA_WARNING] if estimate.heuristic else []
    if args.n is not None:
        upper = _bounds.gelfand_upper(
            mset, args.n, NormKind.L2, args.max_words
        )
        result["alternative_lower"] = (
            estimate.gamma_lower ** (1.0 / args.n) * upper
            if estimate.gamma_lower > 0.0 else 0.0
        )
        result["alternative_lower_n"] = args.n
        warnings.append(
            "alternative lower bound is heuristic: it inherits the netted "
            "escape estimate"
        )
    params = {
        "samples": args.samples,
        "rho_upper": args.rho_upper,
        "n": args.n,
        "max_words": args.max_words,
    }
    return _envelope("gamma", digest, params, result, warnings)


def _run_example(args) -> dict:
    mset, digest = _read_input(args.input)
    if mset.r != 1:
        raise InputFormatError(
            f"the example command expects a single matrix, got {mset.r}"
        )
    a = mset.members[0]
    if args.family == "p":
        bound = _families.row_substitution_bound(a)
        family_set = _families.row_substitution_family(a)
    else:
        bound = _families.row_sign_flip_bound(a)
        family_set = _families.row_sign_flip_family(a)
    result = {"bound": bound.to_dict(), "set": family_set.to_dict()}
    params = {"family": args.family, "max_words": args.max_words}
    return _envelope("example", digest, params, result, [])


def _run_zero_test(args) -> dict:
    mset, digest = _read_input(args.input)
    is_zero = _bounds.zero_radius_test(mset, args.max_words)
    params = {"max_words": args.max_words}
    return _envelope("zero-test", digest, params, {"zero_radius": is_zero}, [])


def _run_kronecker(args) -> dict:
    mset, digest = _read_input(args.input)
    lower, upper = _bounds.kronecker_bounds(mset, args.n, args.max_kron_dim)
    result = {
        "n": args.n,
        "lower": lower,
        "upper": upper,
        "ratio": mset.r ** (1.0 / args.n),
    }
    params = {
        "n": args.n,
        "max_kron_dim": args.max_kron_dim,
        "max_words": args.max_words,
    }
    return _envelope("kronecker", digest, params, result, [])


_RUNNERS = {
    "bound": _run_bound,
    "oracle": _run_oracle,
    "chi": _run_chi,
    "irreducible": _run_irreducible,
    "certify": _run_certify,
    "plan": _run_plan,
    "gamma": _run_gamma,
    "example": _run_example,
    "zero-test": _run_zero_test,
    "kronecker": _run_kronecker,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    runner = _RUNNERS[args.command]
    try:
        doc = runner(args)
    except JsrError as exc:
        _emit({"command": args.command, "error": str(exc)},
              getattr(args, "output", None))
        return 1
    except (OSError, ValueError) as exc:
        _emit({"command": args.command, "error": str(exc)},
              getattr(args, "output", None))
        return 1
    _emit(doc, args.output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
