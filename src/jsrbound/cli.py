"""Command-line interface emitting deterministic JSON envelopes.

Every command prints a single JSON document

    {"command": ..., "input_digest": ..., "params": ..., "result": ...,
     "warnings": [...]}

and exits 0 on success, 1 on a computation error (the error text is
carried verbatim in an "error" field), and 2 on a usage error.  "params"
lists the subcommand's options in parser order, without --input and
--output, with the norm and the default p resolved; "result" is the
JSON form of the runner's result (``core._plain``).  Outputs contain no
timestamps or other run-dependent fields, so repeated runs on identical
inputs are byte-identical.  Every document is strict JSON: a float
beyond the float range prints as null, and one that is not a number
gives an error envelope.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys

from . import bounds as _bounds
from . import certificates as _certificates
from . import families as _families
from . import irreducibility as _irreducibility
from . import oracle as _oracle
from .core import (
    DEFAULT_WORD_BUDGET,
    RADIUS,
    TRACE,
    MatrixSet,
    NormKind,
    _plain,
    _root,
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


def _add_common(parser: argparse.ArgumentParser, run, *,
                with_input: bool = True, with_norm: bool = True) -> None:
    parser.set_defaults(run=run)
    if with_input:
        parser.add_argument("--input", required=True,
                            help="path to the matrix-set JSON file")
    if with_norm:
        parser.add_argument("--norm", default=_DEF_NORM,
                            choices=["l1", "l2", "linf"])
    parser.add_argument("--output", default=None,
                        help="write the JSON document here instead of stdout")


def _add_budget(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-words", type=int, default=DEFAULT_WORD_BUDGET,
                        help="product enumeration budget")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: each ``parse_args`` starts a
    fresh namespace from the defaults, so no option carries over."""
    parser = argparse.ArgumentParser(
        prog="jsrbound",
        description="Certified bounds for the joint spectral radius",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="norm/spectral sandwich over n = 1..n_max")
    _add_common(p, _run_bound)
    p.add_argument("--n-max", type=int, default=_DEF_N_MAX)
    p.add_argument("--trace", action="store_true",
                   help="also report heuristic trace estimates")
    _add_budget(p)

    p = sub.add_parser("oracle", help="brute-force reference interval")
    _add_common(p, _run_oracle)
    p.add_argument("--n-max", type=int, default=_DEF_N_MAX)
    _add_budget(p)

    p = sub.add_parser("chi", help="sampled irreducibility measure")
    _add_common(p, _run_chi)
    p.add_argument("--p", type=int, default=None,
                   help="max product length (default d - 1)")
    p.add_argument("--mesh", type=float, default=_DEF_MESH)
    _add_budget(p)

    p = sub.add_parser("irreducible",
                       help="algebraic test cross-checked with the measure")
    _add_common(p, _run_irreducible)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--mesh", type=float, default=_DEF_MESH)
    p.add_argument("--tol", type=float, default=1e-6,
                   help="agreement tolerance on the sampled measure of "
                        "a reducible set, in units of the largest norm "
                        "of the reach products")
    _add_budget(p)

    p = sub.add_parser("certify",
                       help="certified enclosure driven by the measure")
    _add_common(p, _run_certify)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--mesh", type=float, default=_DEF_MESH)
    p.add_argument("--n", type=int, default=_DEF_N_MAX)
    _add_budget(p)

    p = sub.add_parser("plan", help="steps needed for a target accuracy")
    _add_common(p, _run_plan, with_input=False, with_norm=False)
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--epsilon", type=float, default=_DEF_EPSILON)
    p.add_argument("--r", type=int, default=None,
                   help="member count, to check the enumeration budget")
    _add_budget(p)

    p = sub.add_parser("gamma", help="subspace-escape lower estimate")
    _add_common(p, _run_gamma, with_norm=False)
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--rho-upper", type=float, default=None)
    p.add_argument("--n", type=int, default=None,
                   help="report gamma^(1/n) * upper as an alternative "
                        "lower bound at this n")
    _add_budget(p)

    p = sub.add_parser("example",
                       help="closed-form family bound from a single matrix")
    p.add_argument("family", choices=["p", "v"])
    _add_common(p, _run_example, with_norm=False)

    p = sub.add_parser("zero-test", help="exact zero-radius test")
    _add_common(p, _run_zero_test, with_norm=False)
    _add_budget(p)

    p = sub.add_parser("kronecker",
                       help="Kronecker-power bounds for nonnegative sets")
    _add_common(p, _run_kronecker, with_norm=False)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--max-kron-dim", type=int,
                   default=_bounds.DEFAULT_KRON_DIM_LIMIT)

    return parser


# Each runner takes the parsed options, with ``norm`` a NormKind and ``p``
# resolved, and the input set (None for plan); it returns the result and
# the warnings.

def _run_bound(args, mset):
    if not args.trace:
        return _bound_result(_bounds.sandwich(mset, args.n_max, args.norm,
                                              args.max_words)), []
    # The bounds and ``trace_estimate`` for every n, from one pass over the
    # levels.
    levels = _bounds._bound_levels(mset, args.n_max,
                                   [args.norm, RADIUS, TRACE], args.max_words)
    result = _bound_result(_bounds._reports(args.norm, levels))
    result["trace_estimates"] = [_root(*trace[:2], n) for n, (*_, trace)
                                 in enumerate(levels, start=1)]
    return result, [_TRACE_WARNING]


def _bound_result(reports) -> dict:
    return {
        "reports": reports,
        "best_lower": reports[-1].best_lower,
        "best_upper": reports[-1].best_upper,
    }


def _run_oracle(args, mset):
    return _oracle.brute_force_interval(
        mset, args.n_max, args.norm, args.max_words
    ), []


def _chi_warnings(chi) -> list[str]:
    return [_CHI_UNCERTIFIED_WARNING] if chi.certified_lower <= 0.0 else []


def _run_chi(args, mset):
    chi = _irreducibility.chi_measure(
        mset, args.p, args.norm, args.mesh, max_words=args.max_words
    )
    return chi, _chi_warnings(chi)


def _run_irreducible(args, mset):
    report = _irreducibility.lemma1_crosscheck(
        mset, args.p, args.norm, args.mesh, tolerance=args.tol,
        max_words=args.max_words
    )
    return report, _chi_warnings(report.chi)


def _run_certify(args, mset):
    chi = _irreducibility.chi_measure(
        mset, args.p, args.norm, args.mesh, max_words=args.max_words
    )
    # The certificate constant always uses the certified lower bound,
    # never the sampled infimum.
    interval = _certificates.certified_interval(
        mset, args.n, args.p, args.norm, chi.certified_lower, args.max_words
    )
    return {"chi": chi, "interval": interval}, []


def _run_plan(args, mset):
    return _certificates.plan_steps(
        args.nu, args.epsilon, r=args.r, max_words=args.max_words
    ), []


def _run_gamma(args, mset):
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
    return result, warnings


def _run_example(args, mset):
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
    return {"bound": bound, "set": family_set.to_dict()}, []


def _run_zero_test(args, mset):
    return {"zero_radius": _bounds.zero_radius_test(mset, args.max_words)}, []


def _run_kronecker(args, mset):
    lower, upper = _bounds.kronecker_bounds(mset, args.n, args.max_kron_dim)
    return {
        "n": args.n,
        "lower": lower,
        "upper": upper,
        "ratio": mset.r ** (1.0 / args.n),
    }, []


# Parsed options that are not parameters: subcommand, runner and files.
_NOT_PARAMS = ("command", "run", "input", "output")


def _run(args) -> dict:
    """Read the input, resolve the norm and the default p, run the command."""
    mset = digest = None
    if "input" in args:
        mset, digest = _read_input(args.input)
    if "norm" in args:
        args.norm = NormKind(args.norm)
    if "p" in args and args.p is None:
        args.p = max(1, mset.dim - 1)
    result, warnings = args.run(args, mset)
    return {
        "command": args.command,
        "input_digest": digest,
        "params": _plain({k: v for k, v in vars(args).items()
                          if k not in _NOT_PARAMS}),
        "result": _plain(result),
        "warnings": warnings,
    }


def _finite(value):
    """A plain value with each float beyond the float range as None."""
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_finite(v) for v in value]
    return None if isinstance(value, float) and math.isinf(value) else value


def _dumps(doc: dict) -> str:
    """The strict JSON text of a document; ValueError on a NaN."""
    return json.dumps(_finite(doc), indent=2, allow_nan=False)


def _error_envelope(args, exc: Exception) -> str:
    """The error text, plus the steps completed before it (``partial``)."""
    doc = {"command": args.command, "error": str(exc)}
    if getattr(exc, "partial", None):
        doc["partial"] = _plain(exc.partial)
    return _dumps(doc)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # Dumping stays inside the try: a result that cannot be printed gives
    # an error envelope too.
    try:
        text, code = _dumps(_run(args)), 0
    except (JsrError, OSError, ValueError) as exc:
        text, code = _error_envelope(args, exc), 1
    if args.output:
        # An --output that cannot be written sends its error to stdout.
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
            return code
        except OSError as exc:
            text, code = _error_envelope(args, exc), 1
    sys.stdout.write(text + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
