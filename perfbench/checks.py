"""Output checks made from outside the program, after each timed call.

Each check returns a list of problems; an empty list means the envelope
passed.  Products of witness words are multiplied out with plain numpy
in the program's word convention: word (i_1, ..., i_n) is the product
A_{i_n} ... A_{i_2} A_{i_1}.
"""

from __future__ import annotations

import math

import numpy as np

from workloads import Task

_ORD = {"l1": 1, "l2": 2, "linf": np.inf}
_DEFAULT_MAX_WORDS = 1 << 24


def _rel_close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _word_product(mats: np.ndarray, word) -> np.ndarray:
    out = np.eye(mats.shape[-1])
    for i in word:
        out = mats[i - 1] @ out
    return out


def _rho(m: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(m))))


def _check_bound(task: Task, res: dict) -> list[str]:
    mats, norm = task.matrices, task.arg("--norm", "l2")
    reports = res["reports"]
    out = []
    if len(reports) != int(task.arg("--n-max")):
        out.append(f"bound: {len(reports)} reports for n_max "
                   f"{task.arg('--n-max')}")
    best_lower, best_upper = -math.inf, math.inf
    for rep in reports:
        n = rep["n"]
        rho = _rho(_word_product(mats, rep["witness_lower"])) ** (1.0 / n)
        nrm = np.linalg.norm(_word_product(mats, rep["witness_upper"]),
                             _ORD[norm]) ** (1.0 / n)
        if len(rep["witness_lower"]) != n or not _rel_close(
                rho, rep["lower"], 1e-9):
            out.append(f"bound: n={n} lower {rep['lower']!r} != witness "
                       f"spectral radius {rho!r}")
        if len(rep["witness_upper"]) != n or not _rel_close(
                nrm, rep["upper"], 1e-9):
            out.append(f"bound: n={n} upper {rep['upper']!r} != witness "
                       f"norm {nrm!r}")
        best_lower = max(best_lower, rep["lower"])
        best_upper = min(best_upper, rep["upper"])
        if (rep["best_lower"], rep["best_upper"]) != (best_lower, best_upper):
            out.append(f"bound: n={n} best bounds are not the running "
                       "max/min")
    if not res["best_lower"] <= res["best_upper"]:
        out.append("bound: best_lower > best_upper")
    if (res["best_lower"], res["best_upper"]) != (
            reports[-1]["best_lower"], reports[-1]["best_upper"]):
        out.append("bound: best bounds differ from the last report")
    return out


def _check_oracle(task: Task, res: dict) -> list[str]:
    mats, norm = task.matrices, task.arg("--norm", "l2")
    w_lo, w_up = res["witness_lower"], res["witness_upper"]
    rho = _rho(_word_product(mats, w_lo)) ** (1.0 / len(w_lo))
    nrm = np.linalg.norm(_word_product(mats, w_up),
                         _ORD[norm]) ** (1.0 / len(w_up))
    out = []
    if not _rel_close(rho, res["lower"], 1e-9):
        out.append(f"oracle: lower {res['lower']!r} != witness {rho!r}")
    if not _rel_close(nrm, res["upper"], 1e-9):
        out.append(f"oracle: upper {res['upper']!r} != witness {nrm!r}")
    if not res["lower"] <= res["upper"]:
        out.append("oracle: lower > upper")
    return out


def _check_chi_doc(chi: dict, task: Task) -> list[str]:
    out = []
    lo, inf = chi["certified_lower"], chi["sampled_inf"]
    if not 0.0 <= lo <= inf:
        out.append(f"chi: not 0 <= certified_lower {lo!r} <= sampled_inf "
                   f"{inf!r}")
    expected = max(0.0, inf - chi["lipschitz"] * chi["mesh"])
    if not (lo == expected or _rel_close(lo, expected, 1e-12)):
        out.append("chi: certified_lower != sampled_inf - lipschitz * mesh")
    norm = task.arg("--norm", "l2")
    length = float(np.linalg.norm(np.asarray(chi["argmin"]), _ORD[norm]))
    if not _rel_close(length, 1.0, 1e-9):
        out.append(f"chi: argmin has {norm} length {length!r}, not 1")
    if task.expect.get("reducible") and inf > 1e-6:
        out.append(f"chi: reducible input sampled {inf!r} > 1e-6")
    return out


def _check_irreducible(task: Task, res: dict) -> list[str]:
    out = _check_chi_doc(res["chi"], task)
    if task.expect.get("reducible") and (res["irreducible"]
                                         or res["status"] != "reducible"):
        out.append("irreducible: reducible construction reported "
                   f"{res['status']!r}")
    if res["agreement"] == "inconsistent":
        out.append("irreducible: span test and measure are inconsistent")
    return out


def _check_certify(task: Task, res: dict) -> list[str]:
    chi, iv = res["chi"], res["interval"]
    out = _check_chi_doc(chi, task)
    if not _rel_close(iv["ratio"], iv["nu_p"] ** (1.0 / iv["n"]), 1e-12):
        out.append(f"certify: ratio {iv['ratio']!r} != nu^(1/n)")
    if not iv["lower"] <= iv["upper"]:
        out.append("certify: lower > upper")
    norm = task.arg("--norm", "l2")
    set_norm = max(float(np.linalg.norm(m, _ORD[norm]))
                   for m in task.matrices)
    nu = max(1.0, set_norm ** iv["p"]) / chi["certified_lower"]
    if not _rel_close(nu, iv["nu_p"], 1e-9):
        out.append(f"certify: nu_p {iv['nu_p']!r} != max(1, ||set||^p) / "
                   f"chi = {nu!r}")
    return out


def _check_plan(task: Task, res: dict) -> list[str]:
    nu, eps = float(task.arg("--nu")), float(task.arg("--epsilon"))
    r, n = int(task.arg("--r")), res["n"]
    out = []
    if nu ** (1.0 / n) > 1.0 + eps or (n > 1 and
                                        nu ** (1.0 / (n - 1)) <= 1.0 + eps):
        out.append(f"plan: n={n} is not the smallest n with "
                   "nu^(1/n) <= 1 + epsilon")
    if res["products_required"] != r ** n:
        out.append("plan: products_required != r^n")
    if res["fits_budget"] != (r ** n <= _DEFAULT_MAX_WORDS):
        out.append("plan: fits_budget disagrees with r^n")
    return out


def _check_gamma(task: Task, res: dict) -> list[str]:
    d = task.matrices.shape[-1]
    out = []
    if not res["gamma_lower"] >= 0.0:
        out.append("gamma: negative gamma_lower")
    if len(res["p_values"]) != d - 1 or res["heuristic"] != (d == 3):
        out.append("gamma: p_values or heuristic flag do not match d")
    return out


def _check_example(task: Task, res: dict) -> list[str]:
    a = task.matrices[0]
    d = a.shape[0]
    family = task.args[0]
    if family == "p":
        expected = [np.eye(d) for _ in range(d)]
        for i, m in enumerate(expected):
            m[i, :] = a[i, :]
    else:
        expected = [a.copy()]
        for i in range(d):
            m = a.copy()
            m[i, :] = -m[i, :]
            expected.append(m)
    out = []
    got = res["set"]["matrices"]
    if len(got) != len(expected) or any(
            not np.array_equal(np.array(g), e) for g, e in zip(got, expected)):
        out.append(f"example: family {family} set does not match its "
                   "construction")
    b = res["bound"]
    if not _rel_close(b["chi_lower"], b["alpha"] * b["beta"] ** (d - 1),
                      1e-12):
        out.append("example: chi_lower != alpha * beta^(d-1)")
    return out


def _check_zero_test(task: Task, res: dict) -> list[str]:
    if res["zero_radius"] != task.expect["zero_radius"]:
        return [f"zero-test: got {res['zero_radius']}, construction says "
                f"{task.expect['zero_radius']}"]
    return []


def _check_kronecker(task: Task, res: dict) -> list[str]:
    r, n = task.matrices.shape[0], int(task.arg("--n"))
    out = []
    if not _rel_close(res["ratio"], r ** (1.0 / n), 1e-12):
        out.append("kronecker: ratio != r^(1/n)")
    if not 0.0 <= res["lower"] <= res["upper"]:
        out.append("kronecker: not 0 <= lower <= upper")
    elif not _rel_close(res["upper"] / res["lower"], res["ratio"], 1e-9):
        out.append("kronecker: upper / lower != ratio")
    return out


_CHECKS = {
    "bound": _check_bound,
    "oracle": _check_oracle,
    "chi": lambda task, res: _check_chi_doc(res, task),
    "irreducible": _check_irreducible,
    "certify": _check_certify,
    "plan": _check_plan,
    "gamma": _check_gamma,
    "example": _check_example,
    "zero-test": _check_zero_test,
    "kronecker": _check_kronecker,
}


def check_call(task: Task, exit_code: int, doc: dict | None) -> list[str]:
    """Problems with one call's exit code and output envelope."""
    if exit_code != 0:
        return [f"{task.command}: exit code {exit_code}"]
    if doc is None or "error" in doc:
        return [f"{task.command}: error envelope "
                f"{(doc or {}).get('error')!r}"]
    if doc.get("command") != task.command or "result" not in doc:
        return [f"{task.command}: malformed envelope"]
    try:
        return _CHECKS[task.command](task, doc["result"])
    except (KeyError, TypeError, ValueError, IndexError,
            ZeroDivisionError) as exc:
        return [f"{task.command}: unreadable result ({exc!r})"]


def check_pairs(tasks: list[Task], docs: list[dict | None]) -> set[int]:
    """Indices of `bound` or `oracle` calls that disagree with their twin.

    A `bound` and an `oracle` call on the same input and n_max must give
    the same best bounds within 1e-9 relative.
    """
    twins: dict[int, dict[str, int]] = {}
    for i, t in enumerate(tasks):
        if "pair" in t.expect:
            twins.setdefault(t.expect["pair"], {})[t.command] = i
    bad: set[int] = set()
    for pair in twins.values():
        ib, io = pair.get("bound"), pair.get("oracle")
        if ib is None or io is None:
            continue
        try:
            b, o = docs[ib]["result"], docs[io]["result"]
            agree = (_rel_close(b["best_lower"], o["lower"], 1e-9)
                     and _rel_close(b["best_upper"], o["upper"], 1e-9))
        except (KeyError, TypeError):
            agree = False
        if not agree:
            bad.update((ib, io))
    return bad
