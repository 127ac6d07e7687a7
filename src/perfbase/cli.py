"""Command-line front end and certificate I/O.

Certificates are JSON documents (schema version "1") holding the field, the
construction name and parameters, the target-space basis, the claimed base,
any auxiliary matrices, and the verification report.  Field elements
serialize as canonical integer encodings and matrices as row-major integer
arrays, so fixtures diff cleanly and third parties can re-check them without
this library.

Exit codes: 0 verified, 1 internal verification failure (a bug), 2 invalid
input, 3 search guard exceeded.  The last stdout line is always a single
JSON object, usage errors included.  `construct` refuses a parameter flag
that its kind does not read, and `verify` refuses a key that no object of
a certificate may carry.

Inputs and certificates are capped at MAX_INPUT_ENTRIES matrix entries.
`construct` refuses a request before building it when its kind's lower bound
on the certificate's entries, a formula of the flags, is over the cap; the
built certificate is then checked against the cap exactly.  A negative size
flag (--m, --n, --s, --k, --d) is refused as it is parsed.

`construct` and `rmcode` are imported only to construct or to run the
oracle, through the package's names resolved on first use, and `verify`
takes a code's distance from `exactla._least_rank`, the one least-rank rule.
So `verify` of a small certificate never imports numpy; a wide one loads it
from `gf._backend`, after `main` has set one OpenBLAS thread unless the
caller set OPENBLAS_NUM_THREADS.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from typing import Callable, NamedTuple

import perfbase

from .errors import (
    GuardExceeded,
    InternalVerificationError,
    ParametersOutOfRange,
    PerfbaseError,
)
from .exactla import DEFAULT_SCAN_GUARD, FqMatrix, MatrixSpace, _least_rank
from .gf import Field, field_make
from .tensor3 import (
    DEFAULT_GUARD,
    BaseCandidate,
    exhaustive_trk,
    kruskal_bound,
    rank_lower_bound,
    verify_base,
)

SCHEMA_VERSION = "1"
# the top-level keys a certificate may carry; `verify` refuses any other
CERTIFICATE_KEYS = frozenset({"schema_version", "field", "construction", "target_basis",
                              "base", "auxiliary", "report", "code", "tensor_rank"})


# --- serialization -------------------------------------------------------------------


def field_to_json(F: Field) -> dict:
    return {"p": F.p, "deg": F.deg, "modulus": list(F.modulus)}


def _json_int(value, what: str, low: int = 0, high: int | None = None) -> int:
    """A JSON integer, not a bool, in [low, high); ValueError otherwise.

    Certificates and oracle inputs are read only in this canonical form: a
    float, a string or an out-of-range int is refused, never coerced.
    """
    if type(value) is not int or value < low or (high is not None and value >= high):
        bound = f"[{low}, {high})" if high is not None else f">= {low}"
        raise ValueError(f"{what} must be a JSON integer {bound}, not {value!r}")
    return value


def _only(obj, keys, what: str):
    """Refuse a JSON object that carries a key outside `keys`."""
    unknown = sorted(set(obj) - keys)
    if unknown:
        raise ValueError(f"unknown {what} keys {unknown}")


def field_from_json(obj) -> Field:
    _only(obj, {"p", "deg", "modulus"}, "field")
    p = _json_int(obj["p"], "field.p", 2)
    deg = _json_int(obj.get("deg", 1), "field.deg", 1)
    modulus = obj.get("modulus")  # absent: the default; present: a list as written
    if "modulus" in obj:
        if type(modulus) is not list:
            raise ValueError(f"field.modulus must be a JSON list, not {modulus!r}")
        for c in modulus:
            _json_int(c, "a modulus coefficient", 0, p)
    return field_make(p, deg, modulus)


def matrix_to_json(M: FqMatrix) -> dict:
    return {"n": M.n, "m": M.m, "entries": [list(r) for r in M.rows]}


def matrix_from_json(field: Field, obj) -> FqMatrix:
    """The matrix of `{"n", "m", "entries"}`, whose entries are encodings in
    [0, q); any other entry is refused with ValueError."""
    n, m = _json_int(obj["n"], "n", 1), _json_int(obj["m"], "m", 1)
    rows = obj["entries"]
    if len(rows) != n or any(len(r) != m for r in rows):
        raise ValueError("matrix entries disagree with the declared shape")
    q = field.q
    entries = tuple(map(tuple, rows))
    flat = tuple(itertools.chain.from_iterable(entries))
    # only ints, not bools, with the least and the largest in [0, q)
    if set(map(type, flat)) != {int} or min(flat) < 0 or max(flat) >= q:
        raise ValueError(f"matrix entries must be JSON integers in [0, {q})")
    return FqMatrix._of(field, entries)


# Certificates and oracle input declaring more matrix entries than this are
# refused before any matrix is built, and `construct` writes none.  At the
# cap, a fresh `perfbase verify` of a full-space 16x32 certificate (512 random
# dense target members, 512 random u v^t base members with nonzero factors)
# takes 0.35-0.50 s over F_5, 4.4-5.1 s over F_4 and 4.9-5.4 s over F_9; with
# the 512 unit matrices as the target, 5.0-5.3 s over F_4 (Intel Xeon, 2 CPUs,
# Python 3.11, numpy 2.4, one CPU, one OpenBLAS thread; 9 runs on F_5, else 3).
MAX_INPUT_ENTRIES = 1 << 19


def _refuse_over_cap(entries: int):
    if entries > MAX_INPUT_ENTRIES:
        raise ParametersOutOfRange(
            f"input declares more than {MAX_INPUT_ENTRIES} matrix entries")


def _check_size(*groups):
    """Refuse matrix objects with keys beyond n, m, entries or sizes beyond the
    cap; each declares an entry at least, so their count is checked first."""
    _refuse_over_cap(sum(map(len, groups)))
    total = 0
    for obj in itertools.chain(*groups):
        _only(obj, {"n", "m", "entries"}, "matrix")
        total += _json_int(obj["n"], "n", 1) * _json_int(obj["m"], "m", 1)
        _refuse_over_cap(total)


def certificate_from_result(result, code_info=None) -> dict:
    """The certificate of a ConstructionResult, labelled with its matrices' field."""
    cert = {
        "schema_version": SCHEMA_VERSION,
        "field": field_to_json(result.candidate.target.field),
        "construction": {"name": result.construction,
                         "params": result.params},
        "target_basis": [matrix_to_json(B) for B in result.candidate.target.basis],
        "base": [matrix_to_json(A) for A in result.candidate.matrices],
        "auxiliary": {k: matrix_to_json(v) for k, v in result.auxiliary.items()},
        "report": result.report.to_dict(),
    }
    if code_info is not None:
        cert["code"] = code_info
    return cert


def dumps_certificate(cert: dict) -> str:
    return json.dumps(cert, sort_keys=True, indent=1) + "\n"


def write_certificate(cert: dict, path: str):
    with open(path, "w") as fh:
        fh.write(dumps_certificate(cert))


def load_certificate(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def reverify(cert: dict, guard: int) -> dict:
    """Re-check a loaded certificate from scratch; returns a verdict dict.

    Every claim is re-derived from the certificate's matrices: the base
    report, the code facts, and a `tensor_rank` (by `_rank_checks`).
    `construction` and `auxiliary` are labels: nothing is proved from them.
    `guard` bounds each distance scan and the oracle re-run.
    """
    _only(cert, CERTIFICATE_KEYS, "certificate")
    _only(cert.get("construction", {}), {"name", "params"}, "construction")
    if cert.get("schema_version") != SCHEMA_VERSION:
        raise ValueError("unsupported schema version")
    code = cert.get("code")
    _check_size(cert["target_basis"], cert["base"],
                () if code is None else code["space_basis"])
    if code is not None:
        _only(code, {*"qnmkd", "mtr", "space_basis"}, "code")
        facts = [_json_int(code[key], f"code.{key}") for key in "qnmkd"]
        if type(code.get("mtr", False)) is not bool:
            raise ValueError("code.mtr must be a JSON boolean")
    field = field_from_json(cert["field"])
    target_mats = [matrix_from_json(field, o) for o in cert["target_basis"]]
    base_mats = [matrix_from_json(field, o) for o in cert["base"]]
    if not target_mats:
        raise ValueError("certificate has an empty target")
    shape = target_mats[0].shape
    target = MatrixSpace(field, shape, target_mats)
    cand = BaseCandidate(tuple(base_mats), target)
    report = verify_base(cand)
    fresh = report.to_dict()
    verdict = {"checks": fresh, "ok": report.passed}
    stored = cert.get("report")
    if stored is not None:
        _only(stored, fresh.keys(), "report")
        if {k: stored.get(k) for k in fresh} != fresh:
            verdict["ok"] = False
            verdict["stored_report_mismatch"] = True
    if code is not None:
        q, n, m, claimed_k, claimed_d = facts
        space = MatrixSpace(
            field, shape,
            [matrix_from_json(field, o) for o in code["space_basis"]])
        # the base was checked against target_basis, so it proves nothing
        # about the code unless the two spaces coincide
        space_ok = space == target
        dim_ok = space.dim == claimed_k
        d_real = _least_rank(space, guard)
        d_ok = d_real == claimed_d
        facts_ok = (q, n, m) == (field.q, *shape)
        verdict["code_checks"] = {"dim_ok": dim_ok, "distance": d_real, "distance_ok": d_ok,
                                  "facts_ok": facts_ok, "space_ok": space_ok}
        if code.get("mtr"):
            mtr_ok = (report.passed and space_ok and dim_ok and d_ok
                      and len(base_mats) == kruskal_bound(claimed_k, claimed_d))
            verdict["code_checks"]["mtr_ok"] = mtr_ok
            verdict["ok"] = verdict["ok"] and mtr_ok
        verdict["ok"] = verdict["ok"] and facts_ok and space_ok and dim_ok and d_ok
    if "tensor_rank" in cert:
        R = cert["tensor_rank"]
        if type(R) is not int:
            raise ValueError("tensor_rank must be an integer")
        checks = _rank_checks(target, R, report.passed and R == len(base_mats), guard)
        verdict["rank_checks"] = checks
        verdict["ok"] = verdict["ok"] and checks["lower"] == R
    return verdict


def _rank_checks(target: MatrixSpace, R: int, upper_ok: bool, guard: int) -> dict:
    """Proof that the tensor rank of `target` is R, given that a verified base
    of R members bounds it from above (`upper_ok`).

    The lower bound is the cheapest of `rank_lower_bound` that reaches R:
    "dimension", "kruskal", "griesmer" (from the same distance scan) or
    "diagonal".  Else it is a re-run of the oracle ("oracle"), which is
    exact and starts at that bound, so the scan runs once.
    """
    lower = by = None
    if upper_ok:
        lower, by = rank_lower_bound(target, R, guard)
        if lower < R:
            lower, by = exhaustive_trk(target, guard, lower)[0], "oracle"
    return {"upper_ok": upper_ok, "lower": lower, "lower_by": by}


def _code_info(code: perfbase.rmcode.RankCode, guard: int, mtr: bool) -> dict:
    return {
        "q": code.field.q,
        "n": code.n,
        "m": code.m,
        "k": code.k,
        "d": code.distance(guard),
        "mtr": mtr,
        "space_basis": [matrix_to_json(B) for B in code.space.basis],
    }


# --- argument plumbing ----------------------------------------------------------------


def _parse_ints(text: str):
    """A comma-separated list of ints: "" is the empty list, and an empty
    field anywhere else is refused, never dropped."""
    fields = text.split(",") if text else []
    if "" in fields:
        raise ValueError(f"empty entry in the list {text!r}")
    return [int(t) for t in fields]


def _size(text: str) -> int:
    """The value of a size flag (--m, --n, --s, --k, --d): an int, at least 0.
    A negative one is refused as it is parsed, since a kind's entry bound, a
    polynomial in the flags, can read it as a large count."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer at least 0, got {text!r}")
    return value


def _spec(field, args) -> perfbase.construct.CompanionSpec:
    bottom = _parse_ints(args.bottom)
    if args.m is not None and args.m != len(bottom):
        raise ValueError("--m disagrees with the bottom row length")
    return perfbase.construct.CompanionSpec(field, len(bottom), tuple(bottom))


def _gammas(field, args):
    gammas = perfbase.construct.GammaSet
    if args.gammas is not None:
        return gammas(field, tuple(_parse_ints(args.gammas)))
    return gammas.canonical(field, args.s)


def _guard(args, default: int) -> int:
    """--guard if given (0 included), else PERFBASE_GUARD if set, else default;
    a guard below 0 is invalid input."""
    env = os.environ.get("PERFBASE_GUARD")
    name, guard = ("--guard", args.guard) if args.guard is not None else (
        "PERFBASE_GUARD", env or default)
    try:
        guard = int(guard)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {guard!r}") from None
    if guard < 0:
        raise ValueError(f"{name} must be at least 0, got {guard}")
    return guard


# --- subcommands -------------------------------------------------------------------------


class _Kind(NamedTuple):
    needs: tuple  # the parameter flags the kind requires
    takes: tuple  # those it may also be given
    build: Callable  # (field, args) -> (the rank code or None, the ConstructionResult)
    prime_only: bool = False  # a code kind builds over F_p: --deg must be 1
    # (m, args) -> a lower bound on the certificate's matrix entries, from the flags and
    # m, the length of --bottom (else --m): over the cap, the request is refused unbuilt
    entries: Callable = lambda m, a: 0


_KINDS = {
    "dual-powers": _Kind(("s", "bottom"), ("m", "gammas"), lambda F, a: (
        None, perfbase.construct.base_dual_powers(_spec(F, a), a.s, _gammas(F, a))),
                         entries=lambda m, a: 2 * (m * m - a.s) * m * m),
    "dual-powers-rect": _Kind(("n", "s", "bottom"), ("m", "gammas"), lambda F, a: (
        None, perfbase.construct.base_dual_powers_rect(_spec(F, a), a.n, a.s, _gammas(F, a))),
                              entries=lambda m, a: 2 * (a.n * m - a.s) * a.n * m),
    "inverse-family": _Kind(("bottom",), ("m", "powers"), lambda F, a: (
        None, perfbase.construct.base_inverse_family(
            _spec(F, a), tuple(_parse_ints(a.powers or "")))),
                            entries=lambda m, a: (m + 2) * m * m),  # base >= m, target >= 2
    "rect-small-n": _Kind(("n", "bottom"), ("m",), lambda F, a: (
        None, perfbase.construct.base_rect_small_n(_spec(F, a), a.n)),
                          entries=lambda m, a: (m + a.n) * a.n * m),  # base >= m, target >= n
    "singular": _Kind(("s", "bottom"), ("m",), lambda F, a: (
        None, perfbase.construct.base_singular(_spec(F, a), a.s)),
                      entries=lambda m, a: 2 * (m * m - a.s) * m * m),
    "atkinson": _Kind(("n",), (), lambda F, a: (None, perfbase.construct.atkinson_base(a.n, F)),
                      entries=lambda m, a: 2 * (a.n ** 2 + a.n - 2) * a.n * (a.n + 1)),
    # unbounded: with 2 <= n <= m <= p and p^m <= 2^16, it declares 1525 entries at most
    "gabidulin-dual-mtr": _Kind(("m", "n"), (), lambda F, a: (
        perfbase.rmcode.dual_gabidulin_mtr_base(a.p, a.m, a.n)), prime_only=True),
    "build-mtr": _Kind(("m", "n", "k", "d"), (), lambda F, a: perfbase.rmcode._build_mtr(
        a.p, a.n, a.m, a.k, a.d), prime_only=True,  # k code, k target, k + d - 1 base
                       entries=lambda m, a: (3 * a.k + a.d - 1) * a.n * m),
}
# the parameter flags: each is read by some kinds, and refused by the others
_FLAGS = sorted({flag for kind in _KINDS.values() for flag in kind.needs + kind.takes})


def cmd_construct(args) -> int:
    name = args.kind
    kind = _KINDS[name]
    for flag in _FLAGS:
        given = getattr(args, flag) is not None
        if given and flag not in kind.needs + kind.takes:
            raise ValueError(f"{name} does not take --{flag}")
        if not given and flag in kind.needs:
            raise ValueError(f"--{flag} is required for this construction")
    if kind.prime_only and args.deg != 1:
        raise ParametersOutOfRange(f"{name} builds over F_p: --deg must be 1")
    field = field_make(args.p, args.deg,
                       None if args.modulus is None else _parse_ints(args.modulus))
    guard = _guard(args, DEFAULT_SCAN_GUARD)
    _refuse_over_cap(kind.entries(
        args.m if args.bottom is None else len(_parse_ints(args.bottom)), args))
    code, result = kind.build(field, args)
    code_info = None if code is None else _code_info(code, guard, mtr=True)
    cert = certificate_from_result(result, code_info)
    _check_size(cert["target_basis"], cert["base"],
                () if code_info is None else code_info["space_basis"])
    out = f"{name}.cert.json" if args.out is None else args.out
    write_certificate(cert, out)
    print(json.dumps({"ok": True, "construction": name,
                      "base_size": len(cert["base"]),
                      "target_dim": cert["report"]["target_dim"],
                      "certificate": out}))
    return 0


def cmd_verify(args) -> int:
    guard = _guard(args, DEFAULT_SCAN_GUARD)
    try:
        cert = load_certificate(args.certificate)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"unreadable certificate: {exc}") from exc
    try:
        verdict = reverify(cert, guard)
    except (AttributeError, KeyError, ValueError, TypeError) as exc:
        raise ValueError(f"malformed certificate: {exc}") from exc
    print(json.dumps(verdict, sort_keys=True))
    return 0 if verdict["ok"] else 1


def _space_from_json(obj) -> MatrixSpace:
    """The space of an oracle input `{"field": {...}, "basis": [matrix...]}`."""
    try:
        _only(obj, {"field", "basis"}, "oracle input")
        _check_size(obj["basis"])
        field = field_from_json(obj["field"])
        mats = [matrix_from_json(field, o) for o in obj["basis"]]
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed oracle input: {exc!r}") from exc
    if not mats:
        raise ValueError("malformed oracle input: the basis is empty")
    space = MatrixSpace(field, mats[0].shape, mats)
    if not space.dim:  # `verify` refuses a certificate with an empty target
        raise ValueError("oracle input spans only the zero matrix")
    return space


def cmd_oracle(args) -> int:
    space = _space_from_json(load_certificate(args.space))
    guard = _guard(args, DEFAULT_GUARD)
    trk, witness = exhaustive_trk(space, guard)
    result = perfbase.construct._finish(witness, "oracle", {"guard": guard}, {})
    cert = certificate_from_result(result)
    cert["tensor_rank"] = trk
    if args.out is not None:
        write_certificate(cert, args.out)
    print(json.dumps({"ok": True, "tensor_rank": trk,
                      "witness_size": len(witness.matrices),
                      "certificate": args.out}))
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ValueError, which `main` prints as an input error."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="perfbase",
        description="construct and verify rank-one bases of matrix spaces "
                    "over finite fields")
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("construct", help="run a construction, emit a certificate")
    pc.add_argument("kind", choices=_KINDS)
    pc.add_argument("--p", type=int, required=True, help="field characteristic")
    pc.add_argument("--deg", type=int, default=1, help="extension degree")
    pc.add_argument("--modulus", help="modulus coefficients, low to high")
    pc.add_argument("--m", type=_size, help="matrix size / extension degree")
    pc.add_argument("--n", type=_size, help="row count")
    pc.add_argument("--s", type=_size, help="number of powers in the span")
    pc.add_argument("--k", type=_size, help="code dimension")
    pc.add_argument("--d", type=_size, help="code distance")
    pc.add_argument("--bottom", help="companion bottom row a_1,...,a_m")
    pc.add_argument("--gammas", help="distinct nonzero scalars, first 1")
    pc.add_argument("--powers", help="extra exponents, comma separated")
    pc.add_argument("--guard", type=int, help="distance-scan guard")
    pc.add_argument("--out", help="certificate output path")
    pc.set_defaults(func=cmd_construct)

    pv = sub.add_parser("verify", help="independently re-check a certificate")
    pv.add_argument("certificate")
    pv.add_argument("--guard", type=int, help="distance-scan guard")
    pv.set_defaults(func=cmd_verify)

    po = sub.add_parser("oracle", help="exact tensor rank of a small space")
    po.add_argument("space", help="JSON file with field and basis")
    po.add_argument("--guard", type=int, help="membership-test guard")
    po.add_argument("--out", help="witness certificate output path")
    po.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    # before numpy is first imported, unless the caller chose: one OpenBLAS thread
    # made a fresh `verify` at the input cap faster (README's CLI section)
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except GuardExceeded as exc:
        line = {"ok": False, "error": str(exc), "kind": "guard"}
        if exc.progress is not None:
            line["progress"] = exc.progress
        print(json.dumps(line))
        return 3
    except InternalVerificationError as exc:
        print(json.dumps({"ok": False, "error": str(exc), "kind": "internal"}))
        return 1
    except (PerfbaseError, ValueError, OSError) as exc:
        print(json.dumps({"ok": False, "error": str(exc), "kind": "input"}))
        return 2


if __name__ == "__main__":
    sys.exit(main())
