"""Command-line front end and certificate I/O.

Certificates are JSON documents (schema version "1") holding the field, the
construction name and parameters, the target-space basis, the claimed base,
any auxiliary matrices, and the verification report.  Field elements
serialize as canonical integer encodings and matrices as row-major integer
arrays, so fixtures diff cleanly and third parties can re-check them without
this library.

Exit codes: 0 verified, 1 internal verification failure (a bug), 2 invalid
input, 3 search guard exceeded.  The last stdout line is always a single
JSON object.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

from . import construct as cons
from . import rmcode
from .errors import (
    GuardExceeded,
    InternalVerificationError,
    ParametersOutOfRange,
    PerfbaseError,
)
from .exactla import FqMatrix, MatrixSpace
from .gf import Field, field_make
from .tensor3 import (
    DEFAULT_GUARD,
    BaseCandidate,
    exhaustive_trk,
    kruskal_bound,
    verify_base,
)

SCHEMA_VERSION = "1"


# --- serialization -------------------------------------------------------------------


def field_to_json(F: Field) -> dict:
    return {"p": F.p, "deg": F.deg, "modulus": list(F.modulus)}


def field_from_json(obj) -> Field:
    return field_make(int(obj["p"]), int(obj.get("deg", 1)),
                      obj.get("modulus") or None)


def matrix_to_json(M: FqMatrix) -> dict:
    return {"n": M.n, "m": M.m, "entries": [list(r) for r in M.rows]}


def matrix_from_json(field: Field, obj) -> FqMatrix:
    rows = obj["entries"]
    if len(rows) != int(obj["n"]) or any(len(r) != int(obj["m"]) for r in rows):
        raise ValueError("matrix entries disagree with the declared shape")
    return FqMatrix(field, rows)


# Certificates and oracle input declaring more matrix entries than this are
# refused before any matrix is built.  At the cap, `verify` of a full-space
# 16x32 certificate (512 target and 512 base members) takes 2 s over F_5
# and 14 s over F_4; at 4x the cap (32x32) it takes 19.5 s over F_5 (Intel
# Xeon, Python 3.11).
MAX_INPUT_ENTRIES = 1 << 19


def _check_size(*groups):
    """Refuse matrix objects whose declared n x m sizes exceed the cap."""
    total = 0
    for obj in itertools.chain(*groups):
        n, m = int(obj["n"]), int(obj["m"])
        if n < 1 or m < 1:
            raise ValueError("matrix shapes must be positive")
        total += n * m
        if total > MAX_INPUT_ENTRIES:
            raise ParametersOutOfRange(
                f"input declares more than {MAX_INPUT_ENTRIES} matrix entries")


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
    """Re-check a loaded certificate from scratch; returns a verdict dict."""
    if cert.get("schema_version") != SCHEMA_VERSION:
        raise ValueError("unsupported schema version")
    code = cert.get("code")
    _check_size(cert["target_basis"], cert["base"],
                () if code is None else code["space_basis"])
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
    if stored is not None and {k: stored.get(k) for k in fresh} != fresh:
        verdict["ok"] = False
        verdict["stored_report_mismatch"] = True
    if code is not None:
        claimed_k = int(code["k"])
        claimed_d = int(code["d"])
        space = MatrixSpace(
            field, shape,
            [matrix_from_json(field, o) for o in code["space_basis"]])
        # the base was checked against target_basis, so it proves nothing
        # about the code unless the two spaces coincide
        space_ok = space == target
        rank_code = rmcode.RankCode(space)
        dim_ok = rank_code.k == claimed_k
        d_real = rank_code.distance(guard)
        d_ok = d_real == claimed_d
        facts_ok = [int(code[key]) for key in "qnm"] == [field.q, *shape]
        verdict["code_checks"] = {"dim_ok": dim_ok, "distance": d_real, "distance_ok": d_ok,
                                  "facts_ok": facts_ok, "space_ok": space_ok}
        if code.get("mtr"):
            mtr_ok = (report.passed and space_ok and dim_ok and d_ok
                      and len(base_mats) == kruskal_bound(claimed_k, claimed_d))
            verdict["code_checks"]["mtr_ok"] = mtr_ok
            verdict["ok"] = verdict["ok"] and mtr_ok
        verdict["ok"] = verdict["ok"] and facts_ok and space_ok and dim_ok and d_ok
    return verdict


def _code_info(code: rmcode.RankCode, guard: int, mtr: bool) -> dict:
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
    return [int(t) for t in text.split(",") if t != ""]


def _field_from_args(args) -> Field:
    modulus = _parse_ints(args.modulus) if getattr(args, "modulus", None) else None
    return field_make(args.p, getattr(args, "deg", 1) or 1, modulus)


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise ValueError(f"--{name} is required for this construction")


def _spec_from_args(field, args) -> cons.CompanionSpec:
    _require(args, "bottom")
    bottom = _parse_ints(args.bottom)
    if args.m is not None and args.m != len(bottom):
        raise ValueError("--m disagrees with the bottom row length")
    return cons.CompanionSpec(field, len(bottom), tuple(bottom))


def _gammas_from_args(field, args, s):
    if getattr(args, "gammas", None):
        return cons.GammaSet(field, tuple(_parse_ints(args.gammas)))
    return cons.GammaSet.canonical(field, s)


def _guard(args, default: int) -> int:
    """--guard if given (0 included), else PERFBASE_GUARD if set, else default."""
    if args.guard is not None:
        return args.guard
    env = os.environ.get("PERFBASE_GUARD")
    if env:
        return int(env)
    return default


# --- subcommands -------------------------------------------------------------------------


def cmd_construct(args) -> int:
    name = args.kind
    # the code constructions always build over the prime field
    if name in ("gabidulin-dual-mtr", "build-mtr") and args.deg != 1:
        raise ParametersOutOfRange(f"{name} builds over F_p: --deg must be 1")
    field = _field_from_args(args)
    guard = _guard(args, rmcode.DEFAULT_SCAN_GUARD)
    code_info = None
    if name == "dual-powers":
        _require(args, "s")
        spec = _spec_from_args(field, args)
        result = cons.base_dual_powers(spec, args.s,
                                       _gammas_from_args(field, args, args.s))
    elif name == "dual-powers-rect":
        _require(args, "n", "s")
        spec = _spec_from_args(field, args)
        result = cons.base_dual_powers_rect(spec, args.n, args.s,
                                            _gammas_from_args(field, args, args.s))
    elif name == "inverse-family":
        spec = _spec_from_args(field, args)
        powers = _parse_ints(args.powers) if args.powers else []
        result = cons.base_inverse_family(spec, tuple(powers))
    elif name == "rect-small-n":
        _require(args, "n")
        spec = _spec_from_args(field, args)
        result = cons.base_rect_small_n(spec, args.n)
    elif name == "singular":
        _require(args, "s")
        spec = _spec_from_args(field, args)
        result = cons.base_singular(spec, args.s)
    elif name == "atkinson":
        _require(args, "n")
        result = cons.atkinson_base(args.n, field)
    elif name == "gabidulin-dual-mtr":
        _require(args, "m", "n")
        code, result = rmcode.dual_gabidulin_mtr_base(args.p, args.m, args.n)
        code_info = _code_info(code, guard, mtr=True)
    elif name == "build-mtr":
        _require(args, "n", "m", "k", "d")
        code, result = rmcode._build_mtr(args.p, args.n, args.m, args.k, args.d)
        code_info = _code_info(code, guard, mtr=True)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(name)
    cert = certificate_from_result(result, code_info)
    out = args.out or f"{name}.cert.json"
    write_certificate(cert, out)
    print(json.dumps({"ok": True, "construction": name,
                      "base_size": len(cert["base"]),
                      "target_dim": cert["report"]["target_dim"],
                      "certificate": out}))
    return 0


def cmd_verify(args) -> int:
    try:
        cert = load_certificate(args.certificate)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"unreadable certificate: {exc}") from exc
    try:
        verdict = reverify(cert, _guard(args, rmcode.DEFAULT_SCAN_GUARD))
    except (AttributeError, KeyError, ValueError, TypeError) as exc:
        raise ValueError(f"malformed certificate: {exc}") from exc
    print(json.dumps(verdict, sort_keys=True))
    return 0 if verdict["ok"] else 1


def _space_from_json(obj) -> MatrixSpace:
    """The space of an oracle input `{"field": {...}, "basis": [matrix...]}`."""
    try:
        _check_size(obj["basis"])
        field = field_from_json(obj["field"])
        mats = [matrix_from_json(field, o) for o in obj["basis"]]
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed oracle input: {exc!r}") from exc
    if not mats:
        raise ValueError("malformed oracle input: the basis is empty")
    return MatrixSpace(field, mats[0].shape, mats)


def cmd_oracle(args) -> int:
    space = _space_from_json(load_certificate(args.space))
    guard = _guard(args, DEFAULT_GUARD)
    trk, witness = exhaustive_trk(space, guard)
    result = cons._finish(witness, "oracle", {"guard": guard}, {})
    cert = certificate_from_result(result)
    cert["tensor_rank"] = trk
    if args.out:
        write_certificate(cert, args.out)
    print(json.dumps({"ok": True, "tensor_rank": trk,
                      "witness_size": len(witness.matrices),
                      "certificate": args.out}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perfbase",
        description="construct and verify rank-one bases of matrix spaces "
                    "over finite fields")
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("construct", help="run a construction, emit a certificate")
    pc.add_argument("kind", choices=[
        "dual-powers", "dual-powers-rect", "inverse-family", "rect-small-n",
        "singular", "atkinson", "gabidulin-dual-mtr", "build-mtr"])
    pc.add_argument("--p", type=int, required=True, help="field characteristic")
    pc.add_argument("--deg", type=int, default=1, help="extension degree")
    pc.add_argument("--modulus", help="modulus coefficients, low to high")
    pc.add_argument("--m", type=int, help="matrix size / extension degree")
    pc.add_argument("--n", type=int, help="row count")
    pc.add_argument("--s", type=int, help="number of powers in the span")
    pc.add_argument("--k", type=int, help="code dimension")
    pc.add_argument("--d", type=int, help="code distance")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
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
