"""Regenerate or check the shipped certificate fixtures.

Run from the repository root:
  python scripts/make_fixtures.py          # write the certificates into fixtures/
  python scripts/make_fixtures.py --check  # compare them with fixtures/, write nothing

The certificates are deterministic.  --check builds all of them in memory
and exits 1 if any differs from its fixture byte for byte (or is missing).
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from perfbase.cli import (  # noqa: E402
    certificate_from_result,
    dumps_certificate,
    field_to_json,
    matrix_to_json,
)
from perfbase.construct import (  # noqa: E402
    CompanionSpec,
    base_dual_powers,
    base_inverse_family,
    base_rect_small_n,
    companion,
)
from perfbase.exactla import FqMatrix, MatrixSpace  # noqa: E402
from perfbase.gf import FqPolynomial, field_make  # noqa: E402
from perfbase.rmcode import dual_gabidulin_mtr_base, extend_base_lindep  # noqa: E402
from perfbase.tensor3 import BaseCandidate, verify_base  # noqa: E402

FIXDIR = os.path.join(os.path.dirname(__file__), "..", "fixtures")

# the six 3x4 seed matrices of the four-row extension instance; the fifth
# member's first row is restored from its own extension coefficients
EXTENSION_SEEDS = [
    [[4, 2, 0, 1], [3, 4, 0, 2], [1, 3, 0, 4]],
    [[1, 1, 0, 1], [3, 3, 0, 3], [4, 4, 0, 4]],
    [[3, 0, 2, 4], [2, 0, 3, 1], [3, 0, 2, 4]],
    [[2, 3, 3, 4], [2, 3, 3, 4], [2, 3, 3, 4]],
    [[3, 4, 4, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
    [[0, 0, 0, 0], [0, 0, 0, 0], [0, 2, 1, 1]],
]


def build_certificates():
    """{fixture file name: certificate text} for every shipped fixture."""
    out = {}

    def write(name, cert):
        out[name] = dumps_certificate(cert)

    F5 = field_make(5)
    F7 = field_make(7)

    # 13-member dual-power base, m=4, s=3
    res = base_dual_powers(CompanionSpec(F5, 4, (1, 0, 0, 0)), 3)
    write("dual_powers_f5_m4_s3.cert.json", certificate_from_result(res))

    # 7-member rectangular family base with the two displayed corrections
    f = FqPolynomial.from_roots(F7, [1, 2]) * FqPolynomial(F7, (4, 0, 6, 1))
    res = base_rect_small_n(CompanionSpec.from_polynomial(f), 3)
    write("rect_family_f7_m5_n3.cert.json", certificate_from_result(res))

    # 7-member inverse-power base whose powers 2 and 3 admit no extension
    res = base_inverse_family(CompanionSpec(F7, 5, (3, 6, 0, 0, 0)))
    write("inverse_family_f7_m5.cert.json", certificate_from_result(res))

    # the row-extension instance: six 4x4 members against a four-row code
    spec = CompanionSpec.from_polynomial(FqPolynomial(F5, (2, 4, 4, 0, 1)))
    M = companion(spec)
    Nbar = FqMatrix(F5, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    seed_target = MatrixSpace(F5, (3, 4), [Nbar @ M.power(i) for i in range(4)])
    seed = BaseCandidate(tuple(FqMatrix(F5, A) for A in EXTENSION_SEEDS),
                         seed_target)
    ext = extend_base_lindep(seed, [[4, 3, 2]])
    report = verify_base(ext)
    assert report.passed
    cert = {
        "schema_version": "1",
        "field": field_to_json(F5),
        "construction": {"name": "base-extension",
                         "params": {"m": 4, "lambdas": [[4, 3, 2]],
                                    "bottom": [3, 1, 1, 0]}},
        "target_basis": [matrix_to_json(B) for B in ext.target.basis],
        "base": [matrix_to_json(A) for A in ext.matrices],
        "auxiliary": {},
        "report": report.to_dict(),
        "code": {
            "q": 5, "n": 4, "m": 4,
            "k": 4, "d": 3, "mtr": True,
            "space_basis": [matrix_to_json(B) for B in ext.target.basis],
        },
    }
    write("extension_f5_m4.cert.json", cert)

    # the smallest verified dual evaluation-code instance
    code, res = dual_gabidulin_mtr_base(3, 3, 3)
    cert = certificate_from_result(res, {
        "q": 3, "n": 3, "m": 3, "k": code.k, "d": code.distance(),
        "mtr": True,
        "space_basis": [matrix_to_json(B) for B in code.space.basis],
    })
    write("gabidulin_dual_f3_m3_n3.cert.json", cert)
    return out


def check(certs) -> int:
    stale = []
    for name, text in certs.items():
        path = os.path.join(FIXDIR, name)
        try:
            with open(path) as fh:
                same = fh.read() == text
        except FileNotFoundError:
            same = False
        if not same:
            stale.append(name)
            print("differs:", path)
    if stale:
        return 1
    print(f"all {len(certs)} fixtures match")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with fixtures/ instead of writing")
    args = parser.parse_args(argv)
    certs = build_certificates()
    if args.check:
        return check(certs)
    os.makedirs(FIXDIR, exist_ok=True)
    for name, text in certs.items():
        path = os.path.join(FIXDIR, name)
        with open(path, "w") as fh:
            fh.write(text)
        print("wrote", path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
