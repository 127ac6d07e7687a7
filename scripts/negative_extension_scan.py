"""Exhaustive scan: the 7-member inverse-power base over F_7 (m=5) admits no
single rank-one extension covering any of the powers 2, -2, 3, -3.

Decides all 2801^2 (about 7.8M) projective rank-one pairs u (x) v with one
linear solve per left factor u; takes about a second of CPU.
Run from the repository root:  python scripts/negative_extension_scan.py
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from perfbase.construct import CompanionSpec, base_inverse_family, companion  # noqa: E402
from perfbase.exactla import MatrixSpace  # noqa: E402
from perfbase.gf import field_make  # noqa: E402
from perfbase.tensor3 import rank_one_completion_exists  # noqa: E402


def main():
    F7 = field_make(7)
    spec = CompanionSpec(F7, 5, (3, 6, 0, 0, 0))
    result = base_inverse_family(spec)
    span = MatrixSpace(F7, (5, 5), result.candidate.matrices)
    M = companion(spec)
    powers = (2, -2, 3, -3)
    targets = [M.power(j) for j in powers]
    for j, T in zip(powers, targets):
        assert not span.contains(T), f"power {j} is already covered"
    t0 = time.time()
    found, info = rank_one_completion_exists(span, targets, guard=10_000_000)
    elapsed = time.time() - t0
    print(f"pairs scanned: {info.get('pairs_scanned', '?')} in {elapsed:.1f}s")
    if found:
        print("UNEXPECTED: completion found:", info)
        return 1
    print("confirmed: no single rank-one extension covers any of", powers)
    return 0


if __name__ == "__main__":
    sys.exit(main())
