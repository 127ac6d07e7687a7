"""3-tensors as slice lists, base verification, and a tiny-instance rank oracle.

A tensor is stored as its k slices (n x m matrices); its first slice space is
the span of the slices.  A base candidate is a claimed list of rank-one
matrices together with the target space it must cover; verification checks
rank-one-ness, linear independence, and containment, reporting a witness for
the first failure of each kind.

The oracle enumerates rank-one matrices up to scalar (both factors normalized
to leading coefficient one) and searches independent subsets in lexicographic
order, so the returned witness is the lexicographically least successful
subset.  A work guard bounds the number of subset-membership tests; sharded
runs must reduce with lexicographic minimum to preserve that contract.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import GuardExceeded, ShapeMismatch
from .exactla import Echelon, FqMatrix, MatrixSpace
from .gf import Field

DEFAULT_GUARD = 100_000_000


@dataclass(frozen=True)
class Tensor3:
    """k slices of shape n x m over a common field."""

    field: Field
    slices: tuple

    def __post_init__(self):
        if not self.slices:
            raise ShapeMismatch("a tensor needs at least one slice")
        shape = self.slices[0].shape
        for s in self.slices:
            if s.field != self.field or s.shape != shape:
                raise ShapeMismatch("slices must share field and shape")

    @property
    def shape(self):
        n, m = self.slices[0].shape
        return (len(self.slices), n, m)

    def is_1_nondegenerate(self) -> bool:
        return slice_space(self).dim == len(self.slices)


@dataclass(frozen=True)
class BaseCandidate:
    """A claimed perfect base: rank-one matrices and the space to cover."""

    matrices: tuple
    target: MatrixSpace

    def __post_init__(self):
        object.__setattr__(self, "matrices", tuple(self.matrices))

    @property
    def size(self) -> int:
        return len(self.matrices)


@dataclass(frozen=True)
class VerificationReport:
    all_rank_one: bool
    independent: bool
    contains_target: bool
    base_size: int
    target_dim: int
    bad_rank_index: int | None = None
    dependent_index: int | None = None
    missing_target_index: int | None = None

    @property
    def passed(self) -> bool:
        return self.all_rank_one and self.independent and self.contains_target

    def to_dict(self):
        return {
            "all_rank_one": self.all_rank_one,
            "independent": self.independent,
            "contains_target": self.contains_target,
            "passed": self.passed,
            "base_size": self.base_size,
            "target_dim": self.target_dim,
            "bad_rank_index": self.bad_rank_index,
            "dependent_index": self.dependent_index,
            "missing_target_index": self.missing_target_index,
        }


def slice_space(X: Tensor3) -> MatrixSpace:
    """Span of the slices; the tensor is 1-nondegenerate iff dim == k."""
    n, m = X.slices[0].shape
    return MatrixSpace(X.field, (n, m), X.slices)


def kruskal_bound(dim: int, d: int) -> int:
    """Lower bound dim + d - 1 on the tensor rank of a code (0 for dim 0)."""
    if dim < 0:
        raise ValueError("dimension must be nonnegative")
    if d < 1:
        raise ValueError("distance must be at least 1")
    return 0 if dim == 0 else dim + d - 1


def verify_base(cand: BaseCandidate) -> VerificationReport:
    """Check rank-one-ness, independence, and target containment.

    One incremental elimination of the members gives the first member that
    depends on the earlier ones; target containment is then tested against
    the same echelon.
    """
    target = cand.target
    field = target.field
    shape = target.shape
    for idx, A in enumerate(cand.matrices):
        if A.field != field or A.shape != shape:
            raise ShapeMismatch(f"member {idx} has wrong field or shape")
    bad_rank = next((idx for idx, A in enumerate(cand.matrices)
                     if not A.is_rank_one()), None)

    span = Echelon(field, target.n * target.m)
    dependent = next((idx for idx, A in enumerate(cand.matrices)
                      if not span.insert(A.vectorize())), None)
    missing = span.first_missing(target._rrows) if dependent is None else None
    return VerificationReport(
        all_rank_one=bad_rank is None,
        independent=dependent is None,
        contains_target=dependent is None and missing is None,
        base_size=len(cand.matrices),
        target_dim=target.dim,
        bad_rank_index=bad_rank,
        dependent_index=dependent,
        missing_target_index=missing,
    )


# The oracle's DFS keeps its own echelon lists, pushed and popped per pick, so
# it does not use exactla.Echelon; `_proportionality` also uses `_leading_index`.
def _leading_index(vec):
    for i, v in enumerate(vec):
        if v:
            return i
    return None


def _reduce_against(F, rows, pivots, vec):
    vec = list(vec)
    for row, pc in zip(rows, pivots):
        c = vec[pc]
        if c:
            vec = [F.sub(a, F.mul(c, b)) for a, b in zip(vec, row)]
    return vec


# --- rank-one enumeration and the exact oracle -----------------------------------


def rank_one_matrices(field: Field, n: int, m: int):
    """All rank-one n x m matrices up to scalar, in canonical order.

    Both factors are normalized to leading coefficient 1; the order is
    lexicographic in (u, v) encodings with u varying slowest.
    """
    out = []
    for u in _normalized_vectors(field, n):
        for v in _normalized_vectors(field, m):
            out.append(FqMatrix(field,
                                [[field.mul(a, b) for b in v] for a in u]))
    return out


def _normalized_vectors(field, length):
    """Nonzero vectors with first nonzero coordinate equal to 1."""
    vecs = []
    for lead in range(length):
        head = (0,) * lead + (1,)
        tails = itertools.product(range(field.q), repeat=length - lead - 1)
        for tail in tails:
            vecs.append(head + tail)
    return vecs


def _min_rank(space: MatrixSpace, cap: int):
    """Minimum rank over nonzero members, or None if the scan exceeds cap."""
    if space.dim == 0:
        return None
    count = (space.field.q ** space.dim - 1) // (space.field.q - 1)
    if count > cap:
        return None
    best = None
    for A in space.iter_elements(nonzero_only=True, projective=True):
        r = A.rank()
        if best is None or r < best:
            best = r
            if best == 1:
                break
    return best


def exhaustive_trk(V: MatrixSpace, limit: int = DEFAULT_GUARD):
    """Exact tensor rank of V with a lexicographically least witness.

    Searches subsets of the canonical rank-one list by size, requiring each
    pick to grow the chosen span and pruning branches whose span together
    with V already exceeds the subset size.  Raises GuardExceeded once more
    than `limit` subset-membership tests have run.
    """
    field = V.field
    n, m = V.shape
    k = V.dim
    if k == 0:
        return 0, BaseCandidate((), V)
    candidates = [A.vectorize() for A in rank_one_matrices(field, n, m)]
    width = n * m
    d = _min_rank(V, cap=4096)
    start = max(k, kruskal_bound(k, d) if d else k)
    budget = [limit]

    for R in range(start, width + 1):
        found = _search_subsets(field, candidates, V, R,
                                V._rrows, V._pivots, budget)
        if found is not None:
            mats = [FqMatrix.from_vector(field, candidates[i], n, m)
                    for i in found]
            return R, BaseCandidate(tuple(mats), V)
    raise AssertionError("the full unit basis always succeeds")  # unreachable


def rank_one_completion_exists(span_space: MatrixSpace, targets,
                               guard: int = DEFAULT_GUARD):
    """Is there one rank-one N putting some target inside span + <N>?

    A target T already inside the span counts immediately.  Otherwise T lies
    in span + <N> exactly when the residue of N modulo the span is a nonzero
    scalar multiple of the residue of T, which is checked for every projective
    rank-one matrix, vectorized over prime fields.  Returns (found, detail).
    """
    F = span_space.field
    n, m = span_space.shape
    for j, T in enumerate(targets):
        if span_space.contains(T):
            return True, {"target_index": j, "inside_span": True}
    if F.deg == 1:
        return _np_completion_scan(span_space, targets, guard)
    count = 0
    residues = [span_space.reduce_vector(T.vectorize()) for T in targets]
    for N in rank_one_matrices(F, n, m):
        count += 1
        if count > guard:
            raise GuardExceeded("completion scan exceeded its guard")
        res = span_space.reduce_vector(N.vectorize())
        for j, rj in enumerate(residues):
            lam = _proportionality(F, res, rj)
            if lam is not None:
                return True, {"target_index": j, "witness": N}
    return False, {"pairs_scanned": count}


def _proportionality(F, vec, ref):
    """The nonzero scalar lam with vec == lam * ref, if it exists."""
    lead = _leading_index(ref)
    if lead is None or vec[lead] == 0:
        return None
    lam = F.mul(vec[lead], F.inv(ref[lead]))
    for a, b in zip(vec, ref):
        if a != F.mul(lam, b):
            return None
    return lam


def _np_completion_scan(span_space, targets, guard):
    import numpy as np

    F = span_space.field
    p = F.p
    n, m = span_space.shape
    w = n * m
    red = np.eye(w, dtype=np.int64)
    for row, pc in zip(span_space._rrows, span_space._pivots):
        red[pc] = (red[pc] - np.array(row, dtype=np.int64)) % p
        red[pc, pc] = 0  # residue zeroes every pivot coordinate
    refs = []
    for T in targets:
        r = (np.array(T.vectorize(), dtype=np.int64) @ red) % p
        refs.append(r)
    leads = [int(np.argmax(r != 0)) for r in refs]
    inv = np.array([0] + [pow(i, p - 2, p) for i in range(1, p)], dtype=np.int64)

    U = np.array(_normalized_vectors(F, n), dtype=np.int64)
    V = np.array(_normalized_vectors(F, m), dtype=np.int64).T  # (m, Nv)
    if U.shape[0] * V.shape[1] > guard:
        raise GuardExceeded("completion scan exceeded its guard")
    red3 = red.reshape(n, m, w)
    chunk = max(1, (1 << 22) // max(1, w * V.shape[1]))
    for start in range(0, U.shape[0], chunk):
        ub = U[start:start + chunk]
        per_u = np.einsum("bi,ijk->bkj", ub, red3) % p  # (B, w, m)
        resid = np.einsum("bkj,jv->bkv", per_u, V) % p  # (B, w, Nv)
        for j, (rj, lead) in enumerate(zip(refs, leads)):
            lam = (resid[:, lead, :] * inv[rj[lead]]) % p  # (B, Nv)
            expected = (rj[None, :, None] * lam[:, None, :]) % p
            match = (resid == expected).all(axis=1) & (lam != 0)
            if match.any():
                b, v = map(int, np.argwhere(match)[0])
                u_vec = [int(x) for x in ub[b]]
                v_vec = [int(x) for x in V[:, v]]
                N = FqMatrix(F, [[F.mul(a, c) for c in v_vec] for a in u_vec])
                return True, {"target_index": j, "witness": N}
    return False, {"pairs_scanned": U.shape[0] * V.shape[1]}


def _search_subsets(F, candidates, V, R, vrows, vpivots, budget):
    n_cand = len(candidates)

    def dfs(start, chosen, arows, apivots, avrows, avpivots):
        t = len(chosen)
        if t == R:
            return list(chosen) if len(avrows) == R else None
        if n_cand - start < R - t:
            return None
        for idx in range(start, n_cand):
            if n_cand - idx < R - t:
                break
            budget[0] -= 1
            if budget[0] < 0:
                raise GuardExceeded(
                    "rank oracle exceeded its membership-test guard")
            vec = candidates[idx]
            red = _reduce_against(F, arows, apivots, vec)
            lead = _leading_index(red)
            if lead is None:
                continue  # dependent on chosen
            redv = _reduce_against(F, avrows, avpivots, vec)
            leadv = _leading_index(redv)
            new_av = len(avrows) + (1 if leadv is not None else 0)
            if new_av > R:
                continue  # span + V can no longer shrink back to R
            # remaining picks must absorb the rest of V's span
            if new_av - (t + 1) > R - (t + 1):
                continue
            arows.append([F.mul(F.inv(red[lead]), v) for v in red])
            apivots.append(lead)
            if leadv is not None:
                avrows.append([F.mul(F.inv(redv[leadv]), v) for v in redv])
                avpivots.append(leadv)
            chosen.append(idx)
            hit = dfs(idx + 1, chosen, arows, apivots, avrows, avpivots)
            if hit is not None:
                return hit
            chosen.pop()
            arows.pop()
            apivots.pop()
            if leadv is not None:
                avrows.pop()
                avpivots.pop()
        return None

    return dfs(0, [], [], [], [list(r) for r in vrows], list(vpivots))
