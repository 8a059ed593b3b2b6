"""Weighted-variation functionals over nonoverlapping interval systems.

The central quantity is the supremum, over finite ordered systems of closed
nonoverlapping subintervals of [0,1], of the sum of absolute increments divided
by the weight-sequence terms, where the largest increment is matched with the
smallest weight (rearrangement order).  For the function classes in
:mod:`lamvar.functions` the supremum is attained on systems whose endpoints are
points of varying monotonicity, so an exact solver can search subsets of the
critical set.  Solves that need values only (the campaigns' and the norms')
share one private batch, which isolates, evaluates and searches many
functions under many weight sequences at once.  A deliberately naive grid
oracle is kept alongside for cross-checking, plus a short-interval
(restricted) variant, tail variation and norms.
"""

from __future__ import annotations

import bisect
import itertools
import math
from typing import Iterable, List, Sequence, Tuple

from .errors import (
    DomainError,
    InvalidInputError,
    PropertyViolationError,
    ResourceError,
    _check_positive_int,
)
from .functions import (
    MERGE_TOL,
    CriticalSet,
    PiecewiseLinear,
    _raised,
    critical_points,
    critical_points_many,
    eval_many,
    subtract,
)
from .lambda_seq import LambdaSequence

#: Exact-solver cap on candidate points (subset search is exponential).
SOLVER_POINT_CAP = 24
#: Grid-oracle cap on grid points (it enumerates every subset).
ORACLE_POINT_CAP = 16
#: Restricted solver cap; its branch-and-bound uses a remaining-total-variation
#: bound and handles far larger candidate sets than the subset solver.
RESTRICTED_CANDIDATE_CAP = 512
_RESTRICTED_NODE_BUDGET = 40_000  # a stalled search exhausts it in 1-7 s (2 cores)


class IntervalSystem:
    """Ordered finite sequence of closed subintervals of [0,1] that pairwise
    intersect at most at endpoints.  Order matters: position k of the system is
    charged the k-th weight in :func:`sigma`."""

    __slots__ = ("intervals",)

    def __init__(self, intervals: Iterable[Tuple[float, float]]):
        ivs: List[Tuple[float, float]] = []
        for k, pair in enumerate(intervals):
            a, b = float(pair[0]), float(pair[1])
            if not (-MERGE_TOL <= a and b <= 1.0 + MERGE_TOL):
                raise InvalidInputError(
                    f"interval [{a}, {b}] is not inside [0, 1]", field=f"intervals[{k}]"
                )
            if a > b:
                raise InvalidInputError(
                    f"endpoints out of order: {a} > {b}", field=f"intervals[{k}]"
                )
            ivs.append((a, b))
        by_pos = sorted(range(len(ivs)), key=lambda i: ivs[i])
        for prev, cur in zip(by_pos, by_pos[1:]):
            if ivs[prev][1] > ivs[cur][0]:
                raise InvalidInputError(
                    f"intervals {ivs[prev]} and {ivs[cur]} overlap",
                    field=f"intervals[{cur}]",
                )
        self.intervals = tuple(ivs)

    def __len__(self) -> int:
        return len(self.intervals)

    def __iter__(self):
        return iter(self.intervals)

    def __getitem__(self, i):
        return self.intervals[i]

    def to_json(self) -> list:
        return [[a, b] for a, b in self.intervals]

    def __repr__(self) -> str:
        return f"IntervalSystem({list(self.intervals)!r})"


class VariationResult:
    """Solver output: the value, a witness system attaining it, the weight rank
    assigned to each witness interval (1-based, positional order), and a method
    tag ("exact" or "grid-lower-bound")."""

    __slots__ = ("value", "witness", "assignment", "method")

    def __init__(self, value: float, witness: IntervalSystem, assignment: Tuple[int, ...], method: str):
        self.value = value
        self.witness = witness
        self.assignment = tuple(assignment)
        self.method = method

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "witness": self.witness.to_json(),
            "assignment": list(self.assignment),
            "method": self.method,
        }

    def __repr__(self) -> str:
        return f"VariationResult(value={self.value!r}, method={self.method!r})"


def sigma(f, system, seq: LambdaSequence) -> float:
    """Ordered weighted increment sum: position k is divided by term(k+1)."""
    if not isinstance(system, IntervalSystem):
        system = IntervalSystem(system)
    total = 0.0
    for k, (a, b) in enumerate(system):
        total += abs(f.eval(b) - f.eval(a)) / seq.term(k + 1)
    return total


def best_assignment(values: Sequence[float], seq: LambdaSequence) -> float:
    """Optimal weighted sum of nonnegative finite values: sort descending (ties by
    original index) and divide by term(1), term(2), ... in that order.  This is
    the rearrangement-optimal injection of values into weight ranks."""
    vals = [float(v) for v in values]
    for i, v in enumerate(vals):
        if not 0.0 <= v < math.inf:  # NaN too
            reason = "values must be nonnegative" if v < 0.0 else "values must be finite"
            raise InvalidInputError(reason, field=f"values[{i}]")
    return _sorted_sum(vals, [seq.term(r) for r in range(1, len(vals) + 1)])


def _sorted_sum(values: Sequence[float], terms: Sequence[float]) -> float:
    """The values sorted descending, divided by terms[0], terms[1], ... and
    added left to right: the sum of best_assignment and grid_oracle."""
    total = 0.0  # not sum(): from CPython 3.12 it compensates, changing the bits
    for v, t in zip(sorted(values, reverse=True), terms):  # stable: equal values (+-0.0 too) keep their order
        total += v / t
    return total


def _result(value: float, pairs: Sequence[Tuple[int, int]], pts, vals, method: str) -> VariationResult:
    """The result whose witness joins the index pairs (a, b) of pts, in order."""
    diffs = [abs(vals[b] - vals[a]) for a, b in pairs]
    ranks = [0] * len(pairs)
    # decreasing increments, ties by position: position r gets weight rank r + 1
    for rank, k in enumerate(sorted(range(len(pairs)), key=diffs.__getitem__, reverse=True)):
        ranks[k] = rank + 1
    witness = IntervalSystem([(pts[a], pts[b]) for a, b in pairs])
    return VariationResult(value, witness, ranks, method)


def _weights(seq: LambdaSequence, count: int) -> List[float]:
    return [1.0 / seq.term(j) for j in range(1, count + 1)]


def _score(diffs_asc: Sequence[float], w: Sequence[float], start: float = 0.0, pad: int = 0) -> float:
    """start plus the ascending increments taken largest first, times
    w[pad], w[pad + 1], ..., added left to right: the rearrangement-weighted
    sum of both exact searches."""
    s = start
    for i, d in enumerate(reversed(diffs_asc), pad):
        s += d * w[i]
    return s


# -- exact subset solver --------------------------------------------------


def _subset_search(
    values: Sequence[float], ws: Sequence[Sequence[float]]
) -> List[Tuple[float, Tuple[int, ...]]]:
    """Maximize the rearrangement-weighted sum of consecutive increments over
    subsets of the candidate points (the subset's consecutive pairs all become
    intervals), under every weight vector of ws in one enumeration; one
    (value, subset) per vector.

    Pruning: (a) extensions that make the last three chosen values monotone are
    skipped, because replacing the two increments by their merged span never
    decreases the optimum and the merged subset is enumerated separately;
    (b) a vector leaves a subtree whose padded upper bound (current increments
    topped up with the global maximum increment) cannot beat its incumbent,
    and the subtree is entered while some vector is left in it.  So each
    vector scores the nodes, in the order, that a search under it alone
    would, and its witness is the first maximizer in lexicographic
    enumeration order, which pruning preserves.  An overflowing value is
    refused.
    """
    n = len(values)
    best_val = [0.0] * len(ws)
    best_sub: List[Tuple[int, ...]] = [(0, 1)] * len(ws)
    dmax = max(values) - min(values)
    cumws = [list(itertools.accumulate(w[: n - 1], initial=0.0)) for w in ws]

    def extend(sub: Tuple[int, ...], diffs_asc: List[float], live: List[int]) -> None:
        last = sub[-1]
        v_last = values[last]
        alternation = len(sub) >= 2
        v_prev = values[sub[-2]] if alternation else 0.0
        for nxt in range(last + 1, n):
            v_next = values[nxt]
            if alternation and (v_last - v_prev) * (v_next - v_last) >= 0.0:
                continue
            nd = list(diffs_asc)
            bisect.insort(nd, abs(v_next - v_last))
            rem = n - 1 - nxt
            deeper = []
            for j in live:
                val = _score(nd, ws[j])
                if val > best_val[j]:
                    best_val[j] = val
                    best_sub[j] = sub + (nxt,)
                if rem and _score(nd, ws[j], dmax * cumws[j][rem], rem) > best_val[j]:
                    deeper.append(j)
            if deeper:
                extend(sub + (nxt,), nd, deeper)

    for start in range(n - 1):
        live = [j for j, cumw in enumerate(cumws) if dmax * cumw[n - 1 - start] > best_val[j]]
        if live:
            extend((start,), [], live)
    if not all(map(math.isfinite, best_val)):
        raise InvalidInputError("the variation overflows", field="fn")
    return list(zip(best_val, best_sub))


def _candidate_error(pts: Sequence[float]):
    """The error an exact solve over the merged candidate points pts raises
    before it evaluates anything (too few points, or more than
    SOLVER_POINT_CAP), or None."""
    if len(pts) < 2:
        return DomainError("need at least two distinct points")
    if len(pts) > SOLVER_POINT_CAP:
        return ResourceError(
            f"{len(pts)} candidate points exceed the solver cap of "
            f"{SOLVER_POINT_CAP}; use grid_oracle for a lower bound"
        )
    return None


def lambda_variation(f, seq: LambdaSequence) -> VariationResult:
    """Exact weighted variation of f over [0,1].

    Candidate endpoints are the points of varying monotonicity of f; between
    consecutive candidates f is monotone, so pushing any endpoint to the
    nearest candidate never decreases the objective and the subset search is
    exact for the supported function classes.
    """
    return lambda_variation_on_set(f, seq, critical_points(f).points)


def lambda_variation_on_set(f, seq: LambdaSequence, points: Iterable[float]) -> VariationResult:
    """Weighted variation restricted to interval systems with endpoints in the
    given point set (merged at MERGE_TOL; a merged set merges to itself)."""
    xs = [float(x) for x in points]
    pts = CriticalSet(zip(xs, xs)).points
    _raised(_candidate_error(pts))
    vals = eval_many([f], [pts])[0]
    [(best_val, sub)] = _subset_search(vals, [_weights(seq, len(pts) - 1)])
    return _result(best_val, list(zip(sub, sub[1:])), pts, vals, "exact")


# -- brute-force oracle ---------------------------------------------------


def _best_over_permutations(diffs: Sequence[float], terms: Sequence[float]) -> float:
    """Largest left-to-right sum of ``diffs[p] / terms[r]`` over every
    assignment of the ranks ``terms[:k]`` to the k increments, or 0.0.

    A dynamic program over rank subsets (Held & Karp 1962): ``best[mask]`` is
    the largest sum of the first popcount(mask) increments over every order of
    the ranks in mask.  Each candidate adds the quotients of one permutation in
    the same order as a scalar loop over it, and fl(a + x) never decreases as
    a grows, so the largest prefix plus x is the largest full sum, bit for bit.
    """
    k = len(diffs)
    q = [[d / t for t in terms[:k]] for d in diffs]
    bits = [(r, 1 << r) for r in range(k)]
    best = [0.0]
    for mask in range(1, 1 << k):
        row = q[mask.bit_count() - 1]
        best.append(max([best[mask ^ bit] + row[r] for r, bit in bits if mask & bit]))
    return max(0.0, best[-1])


def grid_oracle(f, seq: LambdaSequence, grid: Iterable[float]) -> float:
    """Independent brute-force maximum over ALL subsets of a small grid.

    No pruning and no reliance on critical-point theory; for grids of at most
    8 points every subset's sorted assignment is re-verified against every
    rank permutation.  Both read the terms once per call.  A grid whose
    values span more than the largest float is refused.
    """
    xs = [float(x) for x in grid]
    pts = CriticalSet(zip(xs, xs)).points
    n = len(pts)
    if n > ORACLE_POINT_CAP:
        raise ResourceError(f"grid of {n} points exceeds the oracle cap of {ORACLE_POINT_CAP}")
    vals = list(map(f.eval, pts))
    if not math.isfinite(max(vals, default=0.0) - min(vals, default=0.0)):
        raise InvalidInputError("the variation overflows", field="fn")
    verify = n <= 8
    terms = [seq.term(r) for r in range(1, n)]
    best = 0.0
    for size in range(2, n + 1):
        for comb in itertools.combinations(range(n), size):
            diffs = [abs(vals[comb[i + 1]] - vals[comb[i]]) for i in range(size - 1)]
            val = _sorted_sum(diffs, terms)
            if verify:
                brute = _best_over_permutations(diffs, terms)
                if abs(brute - val) > 1e-9 * max(1.0, abs(val)):
                    raise PropertyViolationError(
                        "sorted assignment disagrees with permutation enumeration"
                    )
            if val > best:
                best = val
    return best


# -- restricted (short-interval) variation --------------------------------


def _restricted_search(
    points: Sequence[float],
    values: Sequence[float],
    w: Sequence[float],
    delta: float,
) -> Tuple[float, Tuple[Tuple[int, int], ...]]:
    """Maximize the rearrangement-weighted sum over systems of nonoverlapping
    intervals with endpoints among `points` and length at most `delta`.

    Unlike the subset solver, gaps are allowed to go uncounted, so the search
    walks interval choices left to right.  Two reductions keep fine grids
    (hundreds of points) tractable: only Pareto-optimal intervals per start
    point are branched on (an interval is dominated by any shorter one with an
    increment at least as large), and the upper bound at each node merges the
    chosen increments with the marginal-gain profile of a cardinality-capped
    suffix dynamic program.  The profile's prefix sums dominate the top-k sums
    of every admissible completion, so by majorization against the decreasing
    weights the bound is sound, and it is exact whenever the suffix optimum
    does not depend on how many weight ranks the prefix already consumed.
    An overflowing value is refused.
    """
    import numpy as np
    n = len(points)
    # Pareto children: increments must strictly increase with interval length,
    # so the scan lists them by increment ascending; branch largest first
    children: List[List[Tuple[float, int]]] = []
    for i in range(n):
        vi = values[i]
        record = 0.0
        kids: List[Tuple[float, int]] = []
        for jj in range(i + 1, n):
            if points[jj] - points[i] > delta + MERGE_TOL:
                break
            d = abs(values[jj] - vi)
            if d > record:
                kids.append((d, jj))
                record = d
        kids.reverse()
        children.append(kids)
    # cap[i][j]: best unweighted sum over disjoint admissible systems of at
    # most j intervals within points[i:]; gains[i]: its increments, largest first
    J = n - 1
    cap = np.zeros((n + 1, J + 1))
    gains: List[List[float]] = [[0.0] * J] * (n + 1)  # cap[n] is zeros
    for i in range(n - 1, -1, -1):
        row = cap[i]
        row[:] = cap[i + 1]
        for d, jj in children[i]:
            np.maximum(row[1:], d + cap[jj][:-1], out=row[1:])
        g = np.diff(row)
        g[::-1].sort()
        gains[i] = g.tolist()  # bound() adds Python floats twice as fast as numpy scalars

    nw = len(w)

    def bound(diffs_asc: List[float], i: int) -> float:
        g = gains[i]  # len(g) == nw: a gain is left at every rank
        a = len(diffs_asc) - 1
        s = 0.0
        b = 0
        for r in range(nw):
            if a >= 0 and diffs_asc[a] >= g[b]:
                v = diffs_asc[a]
                a -= 1
            else:
                v = g[b]
                b += 1
            if v <= 0.0:
                break
            s += v * w[r]
        return s

    best_val = 0.0
    best_choice: Tuple[Tuple[int, int], ...] = ()
    nodes = 0

    def visit(i: int, diffs_asc: List[float], chosen: Tuple[Tuple[int, int], ...]) -> None:
        nonlocal best_val, best_choice, nodes
        nodes += 1
        if nodes > _RESTRICTED_NODE_BUDGET:
            raise ResourceError(
                "restricted-variation search exceeded its node budget; "
                "lower the resolution"
            )
        for d, jj in children[i]:
            nd = list(diffs_asc)
            bisect.insort(nd, d)
            val = _score(nd, w)
            nc = chosen + ((i, jj),)
            if val > best_val:
                best_val = val
                best_choice = nc
            if bound(nd, jj) > best_val:
                visit(jj, nd, nc)
        if bound(diffs_asc, i + 1) > best_val:
            visit(i + 1, diffs_asc, chosen)

    visit(0, [], ())
    if not math.isfinite(best_val):
        raise InvalidInputError("the variation overflows", field="fn")
    return best_val, best_choice


def _chain_closure_holds(f: PiecewiseLinear, pts: Sequence[float], delta: float) -> bool:
    """Every delta-translate chain of every breakpoint stays inside the
    candidate set: a sufficient condition for the candidate-restricted optimum
    to equal the true short-interval supremum of a piecewise-linear function
    (sliding any interval chain until an endpoint hits a breakpoint is then
    representable)."""
    def present(x: float) -> bool:
        i = bisect.bisect_left(pts, x - MERGE_TOL)
        return i < len(pts) and abs(pts[i] - x) <= MERGE_TOL

    for bp in f.xs:
        for direction in (1.0, -1.0):
            k = 1
            while True:
                x = bp + direction * k * delta
                if x < -MERGE_TOL or x > 1.0 + MERGE_TOL:
                    break
                if not present(min(1.0, max(0.0, x))):
                    return False
                k += 1
                if k > len(pts) + 1:
                    return False
    return True


def restricted_variation(f, seq: LambdaSequence, delta: float, resolution: int = 8) -> VariationResult:
    """Weighted variation over systems whose intervals all have length <= delta.

    Candidates are the critical points (all breakpoints, for piecewise-linear
    f), a uniform grid of resolution+1 points, and the +-delta translates of
    the former, clipped to [0,1].  The result is exact when f is piecewise
    linear and the candidate set is closed under delta-translates of its
    breakpoints; otherwise it is an honest lower bound and tagged as such.
    """
    if not 0.0 < delta <= 1.0:
        raise DomainError(f"delta must lie in (0, 1], got {delta!r}")
    _check_positive_int(resolution, "resolution")
    # a piecewise-linear function's critical points are among its breakpoints
    base = set(f.xs if isinstance(f, PiecewiseLinear) else critical_points(f).points)
    if resolution >= RESTRICTED_CANDIDATE_CAP:
        # checked before the grid is built; merging at MERGE_TOL leaves it over the cap
        raise ResourceError(
            f"the {resolution + 1} grid points of resolution {resolution} exceed the "
            f"restricted-solver cap of {RESTRICTED_CANDIDATE_CAP}; lower the resolution"
        )
    cands = set(base)
    cands.update(i / resolution for i in range(resolution + 1))
    for x in base:
        for s in (x - delta, x + delta):
            if 0.0 <= s <= 1.0:
                cands.add(s)
    xs = list(cands)
    pts = CriticalSet(zip(xs, xs)).points
    if len(pts) > RESTRICTED_CANDIDATE_CAP:
        raise ResourceError(
            f"{len(pts)} candidate points exceed the restricted-solver cap of "
            f"{RESTRICTED_CANDIDATE_CAP}; lower the resolution"
        )
    vals = list(map(f.eval, pts))
    # the search's suffix bounds add increments: past the largest float they
    # turn to NaN, prune every branch and leave a wrong value
    if not math.isfinite(sum(abs(b - a) for a, b in zip(vals, vals[1:]))):
        raise InvalidInputError("the variation overflows", field="fn")
    w = _weights(seq, len(pts) - 1)
    best_val, chosen = _restricted_search(pts, vals, w, delta)
    exact = isinstance(f, PiecewiseLinear) and _chain_closure_holds(f, pts, delta)
    return _result(best_val, chosen, pts, vals, "exact" if exact else "grid-lower-bound")


def wiener_profile(
    f, seq: LambdaSequence, deltas: Sequence[float], resolution: int = 8
) -> List[Tuple[float, float]]:
    """Restricted variation along a strictly decreasing delta schedule.

    The profile must be nonincreasing (shrinking delta only removes systems);
    a violation raises, since it would mean the solver itself is broken.
    """
    ds = [float(d) for d in deltas]
    if len(ds) < 2:
        raise DomainError("schedule needs at least two entries")
    for i in range(1, len(ds)):
        if ds[i] >= ds[i - 1]:
            raise DomainError("schedule must be strictly decreasing")
    profile = [(d, restricted_variation(f, seq, d, resolution).value) for d in ds]
    for i in range(1, len(profile)):
        if profile[i][1] > profile[i - 1][1] + 1e-12:
            raise PropertyViolationError(
                f"restricted variation increased from delta={profile[i - 1][0]} "
                f"to delta={profile[i][0]}"
            )
    return profile


# -- derived quantities ---------------------------------------------------


def tail_variation(f, seq: LambdaSequence, m: int) -> float:
    """Weighted variation against the sequence with its first m terms dropped."""
    return lambda_variation(f, seq.tail(m)).value


def lambda_norm(f, seq: LambdaSequence) -> float:
    """Variation plus |f(0)|; a norm on the space where the variation is finite."""
    return _norms_many([f], seq)[0]


def _variations_many(fs: Sequence[object], seqs: Sequence[LambdaSequence]):
    """Per function model of fs, in order: its critical points, its values
    there, and its exact variation under every weight sequence of seqs (one
    _subset_search).  One batch of critical sets, one evaluation pass
    (eval_many) at the sets that passed their checks, and weight vectors
    read again only when a longer set comes.  A generator: function i's
    critical-set error, or else its candidate-count error, is raised when
    function i is reached, after every earlier function's variations, as
    solving them one by one would."""
    crits = [
        crit if isinstance(crit, Exception) else _candidate_error(crit.points) or crit
        for crit in critical_points_many(fs)
    ]
    points = [() if isinstance(crit, Exception) else crit.points for crit in crits]
    read = 0  # the length of each weight vector in ws
    for crit, vals in zip(crits, eval_many(fs, points)):
        pts = _raised(crit).points
        if len(pts) - 1 > read:  # a weight that overflows is refused at the first set that reads it
            read = len(pts) - 1
            ws = [_weights(seq, read) for seq in seqs]
        yield pts, vals, [value for value, _ in _subset_search(vals, ws)]


def _norms_many(fs: Sequence[object], seq: LambdaSequence) -> List[float]:
    """lambda_norm of every function model of fs, from one _variations_many
    batch.  Raises what the first failing lambda_norm of fs in order would:
    its critical-set error, its candidate count, or its norm overflow."""
    norms = []
    for _, vals, (variation,) in _variations_many(fs, [seq]):
        norm = variation + abs(vals[0])  # the first value is at 0.0
        if not math.isfinite(norm):
            raise InvalidInputError("the norm overflows", field="fn")
        norms.append(norm)
    return norms


def lambda_distance(p, f: PiecewiseLinear, seq: LambdaSequence) -> float:
    """Norm of the difference p - f (p a Bernstein polynomial on [0,1])."""
    return lambda_norm(subtract(p, f), seq)
