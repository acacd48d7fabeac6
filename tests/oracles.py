"""Independent cross-check implementations used only by the tests.

These deliberately avoid the library's evaluation strategies: the
characteristic polynomial comes from the Leibniz determinant expansion
(k! terms) instead of the division-free recurrence, the open-question
search visits every atom tuple instead of skipping pruned blocks,
s_k and d_k are built through all k suffix layers on n*n term dicts
over the ring's own values with mul_into, instead of on packed integer
rows joined at k/2, and products of elements and matrices
run the term kernel on the ring's own values (Fractions over the
rationals) instead of on integer numerators over a common denominator,
so agreement is meaningful evidence.
"""

from itertools import combinations, permutations
from typing import List, Optional, Sequence, Tuple

from grassmat import GrMatrix, Poly
from grassmat.errors import DegreeTooLargeError
from grassmat.grassmann import GrassmannElem, mul_into
from grassmat.harness import Campaign, _Trials, atoms, degrees_for
from grassmat.identities import (
    DEFAULT_CAPELLI_DP_K,
    DEFAULT_STANDARD_DP_K,
    _check_matrix_family,
)
from grassmat.poly import scalar_rows
from grassmat.report import Report


def perm_sign_by_inversions(perm):
    inv = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                inv += 1
    return -1 if inv % 2 else 1


def leibniz_charpoly(A0: GrMatrix) -> Poly:
    """det(xI - A0) expanded over all permutations."""
    ring = A0.ring
    a = scalar_rows(A0)
    n = A0.n
    x = Poly.x(ring)
    grid = [
        [
            (x - Poly(ring, [a[i][j]])) if i == j else -Poly(ring, [a[i][j]])
            for j in range(n)
        ]
        for i in range(n)
    ]
    total = Poly.zero(ring)
    for perm in permutations(range(n)):
        term = Poly.one(ring)
        for i in range(n):
            term = term * grid[i][perm[i]]
        if perm_sign_by_inversions(perm) < 0:
            term = -term
        total = total + term
    return total


def brute_force_open_search(campaign: Campaign) -> Report:
    """The open-question search as a flat walk over combinations().

    Every k-subset is built, and the walk recomputes its mask union and
    degree sum.  harness.search_open_question must give the same report.

    Atom tuples with a repeated generator across masks evaluate to zero
    term by term, so the pruned slice cannot hide a counterexample;
    pruning only skips their evaluation and is tallied separately.  The
    verdict is never PASS: either a counterexample with reproducer, or
    the exact coverage reached within budget.
    """
    n, m, ring = campaign.n, campaign.m, campaign.ring
    t = _Trials(campaign)
    k = degrees_for(n, m)["open_question_degree"]
    budget = campaign.budget
    pool = atoms(n, m, ring)
    total = len(pool)
    t.note("degree", k)
    t.note("atoms", total)
    evaluated = 0
    pruned = 0
    seen = 0
    exhausted = True
    for combo in combinations(range(total), k):
        if seen >= budget:
            exhausted = False
            break
        seen += 1
        mats = [pool[i] for i in combo]
        union = 0
        degsum = 0
        for A in mats:
            for row in A.rows:
                for e in row:
                    for mask in e.terms:
                        union |= mask
                        degsum += mask.bit_count()
        if degsum > m or union.bit_count() != degsum:
            pruned += 1
            continue
        evaluated += 1
        t.run("standard_zero", [(None, {"mats": mats})])
        if t.failed:
            t.note("counterexample_value", t.value.compact_str())
            break
    t.note("tuples_considered", seen)
    t.note("tuples_evaluated", evaluated)
    t.note("tuples_pruned", pruned)
    t.note("exhausted", exhausted and not t.failed)

    if not t.failed and campaign.random_samples:
        draws = t.draws(
            lambda rng: {"mats": [pool[i] for i in sorted(rng.sample(range(total), k))]},
            campaign.random_samples,
        )
        t.run("standard_zero", draws)
        t.note("random_samples", t.trials - evaluated)
    return t.finish(search=True)


# ----- s_k and d_k through every suffix layer, on n*n term dicts -----

# A state is a flat row-major list of n*n term dicts over the ring's
# own values, None for a zero entry; a layer maps subset masks to its
# live states only.
State = List[Optional[dict]]


def _nonzero_entries(A: GrMatrix) -> List[Tuple[int, int, dict]]:
    """(row, column, terms) of every nonzero entry of A."""
    return [
        (r, t, e.terms)
        for r, row in enumerate(A.rows)
        for t, e in enumerate(row)
        if e.terms
    ]


def _identity_state(n: int, ring) -> State:
    return [{0: ring.one} if j % (n + 1) == 0 else None for j in range(n * n)]


def _mul_state_into(acc: State, xnz: list, state: State, n: int, neg: bool = False) -> None:
    """acc += (-1)^neg * x * state, raw; xnz holds x's nonzero entries."""
    for r, t, ta in xnz:
        rn = r * n
        tn = t * n
        for c in range(n):
            tb = state[tn + c]
            if tb is not None:
                d = acc[rn + c]
                if d is None:
                    d = acc[rn + c] = {}
                mul_into(d, ta, tb, neg)


def _clean_layer(layer: dict, ring) -> dict:
    """Clean every raw entry in place; drop the states that cancel to zero."""
    dead = []
    for mask, state in layer.items():
        for j, d in enumerate(state):
            if d is not None:
                state[j] = ring.clean_terms(d) or None
        if all(d is None for d in state):
            dead.append(mask)
    for mask in dead:
        del layer[mask]
    return layer


def _dp_transition(xnz: List[list], layer: dict, k: int, n: int, ring) -> dict:
    """One cardinality layer of the suffix DP, pushed from live states.

    Consumes layer: each live h(T) is popped and pushed into every
    superset S = T + {i}, adding (-1)^|{j in T : j < i}| x_i h(T) to
    h(S).  xnz[i] holds the nonzero entries of x_i.
    """
    nxt: dict = {}
    while layer:
        mask, prev = layer.popitem()
        for i in range(k):
            bit = 1 << i
            if mask & bit or not xnz[i]:
                continue
            acc = nxt.get(mask | bit)
            if acc is None:
                acc = nxt[mask | bit] = [None] * (n * n)
            neg = (mask & (bit - 1)).bit_count() & 1 == 1
            _mul_state_into(acc, xnz[i], prev, n, neg)
    return _clean_layer(nxt, ring)


def _premultiply(y: GrMatrix, layer: dict, n: int, ring) -> dict:
    """Replace every state h of layer by y * h."""
    ynz = _nonzero_entries(y)
    for mask, state in layer.items():
        out: State = [None] * (n * n)
        _mul_state_into(out, ynz, state, n)
        layer[mask] = out
    return _clean_layer(layer, ring)


def _wrap_state(state: Optional[State], n: int, m: int, ring) -> GrMatrix:
    """The GrMatrix of a raw state; None is the zero matrix."""
    if state is None:
        return GrMatrix.zero(n, m, ring)
    return GrMatrix(
        [
            [GrassmannElem._make(m, ring, d or {}) for d in state[r * n : (r + 1) * n]]
            for r in range(n)
        ]
    )


def full_layer_standard_dp(
    mats: Sequence[GrMatrix], max_k: int = DEFAULT_STANDARD_DP_K
) -> GrMatrix:
    """s_k via the subset DP; agrees with standard_naive."""
    k = len(mats)
    if k > max_k:
        raise DegreeTooLargeError(f"DP evaluation capped at k <= {max_k}, got {k}")
    _check_matrix_family(mats, "standard_dp")
    first = mats[0]
    n, m, ring = first.n, first.m, first.ring
    xnz = [_nonzero_entries(A) for A in mats]
    layer = {0: _identity_state(n, ring)}
    for _ in range(k):
        layer = _dp_transition(xnz, layer, k, n, ring)
    return _wrap_state(layer.get((1 << k) - 1), n, m, ring)


def full_layer_capelli_dp(
    xs: Sequence[GrMatrix], ys: Sequence[GrMatrix], max_k: int = DEFAULT_CAPELLI_DP_K
) -> GrMatrix:
    """d_k via the subset DP, y_{k-s+1} premultiplied before layer s;
    agrees with capelli_naive."""
    k = len(xs)
    if k > max_k:
        raise DegreeTooLargeError(f"DP evaluation capped at k <= {max_k}, got {k}")
    _check_matrix_family(list(xs) + list(ys), "capelli_dp")
    first = ys[0]
    n, m, ring = first.n, first.m, first.ring
    xnz = [_nonzero_entries(A) for A in xs]
    layer = {0: _identity_state(n, ring)}
    for s in range(1, k + 1):
        layer = _premultiply(ys[k - s + 1], layer, n, ring)
        layer = _dp_transition(xnz, layer, k, n, ring)
    layer = _premultiply(ys[0], layer, n, ring)
    return _wrap_state(layer.get((1 << k) - 1), n, m, ring)


# ----- products on the ring's own values -----


def ring_value_elem_mul(self: GrassmannElem, other: GrassmannElem) -> GrassmannElem:
    """a * b with the term kernel on ring values; GrassmannElem.__mul__ must agree."""
    self._check_other(other)
    ring = self.ring
    acc: dict = {}
    mul_into(acc, self.terms, other.terms)
    return GrassmannElem._make(self.m, ring, ring.clean_terms(acc))


def ring_value_matmul(self: GrMatrix, other: GrMatrix) -> GrMatrix:
    """A * B with the term kernel on ring values; GrMatrix.__mul__ must agree."""
    self._check_other(other)
    n, m, ring = self.n, self.m, self.ring
    clean = ring.clean_terms
    make = GrassmannElem._make
    brows = other.rows
    out = []
    for i in range(n):
        arow = self.rows[i]
        nz = [(k, arow[k].terms) for k in range(n) if arow[k].terms]
        row = []
        for j in range(n):
            acc: dict = {}
            for k, ta in nz:
                tb = brows[k][j].terms
                if tb:
                    mul_into(acc, ta, tb)
            row.append(make(m, ring, clean(acc)))
        out.append(tuple(row))
    return GrMatrix._make(n, m, ring, tuple(out))
