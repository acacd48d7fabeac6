"""Multilinear identity evaluators: standard and Capelli polynomials,
and alternating sums over Young subgroups.

The standard polynomial is s_k(x_1..x_k) = sum over permutations pi of
sign(pi) x_{pi(1)} ... x_{pi(k)}.  The Capelli polynomial interleaves
fixed y's between the alternating x's:

    d_k(x; y) = sum over pi of sign(pi) y_0 x_{pi(1)} y_1 ... x_{pi(k)} y_k.

Substituting every y_i = I recovers s_k.

Both have a naive k!-term evaluator (the oracle, guarded at small k) and
a subset dynamic program.  The DP runs over suffixes: h(S) is the signed
sum over arrangements of S in the last |S| slots, built from
h(S minus {i}) by placing x_i first among them, which costs
sign (-1)^|{j in S : j < i}|.  A state is a raw list of n*n term dicts
(None for a zero entry), not a GrMatrix, and a layer keeps only its
live (nonzero) states.  Each layer is built by pushing every live state
of the previous one into its supersets, consuming the previous layer as
it goes, and is cleaned once at its end, when states that cancel are
dropped.  So the work scales with the live states; sparse inputs such
as atom tuples touch far fewer.

h(S) is s_|S| on the x's of S in increasing order, so prefixes and
suffixes are the same family and s_k meets in the middle: the standard
DP builds layers only up to size ceil(k/2) and joins
s_k = sum over |S| = floor(k/2) of (-1)^shuffle(S) h(S) h(S^c), over
the live pairs.  Memory peaks at one layer of at most C(k, k//2) live
states, or for odd k at layers floor(k/2) and ceil(k/2) held together.
For the Capelli form, whose prefixes and suffixes carry different y's,
every layer is built, and the layer at size s premultiplies the fixed
y_{k-s+1} into each live state before the transition.  Only the final
full-subset state is wrapped into a GrMatrix.

The operands a call holds fixed (each x_i, each y, each left state of
the join) get a product table, filled lazily for that call only: for
each nonzero entry and each right mask sb it meets, the signed terms
grassmann.signed_products(entry, sb).  The inner loop then needs no
disjointness test or sign lookup.

young_alternating_sum restricts the alternating sum to a Young subgroup
(a product of symmetric groups on the classes of a set partition).  It
does not verify any commutation hypotheses on its inputs; callers that
rely on the vanishing or factorial lemmas must check those separately.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations, product
from math import factorial
from typing import List, Optional, Sequence, Tuple, Union

from .errors import (
    ContextMismatchError,
    DegreeTooLargeError,
    GroupTooLargeError,
    LengthMismatchError,
)
from .gmatrix import GrMatrix
from .grassmann import GrassmannElem, signed_products

DEFAULT_NAIVE_K = 8
DEFAULT_STANDARD_DP_K = 24
DEFAULT_CAPELLI_DP_K = 20
DEFAULT_YOUNG_ORDER = 10**6

Operand = Union[GrMatrix, GrassmannElem]


def perm_sign(p: Sequence[int]) -> int:
    """Sign by inversion count; fine at the k <= 8 oracle scale."""
    inv = 0
    for a in range(len(p)):
        pa = p[a]
        for b in range(a + 1, len(p)):
            if pa > p[b]:
                inv += 1
    return -1 if inv & 1 else 1


def _check_matrix_family(mats: Sequence[GrMatrix], what: str) -> None:
    if not mats:
        raise LengthMismatchError(f"{what} needs at least one matrix")
    first = mats[0]
    if not isinstance(first, GrMatrix):
        raise TypeError(f"{what} expects GrMatrix arguments")
    for A in mats[1:]:
        first._check_other(A)


def standard_naive(mats: Sequence[GrMatrix], max_k: int = DEFAULT_NAIVE_K) -> GrMatrix:
    """s_k by direct enumeration of all k! words."""
    k = len(mats)
    if k > max_k:
        raise DegreeTooLargeError(f"naive evaluation capped at k <= {max_k}, got {k}")
    _check_matrix_family(mats, "standard_naive")
    first = mats[0]
    total = GrMatrix.zero(first.n, first.m, first.ring)
    for p in permutations(range(k)):
        w = mats[p[0]]
        for idx in p[1:]:
            if w.is_zero():
                break
            w = w * mats[idx]
        if w.is_zero():
            continue
        total = total + w if perm_sign(p) > 0 else total - w
    return total


def capelli_naive(
    xs: Sequence[GrMatrix],
    ys: Sequence[GrMatrix],
    max_k: int = DEFAULT_NAIVE_K,
) -> GrMatrix:
    """d_k by direct enumeration; ys must have length k + 1."""
    k = len(xs)
    if len(ys) != k + 1:
        raise LengthMismatchError(f"need {k + 1} y's for x-degree {k}, got {len(ys)}")
    if k > max_k:
        raise DegreeTooLargeError(f"naive evaluation capped at k <= {max_k}, got {k}")
    _check_matrix_family(list(xs) + list(ys), "capelli_naive")
    first = ys[0]
    total = GrMatrix.zero(first.n, first.m, first.ring)
    for p in permutations(range(k)):
        w = ys[0]
        for t, idx in enumerate(p):
            if w.is_zero():
                break
            w = w * xs[idx] * ys[t + 1]
        if w.is_zero():
            continue
        total = total + w if perm_sign(p) > 0 else total - w
    return total


# A raw state is a flat row-major list of n*n term dicts, None for a
# zero entry; a layer maps subset masks to its live states only.
State = List[Optional[dict]]


def _operand(state: State, n: int) -> list:
    """(r, t, terms, table) of every nonzero entry of a state held fixed.

    table maps each right mask sb met so far to signed_products(terms,
    sb); it fills lazily and lives as long as the operand, one call.
    """
    return [(j // n, j % n, d, {}) for j, d in enumerate(state) if d is not None]


def _matrix_operand(A: GrMatrix) -> list:
    """The _operand of a GrMatrix; its entries' term dicts are shared."""
    return [
        (r, t, e.terms, {})
        for r, row in enumerate(A.rows)
        for t, e in enumerate(row)
        if e.terms
    ]


def _identity_state(n: int, ring) -> State:
    return [{0: ring.one} if j % (n + 1) == 0 else None for j in range(n * n)]


def _mul_state_into(acc: State, x: list, state: State, n: int, neg: bool = False) -> None:
    """acc += (-1)^neg * x * state, raw; x is the _operand of the left factor."""
    for r, t, ta, table in x:
        rn = r * n
        tn = t * n
        for c in range(n):
            tb = state[tn + c]
            if tb is None:
                continue
            d = acc[rn + c]
            if d is None:
                d = acc[rn + c] = {}
            get = d.get
            for sb, cb in tb.items():
                row = table.get(sb)
                if row is None:
                    row = table[sb] = signed_products(ta, sb)
                if neg:
                    cb = -cb
                for u, ca in row:
                    prev = get(u)
                    d[u] = ca * cb if prev is None else prev + ca * cb


def _clean_layer(layer: dict, ring) -> dict:
    """Clean every raw entry in place; drop the states that cancel to zero."""
    clean = ring.clean_terms
    dead = []
    for mask, state in layer.items():
        live = False
        for j, d in enumerate(state):
            if d is not None:
                d = clean(d)
                if d:
                    state[j] = d
                    live = True
                else:
                    state[j] = None
        if not live:
            dead.append(mask)
    for mask in dead:
        del layer[mask]
    return layer


def _dp_transition(xnz: List[list], layer: dict, k: int, n: int, ring) -> dict:
    """One cardinality layer of the suffix DP, pushed from live states.

    Consumes layer: each live h(T) is popped and pushed into every
    superset S = T + {i}, adding (-1)^|{j in T : j < i}| x_i h(T) to
    h(S).  xnz[i] is the _operand of x_i.
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
    yop = _matrix_operand(y)
    for mask, state in layer.items():
        out: State = [None] * (n * n)
        _mul_state_into(out, yop, state, n)
        layer[mask] = out
    return _clean_layer(layer, ring)


def _join(left: dict, right: dict, k: int, n: int, ring) -> Optional[State]:
    """s_k = sum over S in left of (-1)^shuffle(S) h(S) h(S^c), S^c in right.

    shuffle(S) counts the pairs a in S, b outside S with a > b: the
    inversions of the word that lists S, then S^c, each increasing.
    That is the sign of v_S v_{S^c}.  None when the sum is zero.
    """
    full = (1 << k) - 1
    acc: State = [None] * (n * n)
    for mask, state in left.items():
        comp = right.get(full ^ mask)
        if comp is not None:
            ((_, sign),) = signed_products({mask: 1}, full ^ mask)
            _mul_state_into(acc, _operand(state, n), comp, n, sign < 0)
    return _clean_layer({full: acc}, ring).get(full)


def _wrap_state(state: Optional[State], n: int, m: int, ring) -> GrMatrix:
    """The GrMatrix of a raw state; None is the zero matrix."""
    if state is None:
        return GrMatrix.zero(n, m, ring)
    z = GrassmannElem.zero(m, ring)
    make = GrassmannElem._make
    return GrMatrix._make(
        n, m, ring,
        tuple(
            tuple(z if d is None else make(m, ring, d) for d in state[r * n : (r + 1) * n])
            for r in range(n)
        ),
    )


def standard_dp(
    mats: Sequence[GrMatrix], max_k: int = DEFAULT_STANDARD_DP_K
) -> GrMatrix:
    """s_k via the subset DP, met in the middle; agrees with standard_naive.

    The suffix layers h(T) = s_|T|(x_T) are built only up to size
    ceil(k/2); when k is odd a copy of layer floor(k/2) is kept beside
    it, so the two are live together at the peak.  _join then sums
    h(S) h(S^c) over the live pairs with |S| = floor(k/2).
    """
    k = len(mats)
    if k > max_k:
        raise DegreeTooLargeError(f"DP evaluation capped at k <= {max_k}, got {k}")
    _check_matrix_family(mats, "standard_dp")
    first = mats[0]
    n, m, ring = first.n, first.m, first.ring
    xnz = [_matrix_operand(A) for A in mats]
    layer = {0: _identity_state(n, ring)}
    for _ in range(k // 2):
        layer = _dp_transition(xnz, layer, k, n, ring)
    left = layer
    if k & 1:
        layer = _dp_transition(xnz, dict(left), k, n, ring)
    return _wrap_state(_join(left, layer, k, n, ring), n, m, ring)


def capelli_dp(
    xs: Sequence[GrMatrix],
    ys: Sequence[GrMatrix],
    max_k: int = DEFAULT_CAPELLI_DP_K,
) -> GrMatrix:
    """d_k via the subset DP; agrees with capelli_naive.

    The suffix owning the x-slots k-s+1..k starts with y_{k-s+1} already
    attached to the previous layer, so each layer premultiplies its
    fixed y once per live raw state instead of once per transition
    term; y_0 is premultiplied last.  There is no join, since a prefix
    and a suffix carry different y's: all k layers are built, unless one
    comes out empty.  Only the full-mask state is wrapped into a
    GrMatrix.
    """
    k = len(xs)
    if len(ys) != k + 1:
        raise LengthMismatchError(f"need {k + 1} y's for x-degree {k}, got {len(ys)}")
    if k > max_k:
        raise DegreeTooLargeError(f"DP evaluation capped at k <= {max_k}, got {k}")
    _check_matrix_family(list(xs) + list(ys), "capelli_dp")
    first = ys[0]
    n, m, ring = first.n, first.m, first.ring
    xnz = [_matrix_operand(A) for A in xs]
    layer = {0: _identity_state(n, ring)}
    for s in range(1, k + 1):
        if not layer:
            break  # every later layer is empty too
        layer = _premultiply(ys[k - s + 1], layer, n, ring)
        layer = _dp_transition(xnz, layer, k, n, ring)
    layer = _premultiply(ys[0], layer, n, ring)
    return _wrap_state(layer.get((1 << k) - 1), n, m, ring)


def standard_product_eval(
    mats: Sequence[GrMatrix], max_k: int = DEFAULT_STANDARD_DP_K
) -> GrMatrix:
    """Product of s_{2n} over consecutive blocks of 2n matrices.

    The context dictates the shape: with entries of rank m there must be
    exactly (m//2 + 1) blocks, i.e. len(mats) == 2n(m//2 + 1).
    """
    _check_matrix_family(mats, "standard_product_eval")
    first = mats[0]
    n, m = first.n, first.m
    block = 2 * n
    blocks = m // 2 + 1
    if len(mats) != block * blocks:
        raise LengthMismatchError(
            f"need {block * blocks} matrices ({blocks} blocks of {block}), got {len(mats)}"
        )
    result = GrMatrix.identity(n, m, first.ring)
    for b in range(blocks):
        factor = standard_dp(mats[b * block : (b + 1) * block], max_k=max_k)
        result = result * factor
    return result


@dataclass(frozen=True)
class YoungSpec:
    """A Young subgroup datum on positions 1..k.

    classes partitions {1..k}; the subgroup is the product of the
    symmetric groups on the classes.  anticommuting lists the positions
    whose values are declared pairwise anticommuting (the complement is
    declared central for the instance); the vanishing and factorial
    lemmas require exactly one non-anticommuting position per class.
    """

    k: int
    classes: Tuple[Tuple[int, ...], ...]
    anticommuting: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        seen = sorted(p for cls in self.classes for p in cls)
        if seen != list(range(1, self.k + 1)):
            raise ValueError("classes must partition positions 1..k")
        if not self.anticommuting <= set(range(1, self.k + 1)):
            raise ValueError("anticommuting positions outside 1..k")
        object.__setattr__(
            self, "classes", tuple(tuple(sorted(c)) for c in self.classes)
        )
        object.__setattr__(self, "anticommuting", frozenset(self.anticommuting))

    @classmethod
    def from_interval_sizes(cls, sizes: Sequence[int]) -> "YoungSpec":
        """Interval classes of the given sizes, leftmost positions central."""
        k = sum(sizes)
        classes = []
        anticommuting = set()
        start = 1
        for size in sizes:
            if size < 1:
                raise ValueError("interval sizes must be positive")
            cls_positions = tuple(range(start, start + size))
            classes.append(cls_positions)
            anticommuting.update(cls_positions[1:])
            start += size
        return cls(k=k, classes=tuple(classes), anticommuting=frozenset(anticommuting))

    def central_positions(self) -> frozenset:
        return frozenset(range(1, self.k + 1)) - self.anticommuting

    def one_central_per_class(self) -> bool:
        central = self.central_positions()
        return all(len(central & set(c)) == 1 for c in self.classes)

    def group_order(self) -> int:
        order = 1
        for c in self.classes:
            order *= factorial(len(c))
        return order


def young_alternating_sum(
    elems: Sequence[Operand],
    spec: YoungSpec,
    max_order: int = DEFAULT_YOUNG_ORDER,
) -> Operand:
    """sum over the Young subgroup of sign(pi) a_{pi(1)} ... a_{pi(k)}.

    Works on matrices or bare algebra elements; all operands must share
    one context.  Hypotheses on the operands are not checked here.
    """
    if len(elems) != spec.k:
        raise LengthMismatchError(f"need {spec.k} operands, got {len(elems)}")
    order = spec.group_order()
    if order > max_order:
        raise GroupTooLargeError(f"subgroup order {order} exceeds cap {max_order}")
    first = elems[0]
    if isinstance(first, GrMatrix):
        _check_matrix_family(elems, "young_alternating_sum")
        total = GrMatrix.zero(first.n, first.m, first.ring)
    elif isinstance(first, GrassmannElem):
        for e in elems[1:]:
            first._check_other(e)
        total = GrassmannElem.zero(first.m, first.ring)
    else:
        raise TypeError("operands must be GrMatrix or GrassmannElem")
    if any(not isinstance(e, type(first)) for e in elems):
        raise ContextMismatchError("operands mix matrices and bare elements")

    classes = [list(c) for c in spec.classes]
    for choice in product(*(list(permutations(c)) for c in classes)):
        pi = {}
        sign = 1
        for cls_positions, perm in zip(classes, choice):
            for pos, src in zip(cls_positions, perm):
                pi[pos] = src
            sign *= perm_sign(perm)
        w = elems[pi[1] - 1]
        for pos in range(2, spec.k + 1):
            w = w * elems[pi[pos] - 1]
        total = total + w if sign > 0 else total - w
    return total
