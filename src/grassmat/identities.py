"""Multilinear identity evaluators: standard and Capelli polynomials,
and alternating sums over Young subgroups.

The standard polynomial is s_k(x_1..x_k) = sum over permutations pi of
sign(pi) x_{pi(1)} ... x_{pi(k)}.  The Capelli polynomial interleaves
fixed y's between the alternating x's:

    d_k(x; y) = sum over pi of sign(pi) y_0 x_{pi(1)} y_1 ... x_{pi(k)} y_k.

Substituting every y_i = I recovers s_k.

Both have a subset dynamic program and a naive oracle, capped at
k <= DEFAULT_NAIVE_K.  The naive evaluators and young_alternating_sum
share one depth-first word enumerator: words with a common prefix share
its products, a zero prefix ends its whole subtree, and each word is
added to the total on its lifted operand (gmatrix._sum), so the total
is lowered once, when its rows are read.

The DP runs over suffixes: h(S) is the signed sum over arrangements of S
in the last |S| slots, built from h(S minus {i}) by placing x_i first
among them, which costs sign (-1)^|{j in S : j < i}|.  A layer keeps
only its live (nonzero) states.  Each layer is built by pushing every
live state of the previous one into its supersets, consuming the
previous layer as it goes, and skipping a push when no column of x_i
meets a row of the state; it is cleaned once at its end.  So the work
scales with the live states, few on sparse inputs such as atom tuples.

h(S) is s_|S| on the x's of S in increasing order, so prefixes and
suffixes are the same family and s_k meets in the middle: the standard
DP builds layers only up to size ceil(k/2) and joins
s_k = sum over |S| = floor(k/2) of (-1)^shuffle(S) h(S) h(S^c), over
the live pairs.  Memory peaks at one layer of at most C(k, k//2) live
states, or for odd k at layers floor(k/2) and ceil(k/2) held together.
For the Capelli form, whose prefixes and suffixes carry different y's,
every layer is built, and the layer at size s premultiplies the fixed
y_{k-s+1} into each live state before the transition.

Packed states.  The DP runs on the packed format of `gmatrix`: a state
is one packed matrix, and an entry whose int is 0 is dropped, so a state
with no entries is dead.  The factors come as their gmatrix._Operand,
each lifted on first use and then kept on its matrix (gmatrix._lift),
with the digit width W of the `gmatrix` width lemma for k alternating
factors: N = k for s_k and N = 2k + 1 for d_k.  An operand is a table,
filled lazily, from a state key (t << m) | sb to the signed terms its
column t sends into each row r, [((r << m) | u, +-ca)], built with
grassmann.signed_products, so the DP shares one sign rule with the
products.  The rows an x_i or a y fills serve every later call on the
same matrix, so the calls of a campaign on one atom pool tabulate each
atom once; only the join's left-state tables are built per call.  Only
the final state, and in the join each left state, is decoded;
gmatrix._wrap_state keeps the final one as the lifted operand of the
value it returns, lowered over the product of the factors'
denominators only when the value's rows are first read, so a judge
that only asks whether the value is zero lowers nothing.

young_alternating_sum restricts the alternating sum to a Young subgroup
(a product of symmetric groups on the classes of a set partition).  It
does not verify any commutation hypotheses on its inputs; callers that
rely on the vanishing or factorial lemmas must check those separately.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import factorial
from typing import List, Optional, Sequence, Tuple, Union

from .errors import (
    DegreeTooLargeError,
    GroupTooLargeError,
    LengthMismatchError,
)
from .gmatrix import GrMatrix, _lift, _Operand, _unpack, _wrap_state
from .grassmann import GrassmannElem, _sign_mask

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
    n, m, ring = first.n, first.m, first.ring
    for A in mats[1:]:
        # a factor on the very same ring object passes at once; any other
        # goes through _check_other, which raises the precise error
        if not (isinstance(A, GrMatrix) and A.ring is ring and A.n == n and A.m == m):
            first._check_other(A)


def _alternating_sum(factors: Sequence, allowed: Sequence, zero, ys: Optional[Sequence] = None):
    """Sum of perm_sign(w) f_w[0] ... f_w[k-1] over the words w of distinct
    sources with w[p] in allowed[p], read y_0 f_w[0] y_1 ... f_w[k-1] y_k
    with ys, built depth first from a stack of (word, product) pairs.

    One perm_sign of the whole word suffices for a Young subgroup: each
    element is a product of permutations of the disjoint classes, so its
    sign is the product of the signs of its restrictions to the classes.
    """
    k = len(allowed)
    total = zero
    stack = [((), ys[0] if ys else None)]
    while stack:
        word, w = stack.pop()
        d = len(word)
        if d == k:
            total = total + w if perm_sign(word) > 0 else total - w
            continue
        for src in allowed[d]:
            if src in word:
                continue
            v = factors[src] if w is None else w * factors[src]
            if ys:
                v = v * ys[d + 1]
            if not v.is_zero():
                stack.append((word + (src,), v))
    return total


def standard_naive(mats: Sequence[GrMatrix], max_k: int = DEFAULT_NAIVE_K) -> GrMatrix:
    """s_k by direct enumeration of all k! words."""
    k = len(mats)
    if k > max_k:
        raise DegreeTooLargeError(f"naive evaluation capped at k <= {max_k}, got {k}")
    _check_matrix_family(mats, "standard_naive")
    first = mats[0]
    return _alternating_sum(mats, [range(k)] * k, GrMatrix.zero(first.n, first.m, first.ring))


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
    return _alternating_sum(xs, [range(k)] * k, GrMatrix.zero(first.n, first.m, first.ring), ys)


# A state is one dict over the nonzero rows of h(S): key (t << m) | mask,
# value P = sum_c d_c << (W*c), row t's n column digits at that mask.
# A layer maps subset masks to its live states only.


def _identity_state(n: int, m: int, width: int) -> dict:
    return {t << m: 1 << (width * t) for t in range(n)}


def _mul_state_into(acc: dict, x: _Operand, state: dict, neg: bool = False) -> None:
    """acc += (-1)^neg * x * state: one multiply-add per term pair, for
    all n columns at once."""
    get = acc.get
    for key, P in state.items():
        if neg:
            P = -P
        for u, ca in x[key]:
            acc[u] = get(u, 0) + ca * P


def _clean_layer(layer: dict) -> dict:
    """Drop the entries that cancel to 0, then the states left empty."""
    out = {}
    for mask, state in layer.items():
        state = {key: P for key, P in state.items() if P}
        if state:
            out[mask] = state
    return out


def _dp_transition(xs: List[_Operand], layer: dict, k: int) -> dict:
    """One cardinality layer of the suffix DP, pushed from live states.

    Consumes layer: each live h(T) is popped and pushed into every
    superset S = T + {i}, adding (-1)^|{j in T : j < i}| x_i h(T) to
    h(S).  A push is skipped when no column of x_i meets a row of h(T).
    """
    n, m = xs[0].n, xs[0].m
    spread = ((1 << (n * n)) - 1) // ((1 << n) - 1)  # bit t -> bits r*n + t
    nxt: dict = {}
    while layer:
        mask, prev = layer.popitem()
        rows = 0
        for key in prev:
            rows |= 1 << (key >> m)
        rows *= spread  # the entries (r, t) that meet a row t of prev
        for i in range(k):
            bit = 1 << i
            if mask & bit or not xs[i].live & rows:
                continue
            acc = nxt.get(mask | bit)
            if acc is None:
                acc = nxt[mask | bit] = {}
            _mul_state_into(acc, xs[i], prev, (mask & (bit - 1)).bit_count() & 1 == 1)
    return _clean_layer(nxt)


def _premultiply(y: _Operand, layer: dict) -> dict:
    """Replace every state h of layer by y * h."""
    for mask, state in layer.items():
        out: dict = {}
        _mul_state_into(out, y, state)
        layer[mask] = out
    return _clean_layer(layer)


def _join(left: dict, right: dict, k: int, n: int, m: int, width: int) -> dict:
    """s_k = sum over S in left of (-1)^shuffle(S) h(S) h(S^c), S^c in right.

    shuffle(S) counts the pairs a in S, b outside S with a > b: the
    inversions of the word that lists S, then S^c, each increasing.
    That is the sign of v_S v_{S^c}, (-1)^popcount(S^c & G(S)) with G
    the sign mask of the grassmann docstring.
    """
    full = (1 << k) - 1
    acc: dict = {}
    for mask, state in left.items():
        comp = right.get(full ^ mask)
        if comp is not None:
            odd = ((full ^ mask) & _sign_mask(mask)).bit_count() & 1
            _mul_state_into(acc, _Operand(_unpack(state, n, m, width), n, m), comp, odd == 1)
    return acc


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
    xs, width, den = _lift(mats, k)
    layer = {0: _identity_state(n, m, width)}
    for _ in range(k // 2):
        layer = _dp_transition(xs, layer, k)
    left = layer
    if k & 1:
        layer = _dp_transition(xs, dict(left), k)
    return _wrap_state(_join(left, layer, k, n, m, width), n, m, ring, width, den)


def capelli_dp(
    xs: Sequence[GrMatrix],
    ys: Sequence[GrMatrix],
    max_k: int = DEFAULT_CAPELLI_DP_K,
) -> GrMatrix:
    """d_k via the subset DP; agrees with capelli_naive.

    The suffix owning the x-slots k-s+1..k starts with y_{k-s+1} already
    attached to the previous layer, so each layer premultiplies its
    fixed y once per live state instead of once per transition term;
    y_0 is premultiplied last.  There is no join, since a prefix and a
    suffix carry different y's: all k layers are built, unless one comes
    out empty.  Only the full-mask state is unpacked into a GrMatrix.
    """
    k = len(xs)
    if len(ys) != k + 1:
        raise LengthMismatchError(f"need {k + 1} y's for x-degree {k}, got {len(ys)}")
    if k > max_k:
        raise DegreeTooLargeError(f"DP evaluation capped at k <= {max_k}, got {k}")
    mats = list(xs) + list(ys)
    _check_matrix_family(mats, "capelli_dp")
    first = ys[0]
    n, m, ring = first.n, first.m, first.ring
    ops, width, den = _lift(mats, k)
    xops, yops = ops[:k], ops[k:]
    layer = {0: _identity_state(n, m, width)}
    for s in range(1, k + 1):
        if not layer:
            break  # every later layer is empty too
        layer = _premultiply(yops[k - s + 1], layer)
        layer = _dp_transition(xops, layer, k)
    layer = _premultiply(yops[0], layer)
    return _wrap_state(layer.get((1 << k) - 1), n, m, ring, width, den)


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
    result = standard_dp(mats[:block], max_k=max_k)
    for b in range(1, blocks):
        result = result * standard_dp(mats[b * block : (b + 1) * block], max_k=max_k)
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
    if not elems:
        raise LengthMismatchError("young_alternating_sum needs at least one operand")
    order = spec.group_order()
    if order > max_order:
        raise GroupTooLargeError(f"subgroup order {order} exceeds cap {max_order}")
    first = elems[0]
    if isinstance(first, GrMatrix):
        _check_matrix_family(elems, "young_alternating_sum")
        zero = GrMatrix.zero(first.n, first.m, first.ring)
    elif isinstance(first, GrassmannElem):
        for e in elems[1:]:
            first._check_other(e)
        zero = GrassmannElem.zero(first.m, first.ring)
    else:
        raise TypeError("operands must be GrMatrix or GrassmannElem")
    allowed = [[s - 1 for s in c] for p in range(1, spec.k + 1) for c in spec.classes if p in c]
    return _alternating_sum(elems, allowed, zero)
