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
sign (-1)^|{j in S : j < i}|.  A layer keeps only its live (nonzero)
states.  Each layer is built by pushing every live state of the
previous one into its supersets, consuming the previous layer as it
goes, and skipping a push when no column of x_i meets a row of the
state; it is cleaned once at its end.  So the work scales with the live
states; sparse inputs such as atom tuples touch far fewer.

h(S) is s_|S| on the x's of S in increasing order, so prefixes and
suffixes are the same family and s_k meets in the middle: the standard
DP builds layers only up to size ceil(k/2) and joins
s_k = sum over |S| = floor(k/2) of (-1)^shuffle(S) h(S) h(S^c), over
the live pairs.  Memory peaks at one layer of at most C(k, k//2) live
states, or for odd k at layers floor(k/2) and ceil(k/2) held together.
For the Capelli form, whose prefixes and suffixes carry different y's,
every layer is built, and the layer at size s premultiplies the fixed
y_{k-s+1} into each live state before the transition.

Packed states.  The DP runs on plain ints in every ring.  A state is one
dict: its key (t << m) | mask names row t of the matrix at the Grassmann
monomial mask, and its value P = sum over c of d_c << (W*c) packs the n
column coefficients of that row as signed digits, |d_c| < 2^(W-1).  An
entry whose P is 0 is dropped, and a state with no entries is dead.
Multiplying a packed row by one coefficient of the left factor
multiplies all n digits at once, so the kernel spends one int
multiply-add per pair of terms instead of one per column.  Each operand
held fixed for a call (each x_i, each y, each left state of the join)
keeps a table, filled lazily, from a state key (t << m) | sb to the
signed terms its column t sends into each row r,
[((r << m) | u, +-ca)], built with grassmann.signed_products, so the DP
shares one sign rule with the products.  Only the final state is
unpacked into a GrMatrix.

The width lemma.  Take c = p - 1 over Z/p, and otherwise the largest
|coefficient| of the integer factors, and let N be the number of
factors (k for s_k, 2k + 1 for d_k) and F the number of products in a
word (k - 1 for s_k, 2k for d_k).  With
W = bits(k!) + F*bits(n * 2^m) + N*bits(c) + 1, no digit ever reaches
2^(W-1).  Proof: expand the polynomial into words, one choice of
permutation, of the n inner indices between neighbouring factors, and
of an ordered split of the output mask u into one mask per factor.  For
a fixed output entry and mask there are at most k! permutations, n^F
index choices and (F + 1)^|u| <= 2^(m*F) splits, since F + 1 <= 2^F;
so at most k! (n 2^m)^F words, each a product of at most N
coefficients, so of size at most 2^(N*bits(c)).  Every digit the DP
ever holds (a state of a smaller S, a partial accumulator during a
push, a premultiplied state, a product of two joined digits) is a
signed sum of a subset of the words of one such expansion with at most
as many factors, because no step reduces or cancels anything but adds
whole words.  So its size is at most
k! (n 2^m)^F 2^(N*bits(c)) < 2^(W-1), strictly because k! < 2^bits(k!),
and the decoding of each digit from its W-bit field is exact.

Rings.  Over int the DP runs on the coefficients as they are.  Over
Z/p it runs on the residues as ints, and the final state is reduced once
by Ring.lower_terms (clean_terms).  Over rat each factor is lifted once
by Ring.lift_terms to integer numerators over its denominator d_i; by
multilinearity the polynomial of the lifted factors is the polynomial
of the originals times the product D of the d_i, so the final state is
lowered once by Ring.lower_terms(terms, D), which gives the same
canonical Fractions term for term.

young_alternating_sum restricts the alternating sum to a Young subgroup
(a product of symmetric groups on the classes of a set partition).  It
does not verify any commutation hypotheses on its inputs; callers that
rely on the vanishing or factorial lemmas must check those separately.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, compress, permutations, product
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
from .ring import ZMOD

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


# A state is one dict over the nonzero rows of h(S): key (t << m) | mask,
# value P = sum_c d_c << (W*c), row t's n column digits at that mask.
# A layer maps subset masks to its live states only.


class _Operand(dict):
    """A factor held fixed for one call: an x_i, a y, or a left state.

    flat is its row-major list of n*n term dicts with integer
    coefficients (None or {} for a zero entry), and bit r*n + t of live
    is set when entry (r, t) is nonzero.  As a dict it maps a state key
    (t << m) | sb to what that state entry sends into every row r,
    [((r << m) | u, ±ca)] over the terms of column t, from
    grassmann.signed_products; each row is filled on first lookup and
    kept for the call.
    """

    __slots__ = ("flat", "n", "m", "live")

    def __init__(self, flat: list, n: int, m: int, live: int):
        self.flat, self.n, self.m, self.live = flat, n, m, live

    def __missing__(self, key: int) -> list:
        m = self.m
        sb = key & ((1 << m) - 1)
        row = []
        for r, terms in enumerate(self.flat[key >> m :: self.n]):
            if terms:
                rm = r << m
                for u, ca in signed_products(terms, sb):
                    row.append((rm | u, ca))
        self[key] = row
        return row


def _operands(mats: Sequence[GrMatrix], k: int, products: int) -> Tuple[list, int, int]:
    """(operands, W, d) for a polynomial of degree k in the x's whose
    words are `products` matrix products long: each factor lifted to
    integers by Ring.lift_terms, the digit width W of the width lemma
    above, and the product d of the factors' denominators (1 outside
    rat)."""
    first = mats[0]
    n, m, ring = first.n, first.m, first.ring
    bits = [1 << j for j in range(n * n)]
    ops, den = [], 1
    for A in mats:
        flat, d = ring.lift_terms([e.terms for row in A.rows for e in row])
        ops.append(_Operand(flat, n, m, sum(compress(bits, flat))))
        den *= d
    if ring.kind == ZMOD:
        c = ring.characteristic - 1
    else:
        values = chain.from_iterable(map(dict.values, chain.from_iterable(x.flat for x in ops)))
        c = max(map(abs, values), default=0)
    width = (
        factorial(k).bit_length()
        + products * (n << m).bit_length()
        + len(mats) * c.bit_length()
        + 1
    )
    return ops, width, den


def _identity_state(n: int, m: int, width: int) -> dict:
    return {t << m: 1 << (width * t) for t in range(n)}


def _digits(P: int, n: int, width: int) -> List[int]:
    """The n signed digits packed in P, column 0 first."""
    full = 1 << width
    half = full >> 1
    out = []
    for _ in range(n):
        d = P & (full - 1)
        if d >= half:
            d -= full
        out.append(d)
        P = (P - d) >> width
    return out


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


def _state_operand(state: dict, n: int, m: int, width: int) -> _Operand:
    """A state unpacked into the _Operand of the matrix it packs."""
    low = (1 << m) - 1
    flat: list = [None] * (n * n)
    live = 0
    for key, P in state.items():
        rn, sa = (key >> m) * n, key & low
        for t, d in enumerate(_digits(P, n, width)):
            if d:
                if flat[rn + t] is None:
                    flat[rn + t] = {sa: d}
                    live |= 1 << (rn + t)
                else:
                    flat[rn + t][sa] = d
    return _Operand(flat, n, m, live)


def _join(left: dict, right: dict, k: int, n: int, m: int, width: int) -> dict:
    """s_k = sum over S in left of (-1)^shuffle(S) h(S) h(S^c), S^c in right.

    shuffle(S) counts the pairs a in S, b outside S with a > b: the
    inversions of the word that lists S, then S^c, each increasing.
    That is the sign of v_S v_{S^c}.
    """
    full = (1 << k) - 1
    acc: dict = {}
    for mask, state in left.items():
        comp = right.get(full ^ mask)
        if comp is not None:
            ((_, sign),) = signed_products({mask: 1}, full ^ mask)
            _mul_state_into(acc, _state_operand(state, n, m, width), comp, sign < 0)
    return acc


def _wrap_state(state: Optional[dict], n: int, m: int, ring, width: int, den: int) -> GrMatrix:
    """The GrMatrix of a packed state over the integers, divided by den."""
    if not state:
        return GrMatrix.zero(n, m, ring)
    low = (1 << m) - 1
    terms = [[{} for _ in range(n)] for _ in range(n)]
    for key, P in state.items():
        row, u = terms[key >> m], key & low
        for c, d in enumerate(_digits(P, n, width)):
            if d:
                row[c][u] = d
    lower = ring.lower_terms
    make = GrassmannElem._make
    return GrMatrix._make(
        n, m, ring,
        tuple(tuple(make(m, ring, lower(d, den) if d else d) for d in row) for row in terms),
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
    xs, width, den = _operands(mats, k, k - 1)
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
    ops, width, den = _operands(mats, k, 2 * k)
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
