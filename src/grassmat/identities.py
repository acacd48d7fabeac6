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
previous layer as it goes, through only the x_i some column of which
meets a row of the state (one list of them per rows bitmask, built on
first need within the layer); it is cleaned once at its end.  So the
work scales with the live states, few on sparse inputs such as atom
tuples.

h(S) is s_|S| on the x's of S in increasing order, so prefixes and
suffixes are the same family and s_k meets in the middle: the standard
DP builds layers only up to size ceil(k/2) and joins
s_k = sum over |S| = floor(k/2) of (-1)^shuffle(S) h(S) h(S^c), over
the live pairs.  Memory peaks at one layer of at most C(k, k//2) live
states, or for odd k at layers floor(k/2) and ceil(k/2) held together.
For the Capelli form, whose prefixes and suffixes carry different y's,
every layer is built, and the layer at size s premultiplies the fixed
y_{k-s+1} into each live state before the transition.

Three kernels run the DP, picked per call by _kernel, under one driver
that owns every loop, sign and settle.  standard_dp and capelli_dp hold
the meet in the middle, the Capelli premultiply order and the refusals,
and both stop at the first empty layer, since every later one is empty
too; _dp_transition is the one layer loop, _premultiply the one
premultiply and _join the one join, with its shuffle sign and its
settles.  A kernel is only a state format, seen through its methods:
identity() and empty() are the states of the unit and of zero, and
the walks start from identity() cleaned, so a kernel whose identity()
is zero stops them before their first layer; rows(state) is the
bitmask of its nonzero rows t, so a push that no column of x_i can
reach is skipped; source(state) is what a push reads,
built once per popped state however many x_i it is pushed by;
push(acc, x, source, neg) adds (-1)^neg x h into acc; clean(layer)
settles a layer, or the join's sum, and drops its dead states;
pair(acc, h, h_comp, neg) adds (-1)^neg h h_comp into acc, the product
of one live pair of the join; settles says whether the join must
settle its sum every k pairs (only the residue width needs it; the
others settle once, at the end); and value(state) is the GrMatrix of
a settled state, zero for None.

Packed states (_Packed, the signed kernel).  Over every ring, unless
the unit or the residue kernel is picked, the DP runs on the packed
format of `gmatrix`: a state is one packed matrix, and an entry whose
int is 0 is dropped by clean, so a state with no entries is dead.  The source of a state is the state itself, and push
(_mul_state_into) does one multiply-add per term pair.  The factors
come as their gmatrix._Operand, each lifted on first use and then kept
on its matrix (gmatrix._lift), with the digit width W of the `gmatrix`
width lemma for k alternating factors: N = k for s_k and N = 2k + 1 for
d_k, so a settle only drops the entries that cancel to 0.  An operand
is a table, filled lazily, from a state key (t << m) | sb to the signed
terms its column t sends into each row r, [((r << m) | u, +-ca)], built
with grassmann.signed_products, so the DP shares one sign rule with the
products.  The rows an x_i or a y fills serve every later call on the
same matrix, so the calls of a campaign on one atom pool tabulate each
atom once; only the join's left-state tables are built per call: a pair
decodes its left state into an operand and pushes the right state
through it.  Only the final state, and in the join each left state, is
decoded; gmatrix._wrap_state keeps the final one as the lifted operand
of the value it returns, lowered over the product of the factors'
denominators only when the value's rows are first read, so a judge that
only asks whether the value is zero lowers nothing.

The residue kernel over Z/p (_Residues).  A state h(S) is n ints, one
per row t; the residue of entry (t, j) at the monomial v_u is the digit
at bit W*(u*n + j), and after each layer every digit lies in [0, p).
The mask/shift lemma: for disjoint u and v, v_u v_v = (-1)^popcount(v &
G(u)) v_(u+v), since u | v = u + v, so row t times v_u is the row's
digits at the masks v disjoint from u, negated where that sign is odd,
shifted up by W*n*u.  The source of a state is E, which holds it for
every row t and mask u at once: E[u*n + t] = ((H_t & pos_u) - (H_t &
neg_u) + pad_u) << (W*n*u), where pos_u and neg_u select the digits of
those masks by sign and pad_u puts p on each digit of neg_u, so a
negated digit d becomes p - d: every digit of E lies in [0, p] and is
congruent to the signed product.  Every push is one dot product, acc[r]
+= sum(map(mul, cs, get(E))), over each nonzero row r of x_i: cs lists
its nonzero residues c at (t, u) and get picks the E[u*n + t] they
multiply.  That is one small-int multiply-add per term of x_i for all n
columns at once, where the signed kernel does one per term pair.  clean
reduces each new state digit by digit (reduce: Barrett reduction on
every other digit at once, then one conditional subtract).  A pair
dots each row of its left state, as its full vector of n * 2^m digits,
with the full E of its right state.
The width: W = bits(max(k, 1) * n * p^2) + m.  Before a reduction, a
digit of a pushed state is a sum over at most k pushes (one per i in
S), n rows t and at most 2^m splits u of its mask, of c * e with
c <= p - 1 and e <= p, so it is at most k * n * 2^m * (p - 1) * p; a
premultiplied state takes one push, which is why k counts as at least
1 (capelli_dp at k = 0 premultiplies y_0 and nothing else).  The join
adds up to C(k, floor(k/2)) pair products, each of the same form with
n * 2^m terms, so the driver's _join settles its sum through clean
after every k pairs: a digit there is at most (p - 1) + k * n * 2^m *
(p - 1) * p.  Both are below max(k, 1) * n * 2^m * p^2 < 2^W, so
no digit carries into the next before it is reduced.

The unit kernel (_Units), when every factor is one term c e_rs v_u:
the x's of standard_dp, the x's and y's of capelli_dp.  A product of
such factors is (prod c) (the product of their units) (the product of
their monomials in the same order), so h(S) = M(S) v_U with M(S) an
integer n x n matrix and U the union of the masks of S, one mask for
all the words of h(S).  A state is n + 1 ints: the rows of M(S) as the
signed digits of `gmatrix`, row t's column j at bit W*j, then U.  The
width is the one _lift gives for the signed kernel: a unit tuple is a
case of the `gmatrix` width lemma, and M(S) holds exactly the digits
of h(S) at v_U.  The source of a state is the state itself.  A push is
one multiply-add, acc[r] +-= c H_s: x h = c e_rs v_u M v_U has row r
equal to c times row s of M, at v_u v_U = (-1)^popcount(U & G(u))
v_(u+U) by the mask/shift lemma above, so the sign is neg ^
popcount(U & G(u)).  A pair is an n x n integer product, row r of M
decoded into its digits d_t and acc[r] += sum of d_t H'_t, signed by
v_U v_U' = (-1)^popcount(U' & G(U)).  clean drops the states whose rows
are all 0, and value hands {(t << m) | U: H_t} to gmatrix._wrap_state,
so over the rationals and Z/p the value comes out as on the signed
kernel.  Each factor's record (r, s, u, c, G(u)) is built once, by
_unit, and kept on its operand, so a pool atom pays for it once.
The zero test: the unit kernel's identity() is zero, and both walks
stop before their first layer, when two factors' masks meet or when
the edges r -> s of all the factors (the 2k + 1 x's and y's of d_k)
admit no trail that uses each edge once.  Proof: every word of s_k and
of d_k is a product of all the factors, in some order.  Its monomial
part is a product of all their masks, zero when two masks share a
generator (v_g v_g = 0).  Its unit part e_r1s1 ... e_rNsN is nonzero
only when s_j = r_(j+1) for every j, that is when the word lists the
edges along a trail that uses each once; so with no such trail every
word is zero.  Such a trail exists exactly when the edges are weakly
connected and out-degree minus in-degree is +-1 at two vertices or at
none and 0 everywhere else (Euler), which _has_trail checks.

The kernel is picked by the operands: _Units when every factor has one
term, else _Residues over Z/p when every factor has more than
(n + 1) * 2^(m-1) terms, else _Packed.  A one-term factor never passes
the residue threshold, so the unit kernel takes no call from the
residue kernel.  The
residue kernel's cost does not shrink with the states' terms: each
popped state builds n * 2^m products and each push spends a
multiply-add per term of x_i, while the signed kernel's cost follows
the term pairs.  On random tuples over Z/7 (2-vCPU VM, Python 3.11.7)
the residue kernel is 2-6x faster on dense factors (about even at
n = 2, m = 2 once s_k vanishes); it is up to 10x slower on atoms and on
factors with one term per entry at m >= 3, up to 1.5x slower at n = 1,
and 0.8-1.5x, depending on the draw, on one term per entry at n = 3,
m = 2.  The threshold keeps the first three on the signed kernel and
lets the campaigns' default draws (two monomials per entry) at n = 3,
m = 2 through; one term per entry passes it at m = 2 from n = 3 on
(2.2x faster at n = 6).  Its states stay residues, so a state that is
nonzero over the integers but 0 mod p is dropped where the signed
kernel keeps it, and the value is the same.

young_alternating_sum restricts the alternating sum to a Young subgroup
(a product of symmetric groups on the classes of a set partition).  It
does not verify any commutation hypotheses on its inputs; callers that
rely on the vanishing or factorial lemmas must check those separately.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import factorial
from operator import itemgetter, mul
from typing import Optional, Sequence, Tuple, Union

from .errors import (
    DegreeTooLargeError,
    GroupTooLargeError,
    LengthMismatchError,
)
from .gmatrix import GrMatrix, _bits, _digits, _lift, _Operand, _unpack, _wrap_state
from .grassmann import GrassmannElem, _sign_mask
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


# ----- the driver: one layer loop and one premultiply for both kernels -----
# A layer maps subset masks to its live states only.


def _dp_transition(kernel, xs: list, layer: dict, k: int) -> dict:
    """One cardinality layer of the suffix DP, pushed from live states.

    Consumes layer: each live h(T) is popped and pushed into every
    superset S = T + {i}, adding (-1)^|{j in T : j < i}| x_i h(T) to
    h(S) from the kernel's source of h(T), built once per popped state.
    A state is pushed only through the x_i some column of which meets a
    row of h(T): one list of them per rows bitmask, built on first need.
    """
    n = kernel.n
    spread = ((1 << (n * n)) - 1) // ((1 << n) - 1)  # bit t -> bits r*n + t
    empty, rows_of, source, push = kernel.empty, kernel.rows, kernel.source, kernel.push
    factors = [(1 << i, xs[i].live, xs[i]) for i in range(k)]
    reach: dict = {}  # rows bitmask -> the (bit, x_i) that meet those rows
    nxt: dict = {}
    while layer:
        mask, prev = layer.popitem()
        rows = rows_of(prev)
        meet = reach.get(rows)
        if meet is None:
            spread_rows = rows * spread  # the entries (r, t) that meet a row t of prev
            meet = reach[rows] = [(bit, x) for bit, live, x in factors if live & spread_rows]
        src = None
        for bit, x in meet:
            if mask & bit:
                continue
            if src is None:
                src = source(prev)
            acc = nxt.get(mask | bit)
            if acc is None:
                acc = nxt[mask | bit] = empty()
            push(acc, x, src, (mask & (bit - 1)).bit_count() & 1)
    return kernel.clean(nxt)


def _premultiply(kernel, y, layer: dict) -> dict:
    """Replace every state h of layer by y * h."""
    for mask, state in layer.items():
        acc = layer[mask] = kernel.empty()
        kernel.push(acc, y, kernel.source(state), 0)
    return kernel.clean(layer)


def _join(kernel, left: dict, right: dict, k: int):
    """s_k = sum over S in left of (-1)^shuffle(S) h(S) h(S^c), S^c in
    right, as a settled state, or None when it is zero.

    shuffle(S) counts the pairs a in S, b outside S with a > b: the
    inversions of the word that lists S, then S^c, each increasing.
    That is the sign of v_S v_{S^c}, (-1)^popcount(S^c & G(S)) with G
    the sign mask of the grassmann docstring.  The sum is settled by
    kernel.clean once at the end and, on a kernel whose width only
    allows for k pair products (kernel.settles, the residue kernel),
    after every k live pairs as well.
    """
    full, pair, clean = (1 << k) - 1, kernel.pair, kernel.clean
    every = k if kernel.settles else 0
    acc, pairs = kernel.empty(), 0
    for mask, state in left.items():
        comp = right.get(full ^ mask)
        if comp is None:
            continue
        pair(acc, state, comp, ((full ^ mask) & _sign_mask(mask)).bit_count() & 1)
        pairs += 1
        if pairs == every:
            acc, pairs = clean({0: acc}).get(0) or kernel.empty(), 0
    return clean({0: acc}).get(0)


# ----- the signed kernel, on the packed format of gmatrix -----
# A state is one dict over the nonzero rows of h(S): key (t << m) | mask,
# value P = sum_c d_c << (W*c), row t's n column digits at that mask.


def _mul_state_into(acc: dict, x: _Operand, state: dict, neg: int) -> None:
    """acc += (-1)^neg * x * state: one multiply-add per term pair, for
    all n columns at once."""
    get = acc.get
    for key, P in state.items():
        if neg:
            P = -P
        for u, ca in x[key]:
            acc[u] = get(u, 0) + ca * P


class _Packed:
    """The signed kernel of one DP call: the factors' operands (xs), the
    width W of the gmatrix width lemma and the product of the factors'
    denominators.  A push reads the popped state itself."""

    empty, push, settles = dict, staticmethod(_mul_state_into), False

    def __init__(self, mats: Sequence[GrMatrix], k: int):
        first = mats[0]
        self.n, self.m, self.ring = first.n, first.m, first.ring
        self.xs, self.width, self.den = _lift(mats, k)

    def identity(self) -> dict:
        return {t << self.m: 1 << (self.width * t) for t in range(self.n)}

    def rows(self, state: dict) -> int:
        m, rows = self.m, 0
        for key in state:
            rows |= 1 << (key >> m)
        return rows

    def source(self, state: dict) -> dict:
        return state

    def clean(self, layer: dict) -> dict:
        """Drop the entries that cancel to 0, then the states left empty."""
        out = {}
        for mask, state in layer.items():
            state = {key: P for key, P in state.items() if P}
            if state:
                out[mask] = state
        return out

    def pair(self, acc: dict, h: dict, h_comp: dict, neg: int) -> None:
        """acc += (-1)^neg * h * h_comp, through h decoded into an operand."""
        n, m = self.n, self.m
        _mul_state_into(acc, _Operand(_unpack(h, n, m, self.width), n, m), h_comp, neg)

    def value(self, state: Optional[dict]) -> GrMatrix:
        return _wrap_state(state, self.n, self.m, self.ring, self.width, self.den)


# ----- the residue kernel over Z/p (see the module docstring) -----
# A state is a list of n ints, row t of h(S): digit sa*n + j, at bit
# W*(sa*n + j), is the residue of entry (t, j) at the monomial v_sa.


class _Residues:
    """The residue kernel of one DP call over Z/p: the factors as _Residue
    (xs), the width W, and per mask sa the (pos, neg, pad, shift, both)
    that turn a row of a state into its product by v_sa (source): pos and
    neg select the digits it keeps and negates, pad puts p on each digit
    of neg, shift moves the row up to its masks and both is pos | neg."""

    settles = True  # the join's sum must be reduced every k pairs

    def __init__(self, packed: _Packed, k: int):
        n, m, ring = self.n, self.m, self.ring = packed.n, packed.m, packed.ring
        p = self.p = ring.characteristic
        self.size = n << m  # digits in a row
        # a premultiplied state takes one push, even at k = 0
        w = self.width = (max(k, 1) * n * p * p).bit_length() + m
        digit = (1 << w) - 1
        block = (1 << (w * n)) - 1  # the n digits of one mask
        self.sides = []
        for sa in range(1 << m):
            g, pos, neg = _sign_mask(sa), 0, 0
            for sb in range(1 << m):
                if not sa & sb:
                    if (sb & g).bit_count() & 1:
                        neg |= block << (w * n * sb)
                    else:
                        pos |= block << (w * n * sb)
            self.sides.append((pos, neg, neg // digit * p, w * n * sa, pos | neg))
        # every other digit, for reduce
        self.ones = ones = sum(1 << (2 * w * j) for j in range(((n << m) + 1) // 2))
        self.even, self.fence, self.magic = ones * digit, ones * (digit + 1 - p), (digit + 1) // p
        self.xs = [_Residue(self, op) for op in packed.xs]

    def identity(self) -> list:
        return [1 << (self.width * t) for t in range(self.n)]

    def empty(self) -> list:
        return [0] * self.n

    def rows(self, state: list) -> int:
        rows = 0
        for t, H in enumerate(state):
            if H:
                rows |= 1 << t
        return rows

    def source(self, state: list) -> list:
        """E: E[sa*n + t] is row t of state times v_sa, every digit in [0, p]."""
        n = self.n
        E = [0] * self.size
        for t, H in enumerate(state):
            if H:
                E[t::n] = [
                    ((H & pos) - (H & neg) + pad) << s if H & both else 0
                    for pos, neg, pad, s, both in self.sides
                ]
        return E

    @staticmethod
    def push(acc: list, x: "_Residue", E: list, neg: int) -> None:
        """acc += (-1)^neg * x * h, E the source of h: one multiply-add per
        term of x, for all n columns at once."""
        for r, cs, get in x.signed[neg]:
            acc[r] += sum(map(mul, cs, get(E)))

    def reduce(self, H: int) -> int:
        """H with every digit (each below 2^W) taken mod p, by Barrett
        reduction on every other digit at once."""
        w, p, even, ones = self.width, self.p, self.even, self.ones
        magic, fence = self.magic, self.fence
        d = H & even
        d -= (d * magic >> w & even) * p  # now every digit lies in [0, 2p)
        d -= ((d + fence) >> w & ones) * p
        e = H >> w & even
        e -= (e * magic >> w & even) * p
        e -= ((e + fence) >> w & ones) * p
        return d | e << w

    def clean(self, layer: dict) -> dict:
        """Every state reduced; the states that reduce to 0 dropped."""
        out = {}
        reduce = self.reduce
        for mask, state in layer.items():
            state = [reduce(H) if H else 0 for H in state]
            if any(state):
                out[mask] = state
        return out

    def digits(self, H: int) -> list:
        w = self.width
        low = (1 << w) - 1
        return [H >> (w * j) & low for j in range(self.size)]

    def pair(self, acc: list, h: list, h_comp: list, neg: int) -> None:
        """acc += (-1)^neg * h * h_comp: each row of h, as its full digit
        vector, dotted with the source of h_comp."""
        p, E = self.p, self.source(h_comp)
        for r, H in enumerate(h):
            if H:
                vec = self.digits(H)
                if neg:
                    vec = [-c % p for c in vec]
                acc[r] += sum(map(mul, vec, E))

    def value(self, state: Optional[list]) -> GrMatrix:
        n, m, ring = self.n, self.m, self.ring
        flat: list = [{} for _ in range(n * n)]
        for r, H in enumerate(state or ()):
            for j, d in enumerate(self.digits(H)):
                if d:
                    flat[r * n + j % n][j // n] = d
        return GrMatrix._make(n, m, ring, None, _Operand(flat, n, m, 1, _bits(flat, ring)))


class _Residue:
    """A factor x of the residue kernel, with live as on its operand.

    signed[0] holds (r, cs, get) for each nonzero row r of x: cs lists
    its nonzero residues c at (t, sa) by index sa*n + t, and get(E)
    gives the entries E[sa*n + t] they multiply, in the same order;
    signed[1] holds the same with -c mod p."""

    __slots__ = ("signed", "live")

    def __init__(self, kernel: _Residues, op: _Operand):
        n, p = kernel.n, kernel.p
        self.live, self.signed = op.live, ([], [])
        for r in range(n):
            row = sorted((sa * n + t, c % p) for t, terms in enumerate(op.flat[r * n : r * n + n])
                         for sa, c in terms.items() if c % p)
            if row:
                js, cs = zip(*row)
                # a slice keeps one index from giving a scalar
                get = itemgetter(*js) if len(js) > 1 else itemgetter(slice(js[0], js[0] + 1))
                self.signed[0].append((r, cs, get))
                self.signed[1].append((r, [-c % p for c in cs], get))


# ----- the unit kernel, for factors of one term each (see the module docstring) -----
# A state is a list of n + 1 ints: row t of the integer matrix M(S) with
# h(S) = M(S) v_U, as the signed digits of gmatrix at width W, then U.


def _unit(op: _Operand) -> tuple:
    """op's unit record (r, s, u, c, G(u)) when its one term is c e_rs v_u
    (c an integer numerator), else (); built once and kept on op."""
    record = op.unit
    if record is None:
        record, live = (), op.live
        if live and not live & (live - 1):
            j = live.bit_length() - 1
            terms = op.flat[j]
            if len(terms) == 1:
                ((u, c),) = terms.items()
                record = (*divmod(j, op.n), u, c, _sign_mask(u))
        op.unit = record
    return record


def _has_trail(edges: Sequence[Tuple[int, int]], n: int) -> bool:
    """Whether the directed edges r -> s admit a trail that uses each of
    them once: they are weakly connected, and out-degree minus in-degree
    is +-1 at exactly two vertices or at none, and 0 elsewhere."""
    balance, adjacent, touched = [0] * n, [0] * n, 0
    for r, s in edges:
        balance[r] += 1
        balance[s] -= 1
        adjacent[r] |= 1 << s
        adjacent[s] |= 1 << r
        touched |= 1 << r | 1 << s
    odd = [b for b in balance if b]
    if len(odd) not in (0, 2) or any(b * b != 1 for b in odd):
        return False
    reached, frontier = 0, touched & -touched
    while frontier:
        reached |= frontier
        step = 0
        for v in range(n):
            if frontier >> v & 1:
                step |= adjacent[v]
        frontier = step & ~reached
    return reached == touched


class _Units:
    """The unit kernel of one DP call: every factor is one term c e_rs v_u
    (its _unit record on xs, the factors' operands), with the signed
    kernel's width W and denominator.  zero is set when the zero test
    finds every word of the polynomial zero; identity() is then zero."""

    settles = False

    def __init__(self, packed: _Packed):
        self.n, self.m, self.ring = packed.n, packed.m, packed.ring
        self.xs, self.width, self.den = packed.xs, packed.width, packed.den
        union = meet = 0
        for op in self.xs:
            u = op.unit[2]
            meet |= union & u
            union |= u
        self.zero = bool(meet) or not _has_trail([op.unit[:2] for op in self.xs], self.n)

    def identity(self) -> list:
        if self.zero:
            return self.empty()
        return [1 << (self.width * t) for t in range(self.n)] + [0]

    def empty(self) -> list:
        return [0] * (self.n + 1)

    def rows(self, state: list) -> int:
        rows = 0
        for t in range(self.n):
            if state[t]:
                rows |= 1 << t
        return rows

    def source(self, state: list) -> list:
        return state

    @staticmethod
    def push(acc: list, x: _Operand, h: list, neg: int) -> None:
        """acc += (-1)^neg * x * h: row r gains +-c times row s of h, and
        v_u v_U = (-1)^popcount(U & G(u)) v_(u+U) signs it."""
        r, s, u, c, g = x.unit
        U = h[-1]
        if neg ^ (U & g).bit_count() & 1:
            c = -c
        acc[r] += c * h[s]
        acc[-1] = U | u

    def clean(self, layer: dict) -> dict:
        """The states with a nonzero row."""
        return {mask: state for mask, state in layer.items() if any(state[:-1])}

    def pair(self, acc: list, h: list, h_comp: list, neg: int) -> None:
        """acc += (-1)^neg * h * h_comp: M M' at v_U v_U', each row of M
        decoded into its digits and dotted with the rows of M'."""
        U, V, width = h[-1], h_comp[-1], self.width
        neg ^= (V & _sign_mask(U)).bit_count() & 1
        for r in range(self.n):
            if h[r]:
                P = sum(d * H for d, H in zip(_digits(h[r], width), h_comp) if d)
                acc[r] += -P if neg else P
        acc[-1] = U | V

    def value(self, state: Optional[list]) -> GrMatrix:
        n, m = self.n, self.m
        packed = state and {(t << m) | state[-1]: H for t, H in enumerate(state[:-1]) if H}
        return _wrap_state(packed, n, m, self.ring, self.width, self.den)


def _kernel(mats: Sequence[GrMatrix], k: int):
    """The kernel for a DP on mats with k alternating factors: _Units when
    every factor has one term, _Residues over Z/p when every factor has
    more than (n + 1) * 2^(m-1) terms, else _Packed (see the module
    docstring)."""
    packed = _Packed(mats, k)
    if all(map(_unit, packed.xs)):
        return _Units(packed)
    least = (packed.n + 1) << packed.m  # twice (n + 1) * 2^(m-1)
    if packed.ring.kind == ZMOD and all(2 * sum(map(len, op.flat)) > least for op in packed.xs):
        return _Residues(packed, k)
    return packed


def standard_dp(
    mats: Sequence[GrMatrix], max_k: int = DEFAULT_STANDARD_DP_K
) -> GrMatrix:
    """s_k via the subset DP, met in the middle; agrees with standard_naive.

    The suffix layers h(T) = s_|T|(x_T) are built only up to size
    ceil(k/2); when k is odd a copy of layer floor(k/2) is kept beside
    it, so the two are live together at the peak.  _join then sums
    h(S) h(S^c) over the live pairs with |S| = floor(k/2).  The walk
    stops at the first empty layer, whose join is zero.
    """
    k = len(mats)
    if k > max_k:
        raise DegreeTooLargeError(f"DP evaluation capped at k <= {max_k}, got {k}")
    _check_matrix_family(mats, "standard_dp")
    kernel = _kernel(mats, k)
    xs = kernel.xs
    left = kernel.clean({0: kernel.identity()})
    for _ in range(k // 2):
        if not left:
            break  # every later layer is empty too
        left = _dp_transition(kernel, xs, left, k)
    right = _dp_transition(kernel, xs, dict(left), k) if k & 1 and left else left
    return kernel.value(_join(kernel, left, right, k))


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
    out empty.  Only the full-mask state is decoded into a GrMatrix.
    """
    k = len(xs)
    if len(ys) != k + 1:
        raise LengthMismatchError(f"need {k + 1} y's for x-degree {k}, got {len(ys)}")
    if k > max_k:
        raise DegreeTooLargeError(f"DP evaluation capped at k <= {max_k}, got {k}")
    mats = list(xs) + list(ys)
    _check_matrix_family(mats, "capelli_dp")
    kernel = _kernel(mats, k)
    xops, yops = kernel.xs[:k], kernel.xs[k:]
    layer = kernel.clean({0: kernel.identity()})
    for s in range(1, k + 1):
        if not layer:
            break  # every later layer is empty too
        layer = _premultiply(kernel, yops[k - s + 1], layer)
        layer = _dp_transition(kernel, xops, layer, k)
    layer = _premultiply(kernel, yops[0], layer)
    return kernel.value(layer.get((1 << k) - 1))


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
