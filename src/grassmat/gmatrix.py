"""Square matrices over a Grassmann algebra, with grading helpers.

A GrMatrix fixes its context (n, m, ring) at construction; arithmetic
between different contexts raises.  Entries are GrassmannElem values and
all arithmetic stays exact.  The degree-d component of a matrix is the
matrix of entrywise degree-d components, and matrix multiplication
respects that grading: (A*B)_d = sum over i+j=d of A_i * B_j.  The
value of a matrix never changes after construction: every operation
builds a new matrix.  Only the time its entries are built varies: a
product, a sum, a scaled matrix or a DP value of `identities` keeps
the lifted integers it was built on and lowers them to canonical
entries when `rows` is first read.

Packed matrices.  Matrix products and the subset DPs of `identities`
run on plain ints in every ring, in one format.  The first time a
matrix is a factor, _operand lifts it, as a whole matrix, to integer
numerators over one common denominator (Ring.lift_terms; over the
integers and Z/p that changes nothing, and the operand shares the
entries' term dicts), and keeps the result, an _Operand, on the
matrix (a product or a sum is born with its operand; see below).  The operand
belongs to the matrix and lives as long as it does, so a matrix that
is a factor of many products or DP calls (an atom of a campaign's
pool, the A of a Horner chain) is lifted and scanned once, and the
product tables the DPs fill on it serve every later call.  A packed
matrix is one dict: its value P = sum over j of d_j << (W*j) under the
key (i << m) | u holds coefficients of the Grassmann monomial u as
signed digits, |d_j| < 2^(W-1), digit j for entry i*n + j in row-major
order.  So a key with row i carries the digits of entries from i*n
onward: the DP states key each row on its own, and a product keys
every entry under row 0.  Multiplying a packed value by one
coefficient multiplies all its digits at once, so a kernel spends one
int multiply-add per pair of terms instead of one per digit.
_wrap_state decodes a packed result (_unpack, _digits) into a matrix
whose operand is born lifted: integer numerators over the product of
the factors' denominators, reduced mod p over Z/p (so its c_i is
p - 1, as for any operand over Z/p), with the bit count of its largest
|numerator| as scanned.  Its rows are built only when first read, the
one place a product lowers (Ring.lower_terms over the rationals; over
the integers and Z/p the numerators already are the canonical terms),
which gives the same canonical terms as the ring's own arithmetic: by
multilinearity the polynomial of the lifted factors is the polynomial
of the originals times that product.

Sums and scalars stay lifted as well, so no operation but `rows`
lowers.  _sum gives A + sign*B, the one addition behind __add__,
__sub__ and plus_scalar (whose c*I is lifted straight from c's
numerator and denominator): both operands are brought over the lcm of
their denominators, only the entries B touches are copied, over Z/p the
numerators stay residues and zero coefficients are dropped, so live,
and with it is_zero, stays exact on a matrix whose rows were never
read.  scale_coeff multiplies the numerators by c's numerator and the
denominator by c's, and __neg__ is scale_coeff(-1); scale(g), a left
multiplication of every entry by the Grassmann element g, is the
product diag(g, ..., g) * A.  So a Horner step of Poly.at_matrix and a
squaring of __pow__ hand the next product its factor without lowering
and lifting it again, the naive word sums of `identities` add every
word on its operand and lower their total once, and a judge that only
asks whether a power is zero never lowers it.

A product A*B packs column t of the lifted A across its rows at
stride n*W, {sa: sum over i of a_it[sa] << (n*W*i)}, and row t of the
lifted B at stride W, {sb: sum over j of b_tj[sb] << (W*j)}.  A term
pair of the two multiplies every a_it by every b_tj at once, and
a_it b_tj lands on digit n*i + j, so grassmann.mul_into(acc, packed
column t, packed row t) over t = 0..n-1 leaves in acc[u] all n^2
entries of the product at u: n kernel calls instead of up to n^2, on
the same W, since each digit is still one entry.  On a 4x4 rat
product at m = 6 with dense entries this takes one product from about
6.4 ms with packed rows alone to about 3.5 ms, and a 3x3 product over
Z/7 at m = 2 from 76 us to 65 us (2-vCPU VM, Python 3.11.7); a product
of two 2x2 atom matrices stays at about 12 us, since packing costs
about what it saves on so few terms.

The width lemma.  It sizes every signed packed value: the products,
and the subset DPs of `identities` over the integers and the
rationals, and over Z/p on sparse factors.  The DPs' residue kernel
over Z/p keeps residues in [0, p) and has its own, smaller width,
proved in the `identities` docstring.  Take a polynomial whose words
are products of N factors, F = N - 1 products each: k of the factors
(the x's) are permuted with signs by S_k and the others (the y's) stay
in place.  A
product A*B is the case k = 1, N = 2; s_k has N = k and d_k has
N = 2k + 1.  Let c_i be the largest |coefficient| of the i-th lifted
factor (p - 1 over Z/p, with no scan) and

    W = bits(k!) + F*bits(n * 2^m) + sum over i of bits(c_i).

Then no digit of the polynomial's value reaches 2^(W-1), nor any digit
of the same kind of polynomial on a subset of its factors, such as the
left states h(S) = s_|S| of the standard DP's join.  Digits a kernel
only adds up need no bound: a packed value is one exact int, every step
is an integer multiply-add by one coefficient, so the final P is
exactly the sum of its true digits shifted by W*j, and decoding it is
exact as soon as those true digits lie below 2^(W-1).  Proof of the
bound: expand the polynomial into words, one choice of permutation, of
the n inner indices between neighbouring factors, and of an ordered
split of the output mask u into one mask per factor.  Fix an output
entry, a mask u, the indices and the split: the y's and the Grassmann
sign of the split are then fixed, and the signed sum over the
permutations is the determinant of the k x k matrix whose entry (i, t)
is the coefficient x_i takes at the t-th x slot.  Row i is c_i times a
row in [-1, 1], so the determinant is at most h_k times the product of
the x's c_i, where h_k is the largest determinant of a +-1 matrix (the
determinant is affine in each entry), and the y's add a factor of at
most their c_i.  h_k <= 2^(bits(k!) - 1): Hadamard's
inequality gives h_k <= k^(k/2), and subtracting the first row from the
others shows that 2^(k-1) divides the determinant of a +-1 matrix, so
h_1 = 1, h_2 <= 2, h_3 <= 4 and h_4 <= 16; for k >= 5,
k^(k/2) <= k!/2 < 2^(bits(k!) - 1) (true at 5, and the left side grows
by sqrt(k+1) (1 + 1/k)^(k/2) < k + 1 per step).  There are n^F index
choices and N^|u| <= 2^(m*F) splits, since N <= 2^F, so the digit is at
most 2^(bits(k!) - 1) (n 2^m)^F times the product of all N c_i, which
is below 2^(W-1) because c_i < 2^bits(c_i) (a zero c_i leaves every
digit zero).  On a subset of the factors k!, F and the sum only shrink.
The bound is sharp to one bit: s_2 at n = 3, m = 1, d_1 at n = 3,
m = 0, and a 3x3 product at m = 6 reach 2^(W-2) on sign-aligned
factors near 2^62.

Powers square and multiply: A^k runs over the bits of k below the top
one, squaring once per bit and multiplying by A at each set bit, so it
takes bit_length(k) + popcount(k) - 2 products for k >= 1, and A^0 is
the identity.
"""

from __future__ import annotations

from math import factorial, lcm
from typing import Iterable, List, Optional, Sequence, Tuple

from .errors import ContextMismatchError, IndexOutOfRangeError, MixedRingsError
from .grassmann import GrassmannElem, _check_rank, mul_into, signed_products
from .ring import RAT, ZMOD, Ring, parse_ring


class GrMatrix:
    __slots__ = ("n", "m", "ring", "_rows", "_op")

    def __init__(self, rows: Sequence[Sequence[GrassmannElem]]):
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ValueError("matrix must be square and nonempty")
        first = rows[0][0]
        for row in rows:
            for e in row:
                if not isinstance(e, GrassmannElem):
                    raise TypeError("entries must be GrassmannElem")
                if e.ring != first.ring:
                    raise MixedRingsError("entries drawn from different rings")
                if e.m != first.m:
                    raise ContextMismatchError("entries drawn from different ranks")
        self.n = n
        self.m = first.m
        self.ring = first.ring
        self._rows = tuple(tuple(row) for row in rows)
        self._op = None

    @classmethod
    def _make(cls, n: int, m: int, ring: Ring, rows: Optional[Tuple], op: Optional["_Operand"] = None) -> "GrMatrix":
        """Internal: wrap canonical rows, or, with rows None, a lifted
        operand whose rows are lowered on first read."""
        self = cls.__new__(cls)
        self.n = n
        self.m = m
        self.ring = ring
        self._rows = rows
        self._op = op
        return self

    @property
    def rows(self) -> Tuple:
        """The entries, row by row: a matrix built from its lifted
        operand (a product, a sum or a DP value) lowers it here, once."""
        rows = self._rows
        if rows is None:
            rows = self._rows = _lower(self._op, self.ring)
        return rows

    # ----- constructors -----

    @classmethod
    def zero(cls, n: int, m: int, ring: Ring) -> "GrMatrix":
        z = GrassmannElem.zero(m, ring)
        return cls._make(n, m, ring, tuple(tuple(z for _ in range(n)) for _ in range(n)))

    @classmethod
    def identity(cls, n: int, m: int, ring: Ring) -> "GrMatrix":
        z = GrassmannElem.zero(m, ring)
        one = GrassmannElem.one(m, ring)
        return cls._make(
            n, m, ring,
            tuple(tuple(one if i == j else z for j in range(n)) for i in range(n)),
        )

    @classmethod
    def unit(cls, n: int, m: int, ring: Ring, r: int, s: int) -> "GrMatrix":
        """Matrix unit e_{rs}, 1-based indices."""
        if not (1 <= r <= n and 1 <= s <= n):
            raise IndexOutOfRangeError(f"unit ({r},{s}) outside 1..{n}")
        z = GrassmannElem.zero(m, ring)
        one = GrassmannElem.one(m, ring)
        return cls._make(
            n, m, ring,
            tuple(
                tuple(one if (i == r - 1 and j == s - 1) else z for j in range(n))
                for i in range(n)
            ),
        )

    @classmethod
    def diag(cls, entries: Sequence[GrassmannElem]) -> "GrMatrix":
        n = len(entries)
        first = entries[0]
        z = GrassmannElem.zero(first.m, first.ring)
        rows = []
        for i, e in enumerate(entries):
            if e.ring != first.ring or e.m != first.m:
                raise ContextMismatchError("diagonal entries from different contexts")
            rows.append(tuple(e if j == i else z for j in range(n)))
        return cls._make(n, first.m, first.ring, tuple(rows))

    # ----- context -----

    def _check_other(self, other: "GrMatrix") -> None:
        if not isinstance(other, GrMatrix):
            raise TypeError(f"expected GrMatrix, got {type(other).__name__}")
        if self.ring != other.ring:
            raise MixedRingsError(f"rings differ: {self.ring} vs {other.ring}")
        if self.n != other.n or self.m != other.m:
            raise ContextMismatchError(
                f"contexts differ: (n={self.n}, m={self.m}) vs (n={other.n}, m={other.m})"
            )

    def entry(self, r: int, s: int) -> GrassmannElem:
        """1-based entry access."""
        if not (1 <= r <= self.n and 1 <= s <= self.n):
            raise IndexOutOfRangeError(f"entry ({r},{s}) outside 1..{self.n}")
        return self.rows[r - 1][s - 1]

    # ----- arithmetic -----

    def __add__(self, other: "GrMatrix") -> "GrMatrix":
        return _sum(self, other, 1)

    def __sub__(self, other: "GrMatrix") -> "GrMatrix":
        return _sum(self, other, -1)

    def __neg__(self) -> "GrMatrix":
        return self.scale_coeff(-1)

    def __mul__(self, other: "GrMatrix") -> "GrMatrix":
        self._check_other(other)
        n, m, ring = self.n, self.m, self.ring
        (oa, ob), width, den = _lift((self, other), 1)
        fa, fb = oa.flat, ob.flat
        stride = n * width
        acc: dict = {}
        for t in range(n):
            col: dict = {}
            for i, ta in enumerate(fa[t::n]):
                shift = stride * i
                for sa, c in ta.items():
                    col[sa] = col.get(sa, 0) + (c << shift)
            if not col:
                continue
            row: dict = {}
            for j, tb in enumerate(fb[t * n : t * n + n]):
                shift = width * j
                for sb, c in tb.items():
                    row[sb] = row.get(sb, 0) + (c << shift)
            if row:
                mul_into(acc, col, row)
        return _wrap_state(acc, n, m, ring, width, den)

    def __pow__(self, k: int) -> "GrMatrix":
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        if k == 0:
            return GrMatrix.identity(self.n, self.m, self.ring)
        result = self
        for bit in bin(k)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def scale(self, g: GrassmannElem) -> "GrMatrix":
        """Left-multiply every entry by the Grassmann element g: the
        product diag(g, ..., g) * self."""
        return GrMatrix.diag([g] * self.n) * self

    def scale_coeff(self, c) -> "GrMatrix":
        """Multiply every entry by a ring value (central, side irrelevant),
        kept lifted: the operand's numerators times c's numerator, over its
        denominator times c's."""
        n, m, ring = self.n, self.m, self.ring
        op, c = _operand(self), ring.coerce(c)
        flat = _times(op.flat, c.numerator, ring.characteristic) if c else [{}] * (n * n)
        den = op.den * c.denominator
        return GrMatrix._make(n, m, ring, None, _Operand(flat, n, m, den, _bits(flat, ring)))

    def plus_scalar(self, c) -> "GrMatrix":
        """A + c*I by _sum, with c*I lifted straight from c's numerator
        and denominator."""
        n, m, ring = self.n, self.m, self.ring
        c = ring.coerce(c)
        d = {0: c.numerator} if c else {}
        flat = [d if j % (n + 1) == 0 else {} for j in range(n * n)]
        cI = _Operand(flat, n, m, c.denominator, _bits(flat, ring))
        return _sum(self, GrMatrix._make(n, m, ring, None, cI), 1)

    # ----- grading and structure -----

    def component(self, d: int) -> "GrMatrix":
        rows = tuple(tuple(a.component(d) for a in ra) for ra in self.rows)
        return GrMatrix._make(self.n, self.m, self.ring, rows)

    def diag_split(self) -> Tuple["GrMatrix", "GrMatrix"]:
        """(diagonal part, off-diagonal part); the two sum back to self."""
        z = GrassmannElem.zero(self.m, self.ring)
        dia = tuple(
            tuple(a if i == j else z for j, a in enumerate(ra))
            for i, ra in enumerate(self.rows)
        )
        off = tuple(
            tuple(z if i == j else a for j, a in enumerate(ra))
            for i, ra in enumerate(self.rows)
        )
        return (
            GrMatrix._make(self.n, self.m, self.ring, dia),
            GrMatrix._make(self.n, self.m, self.ring, off),
        )

    def in_filtration(self, r: int) -> bool:
        """True when every entry lies in the degree >= r filtration piece."""
        return all(a.in_filtration(r) for ra in self.rows for a in ra)

    def is_zero(self) -> bool:
        if self._rows is None:
            return not self._op.live
        return all(not a.terms for ra in self.rows for a in ra)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GrMatrix)
            and self.n == other.n
            and self.m == other.m
            and self.ring == other.ring
            and self.rows == other.rows
        )

    __hash__ = None

    # ----- text and JSON -----

    def __str__(self) -> str:
        body = "; ".join(
            "[" + ", ".join(str(a) for a in ra) + "]" for ra in self.rows
        )
        return "[" + body + "]"

    def __repr__(self) -> str:
        return f"<GrMatrix n={self.n} m={self.m} {self.ring.name}: {self}>"

    def compact_str(self) -> str:
        """Single-unit matrices render as coeff*e{r}{s}; else full grid."""
        nz = [
            (i, j, a)
            for i, ra in enumerate(self.rows)
            for j, a in enumerate(ra)
            if a.terms
        ]
        if len(nz) == 1:
            i, j, a = nz[0]
            text = str(a)
            if text == "1":
                return f"e{i + 1}{j + 1}"
            if len(a.terms) > 1:
                text = f"({text})"
            return f"{text}*e{i + 1}{j + 1}"
        return str(self)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "ring": self.ring.name,
            "entries": [
                [a.to_json_terms() for a in ra] for ra in self.rows
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "GrMatrix":
        n, m = data["n"], data["m"]
        if type(n) is not int or type(m) is not int:
            raise ValueError(f"matrix n and m must be integers, got {n!r} and {m!r}")
        _check_rank(m)
        if n < 1:
            raise ValueError(f"matrix dimension must be positive, got {n}")
        ring = parse_ring(data["ring"])
        entries = data["entries"]
        if len(entries) != n or any(len(row) != n for row in entries):
            raise ValueError("entry grid does not match declared dimension")
        rows = tuple(
            tuple(GrassmannElem.from_json_terms(cell, m, ring) for cell in row)
            for row in entries
        )
        return cls._make(n, m, ring, rows)



# ----- packed matrices (see the module docstring) -----


class _Operand(dict):
    """A lifted factor: an x_i or a y of the DPs, a factor of a product,
    or a left state of the standard DP's join; also the value of a
    product, a sum, a scaled matrix or a DP until its rows are read.

    flat is its row-major list of n*n term dicts with integer
    coefficients ({} for a zero entry), den the denominator it was
    lifted over and bits the bit count of its largest |coefficient|
    (the c_i of the width lemma; after a sum, a bound on it),
    and bit r*n + t of live is set when entry (r, t) is nonzero.  As a
    dict it maps a state key (t << m) | sb to what that state entry
    sends into every row r, [((r << m) | u, ±ca)] over the terms of
    column t, from grassmann.signed_products; each row is filled on
    first lookup and kept as long as the operand, so an operand is
    falsy until its first lookup: test it against None.
    """

    __slots__ = ("flat", "n", "m", "live", "den", "bits")

    def __init__(self, flat: list, n: int, m: int, den: int = 1, bits: int = 0):
        self.flat, self.n, self.m, self.den, self.bits = flat, n, m, den, bits
        live = 0
        for j, terms in enumerate(flat):
            if terms:
                live |= 1 << j
        self.live = live

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


def _operand(A: GrMatrix) -> _Operand:
    """A's operand: on first call, A lifted by Ring.lift_terms into a new
    operand kept on A.

    Over the integers and Z/p, flat holds A's own term dicts."""
    op = A._op
    if op is None:  # an _Operand is a dict, falsy while its table is empty
        ring = A.ring
        flat, den = ring.lift_terms([e.terms for row in A.rows for e in row])
        op = A._op = _Operand(flat, A.n, A.m, den, _bits(flat, ring))
    return op


def _bits(flat: list, ring: Ring) -> int:
    """The bit count of the largest |coefficient| in flat: of p - 1 over
    Z/p, with no scan."""
    if ring.kind == ZMOD:
        return (ring.characteristic - 1).bit_length()
    c = 0  # a plain loop is fastest on factors of a few terms
    for terms in flat:
        for v in terms.values():
            if v > c:
                c = v
            elif -v > c:
                c = -v
    return c.bit_length()


def _lift(mats: Sequence[GrMatrix], k: int) -> Tuple[list, int, int]:
    """(operands, W, D) for a polynomial in mats with k alternating
    factors: each matrix's operand, built by _operand on its first lift,
    the digit width W of the width lemma, and the product D of the
    matrices' denominators (1 outside rat)."""
    first = mats[0]
    width = factorial(k).bit_length() + (len(mats) - 1) * (first.n << first.m).bit_length()
    ops, den = [], 1
    for A in mats:
        op = _operand(A)
        ops.append(op)
        width += op.bits
        den *= op.den
    return ops, width, den


def _times(flat: list, s: int, p: int) -> list:
    """The term dicts of flat times a nonzero s, reduced mod p when p is
    nonzero; a nonzero residue times a unit stays nonzero."""
    if p:
        return [{u: v * s % p for u, v in d.items()} for d in flat]
    return [{u: v * s for u, v in d.items()} for d in flat]


def _sum(A: GrMatrix, B: GrMatrix, sign: int) -> GrMatrix:
    """A + sign*B, kept lifted: both operands brought over the lcm of their
    denominators, and only the entries that B touches copied, so the
    others share A's term dicts.  Over Z/p the numerators stay residues;
    zero coefficients are dropped, so live stays exact."""
    A._check_other(B)
    n, m, ring = A.n, A.m, A.ring
    oa, ob = _operand(A), _operand(B)
    den = lcm(oa.den, ob.den)
    sa, sb, p = den // oa.den, sign * (den // ob.den), ring.characteristic
    flat = _times(oa.flat, sa, 0) if sa != 1 else list(oa.flat)
    top = 0
    for j, terms in enumerate(ob.flat):
        if terms:
            d = flat[j] = dict(flat[j])
            for u, v in terms.items():
                w = d.get(u, 0) + sb * v
                if p:
                    w %= p
                if w:
                    d[u] = w
                    top = max(top, abs(w))
                else:
                    del d[u]
    # |v*sa| < 2^bits * sa <= 2^(bits + bit_length(sa - 1)) on A's terms
    bits = max(oa.bits + (sa - 1).bit_length(), top.bit_length())
    return GrMatrix._make(n, m, ring, None, _Operand(flat, n, m, den, bits))


def _digits(P: int, width: int) -> list:
    """The signed digits P = sum over j of d_j << (width*j) packs, with
    |d_j| < 2^(width-1), column 0 first and trailing zeros left out."""
    full = 1 << width
    low, half = full - 1, full >> 1
    out = []
    while P:
        d = P & low
        if d >= half:
            d -= full
        out.append(d)
        P = (P - d) >> width
    return out


def _unpack(state: dict, n: int, m: int, width: int) -> list:
    """A packed matrix as the row-major list of its n*n entries' term
    dicts ({} for a zero entry)."""
    low = (1 << m) - 1
    flat: list = [{} for _ in range(n * n)]
    for key, P in state.items():
        rn, u = (key >> m) * n, key & low
        for j, d in enumerate(_digits(P, width)):
            if d:
                flat[rn + j][u] = d
    return flat


def _wrap_state(state: Optional[dict], n: int, m: int, ring: Ring, width: int, den: int) -> GrMatrix:
    """The GrMatrix of a packed matrix over the integers, divided by den.

    It keeps the decoded numerators as its operand, reduced mod p over
    Z/p, so a later product or DP call lifts nothing, and lowers them
    only when its rows are first read."""
    flat = _unpack(state or {}, n, m, width)
    if ring.kind == ZMOD:
        flat = [ring.clean_terms(d) if d else d for d in flat]
    return GrMatrix._make(n, m, ring, None, _Operand(flat, n, m, den, _bits(flat, ring)))


def _lower(op: _Operand, ring: Ring) -> Tuple:
    """The canonical rows of op.flat / op.den: Ring.lower_terms over the
    rationals; over the integers and Z/p the operand's dicts already are
    canonical terms, and the entries share them."""
    n, m, flat = op.n, op.m, op.flat
    if ring.kind == RAT:
        lower, den = ring.lower_terms, op.den
        flat = [lower(d, den) if d else d for d in flat]
    make = GrassmannElem._make
    return tuple(tuple(make(m, ring, d) for d in flat[r * n : r * n + n]) for r in range(n))


def matrices_to_json(mats: Iterable[GrMatrix]) -> List[dict]:
    return [A.to_json() for A in mats]


def matrices_from_json(items: Iterable[dict]) -> List[GrMatrix]:
    return [GrMatrix.from_json(d) for d in items]
