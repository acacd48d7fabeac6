"""Square matrices over a Grassmann algebra, with grading helpers.

A GrMatrix fixes its context (n, m, ring) at construction; arithmetic
between different contexts raises.  Entries are GrassmannElem values and
all arithmetic stays exact.  The degree-d component of a matrix is the
matrix of entrywise degree-d components, and matrix multiplication
respects that grading: (A*B)_d = sum over i+j=d of A_i * B_j.

A product lifts each row of the left factor and each column of the
right factor to integer numerators over one common denominator
(Ring.lift_terms).  It then packs row k of the lifted right factor into
one term dict {sb: sum over j of b_kj[sb] << (W*j)} of signed W-bit
digits, one per column, so grassmann.mul_into(acc, a_ik, packed row k)
multiplies all n columns at once: one call per nonzero a_ik instead of
one per (i, j, k), and one int multiply-add per pair of terms.  Row i's
accumulator is decoded into its n entries (grassmann._digits), and
entry (i, j) is lowered once over the product of row i's and column j's
denominators (Ring.lower_terms).  Over the rationals that replaces a
Fraction operation per term pair by an int one; over the integers and
Z/p the lift and the lower change nothing.

The width.  Let c_a and c_b be the largest |coefficient| of the lifted
left and right factors (p - 1 for both over Z/p, with no scan), and
W = bits(c_a) + bits(c_b) + bits(n * 2^m) + 1.  Digit j of row i's
accumulator at mask u sums, over the n inner indices k and the 2^|u|
splits of u into the masks of a_ik and b_kj, at most n * 2^m products,
each of size at most c_a * c_b; partial sums add a subset of the same
products.  So every digit is at most n 2^m c_a c_b, which is below
2^(W-1) because x < 2^bits(x), and the decoding is exact.  On a 4x4
rat product at m = 6 with dense entries this takes one product from
13-16 ms to about 5 ms (2-vCPU VM, Python 3.11.7); a product of two
2x2 atom matrices gets slower, about 7 us to 11 us, since packing a
row costs more than the few term pairs it saves.

Powers are computed by plain iterated multiplication.  Nilpotency
degrees here stay in the single digits, and the intermediate powers are
exactly what minimality checks need to look at.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, List, Sequence, Tuple

from .errors import ContextMismatchError, IndexOutOfRangeError, MixedRingsError
from .grassmann import GrassmannElem, _check_rank, _digits, mul_into
from .ring import ZMOD, Ring, parse_ring


class GrMatrix:
    __slots__ = ("n", "m", "ring", "rows")

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
        self.rows = tuple(tuple(row) for row in rows)

    @classmethod
    def _make(cls, n: int, m: int, ring: Ring, rows: Tuple) -> "GrMatrix":
        self = cls.__new__(cls)
        self.n = n
        self.m = m
        self.ring = ring
        self.rows = rows
        return self

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
        self._check_other(other)
        rows = tuple(
            tuple(a + b for a, b in zip(ra, rb))
            for ra, rb in zip(self.rows, other.rows)
        )
        return GrMatrix._make(self.n, self.m, self.ring, rows)

    def __sub__(self, other: "GrMatrix") -> "GrMatrix":
        self._check_other(other)
        rows = tuple(
            tuple(a - b for a, b in zip(ra, rb))
            for ra, rb in zip(self.rows, other.rows)
        )
        return GrMatrix._make(self.n, self.m, self.ring, rows)

    def __neg__(self) -> "GrMatrix":
        rows = tuple(tuple(-a for a in ra) for ra in self.rows)
        return GrMatrix._make(self.n, self.m, self.ring, rows)

    def __mul__(self, other: "GrMatrix") -> "GrMatrix":
        self._check_other(other)
        n, m, ring = self.n, self.m, self.ring
        lift = ring.lift_terms
        lower = ring.lower_terms
        make = GrassmannElem._make
        rows = [lift([a.terms for a in arow]) for arow in self.rows]
        cols = [lift([row[j].terms for row in other.rows]) for j in range(n)]
        if ring.kind == ZMOD:
            ca = cb = ring.characteristic - 1
        else:
            ca, cb = (
                max(map(abs, chain.from_iterable(map(dict.values, chain.from_iterable(
                    ts for ts, _ in half)))), default=0)
                for half in (rows, cols)
            )
        width = ca.bit_length() + cb.bit_length() + (n << m).bit_length() + 1
        packed = [{} for _ in range(n)]
        for j, (tcol, _) in enumerate(cols):
            shift = width * j
            for P, tb in zip(packed, tcol):
                for sb, c in tb.items():
                    P[sb] = P.get(sb, 0) + (c << shift)
        zero = make(m, ring, {})
        zeros = (zero,) * n
        out = []
        for ta, da in rows:
            acc: dict = {}
            for t, P in zip(ta, packed):
                if t and P:
                    mul_into(acc, t, P)
            if not acc:
                out.append(zeros)
                continue
            entries = [{} for _ in range(n)]
            for u, P in acc.items():
                for d, e in zip(_digits(P, width), entries):
                    if d:
                        e[u] = d
            out.append(tuple([
                make(m, ring, lower(e, da * db)) if e else zero
                for e, (_, db) in zip(entries, cols)
            ]))
        return GrMatrix._make(n, m, ring, tuple(out))

    def __pow__(self, k: int) -> "GrMatrix":
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = GrMatrix.identity(self.n, self.m, self.ring)
        for _ in range(k):
            result = result * self
        return result

    def scale(self, g: GrassmannElem) -> "GrMatrix":
        """Left-multiply every entry by the Grassmann element g."""
        if g.ring != self.ring or g.m != self.m:
            raise ContextMismatchError("scalar context differs from matrix context")
        rows = tuple(tuple(g * a for a in ra) for ra in self.rows)
        return GrMatrix._make(self.n, self.m, self.ring, rows)

    def scale_coeff(self, c) -> "GrMatrix":
        """Multiply every entry by a ring value (central, side irrelevant)."""
        rows = tuple(tuple(a.scale(c) for a in ra) for ra in self.rows)
        return GrMatrix._make(self.n, self.m, self.ring, rows)

    def plus_scalar(self, c) -> "GrMatrix":
        """A + c*I for a ring value c."""
        s = GrassmannElem.scalar(c, self.m, self.ring)
        rows = tuple(
            tuple(a + s if i == j else a for j, a in enumerate(ra))
            for i, ra in enumerate(self.rows)
        )
        return GrMatrix._make(self.n, self.m, self.ring, rows)

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
        n = int(data["n"])
        m = int(data["m"])
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


def matrices_to_json(mats: Iterable[GrMatrix]) -> List[dict]:
    return [A.to_json() for A in mats]


def matrices_from_json(items: Iterable[dict]) -> List[GrMatrix]:
    return [GrMatrix.from_json(d) for d in items]
