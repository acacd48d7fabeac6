"""Univariate polynomials over a coefficient ring, and characteristic
polynomials of scalar matrices.

Coefficients are stored lowest-degree first with no trailing zeros, as
raw ring values.  The characteristic polynomial is computed by the
Berkowitz iteration, which is division-free and therefore valid over the
plain integers as well as over the fields; tests cross-check it against
an independent Leibniz-expansion oracle.

Matrix evaluation uses Horner's scheme from the leading coefficient:
it starts from A itself (times the leading coefficient unless the
polynomial is monic), so a polynomial of degree d >= 1 costs d - 1
matrix products and no polynomial division is ever performed.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .errors import ContextMismatchError, MixedRingsError, NonScalarEntriesError
from .gmatrix import GrMatrix
from .grassmann import signed_sum
from .ring import Ring


class Poly:
    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: Ring, coeffs: Sequence = ()):
        """coeffs lowest-first; values are coerced and trailing zeros cut."""
        vals = [ring.coerce(c) for c in coeffs]
        while vals and ring.is_zero(vals[-1]):
            vals.pop()
        self.ring = ring
        self.coeffs = tuple(vals)

    @classmethod
    def _make(cls, ring: Ring, canonical: Tuple) -> "Poly":
        self = cls.__new__(cls)
        self.ring = ring
        self.coeffs = canonical
        return self

    @classmethod
    def zero(cls, ring: Ring) -> "Poly":
        return cls._make(ring, ())

    @classmethod
    def one(cls, ring: Ring) -> "Poly":
        return cls._make(ring, (ring.one,))

    @classmethod
    def x(cls, ring: Ring) -> "Poly":
        return cls._make(ring, (ring.zero, ring.one))

    @classmethod
    def from_roots(cls, ring: Ring, roots: Sequence) -> "Poly":
        """Monic product of (x - root) over the given roots."""
        out = cls.one(ring)
        for r in roots:
            r = ring.coerce(r)
            out = out * cls(ring, [ring.neg(r), ring.one])
        return out

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.ring.one

    def _check_ring(self, other: "Poly") -> None:
        if self.ring != other.ring:
            raise MixedRingsError(f"rings differ: {self.ring} vs {other.ring}")

    def __add__(self, other: "Poly") -> "Poly":
        self._check_ring(other)
        ring = self.ring
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = ring.add(out[i], c)
        return Poly(ring, out)

    def __neg__(self) -> "Poly":
        ring = self.ring
        return Poly._make(ring, tuple(ring.neg(c) for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check_ring(other)
        ring = self.ring
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero(ring)
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return Poly(ring, [ring.normalize(c) for c in out])

    def derivative(self) -> "Poly":
        ring = self.ring
        out = [
            ring.mul(ring.embed(i), c) for i, c in enumerate(self.coeffs) if i > 0
        ]
        return Poly(ring, out)

    def __call__(self, x):
        """Evaluate at a ring value by Horner."""
        ring = self.ring
        x = ring.coerce(x)
        acc = ring.zero
        for c in reversed(self.coeffs):
            acc = ring.add(ring.mul(acc, x), c)
        return acc

    def at_matrix(self, A: GrMatrix) -> GrMatrix:
        """Evaluate at a matrix by Horner from the leading coefficient;
        scalars act centrally.  Degree d >= 1 takes d - 1 products."""
        if A.ring != self.ring:
            raise ContextMismatchError("polynomial and matrix rings differ")
        coeffs = self.coeffs
        if len(coeffs) < 2:
            zero = GrMatrix.zero(A.n, A.m, A.ring)
            return zero.plus_scalar(coeffs[0]) if coeffs else zero
        acc = A if self.is_monic() else A.scale_coeff(coeffs[-1])
        for c in reversed(coeffs[1:-1]):
            acc = acc.plus_scalar(c) * A
        return acc.plus_scalar(coeffs[0])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.ring == other.ring
            and self.coeffs == other.coeffs
        )

    __hash__ = None

    def __str__(self) -> str:
        powers = ["", "x"] + [f"x^{i}" for i in range(2, len(self.coeffs))]
        terms = [(c, xi) for c, xi in zip(self.coeffs, powers) if not self.ring.is_zero(c)]
        return signed_sum(self.ring, reversed(terms))

    def __repr__(self) -> str:
        return f"<Poly {self.ring.name}: {self}>"


def scalar_rows(A: GrMatrix) -> List[List]:
    """Raw degree-0 coefficients of a scalar matrix.

    Raises NonScalarEntriesError when any entry has a positive-degree
    term.
    """
    ring = A.ring
    out = []
    for i, row in enumerate(A.rows):
        vals = []
        for j, e in enumerate(row):
            if any(mask for mask in e.terms):
                raise NonScalarEntriesError(
                    f"entry ({i + 1},{j + 1}) has positive-degree terms"
                )
            vals.append(e.terms.get(0, ring.zero))
        out.append(vals)
    return out


def charpoly(A0: GrMatrix) -> Poly:
    """Characteristic polynomial det(xI - A0) of a scalar matrix.

    Berkowitz iteration: walk up the leading principal blocks, mapping
    the coefficient vector of each block through a Toeplitz matrix built
    from the new row, column, and corner.  Only ring +,-,* are used.
    """
    ring = A0.ring
    a = scalar_rows(A0)
    n = A0.n
    # p holds the highest-first coefficients for the current block
    p = [ring.one, ring.neg(a[0][0])]
    for k in range(1, n):
        R = a[k][:k]
        C = [a[i][k] for i in range(k)]
        # first Toeplitz column: 1, -a_kk, -(R C), -(R M C), ..., -(R M^{k-1} C)
        t = [ring.one, -a[k][k]]
        vec = C
        for _ in range(k):
            t.append(-sum(r * v for r, v in zip(R, vec)))
            vec = [sum(a[i][j] * vec[j] for j in range(k)) for i in range(k)]
        newp = []
        for i in range(k + 2):
            s = 0
            for j in range(max(0, i - k - 1), min(i, k) + 1):
                s += t[i - j] * p[j]
            newp.append(ring.normalize(s))
        p = newp
    return Poly(ring, list(reversed(p)))

