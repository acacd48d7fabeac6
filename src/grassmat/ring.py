"""Exact coefficient rings: integers, rationals, and prime fields.

Ring objects operate on raw Python values in the style of a
computer-algebra domain: the integers use plain ``int``, the rationals
use ``fractions.Fraction``, and Z/p uses ``int`` residues in ``[0, p)``.
No floats anywhere.  Containers built on top (Grassmann elements,
matrices, polynomials) carry their ring object and refuse mixed-context
arithmetic; see MixedRingsError.

Ring objects compare structurally, so two PrimeField(7) instances are
interchangeable.

Products of Grassmann elements and matrices, and the subset DPs, run
their term kernels on plain ints in every ring.  `lift_terms` turns a
group of term dicts (the entries of a matrix, or one element) into
integer numerators over one common denominator, the lcm of the group's
denominators, and `lower_terms` turns an accumulated integer result
back into canonical terms given the product of its factors'
denominators.  Over the rationals the lower step is Fraction(v, d) per
nonzero v, which reduces by gcd, so the result equals the one Fraction
arithmetic gives, term for term.  Over the integers and Z/p the values
already are ints: the lift returns the dicts unchanged with denominator
1, and the lower is `clean_terms`.  Between the two steps the kernels
pack the lifted values into signed W-bit digits of wide ints; the width
is proved in the `gmatrix` docstring, and neither step depends on it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Sequence, Tuple, Union

Coeff = Union[int, Fraction]

INT = "int"
RAT = "rat"
ZMOD = "zmod"


def is_prime(n: int) -> bool:
    """Trial-division primality test, adequate for desk-scale moduli."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class Ring:
    """Shared interface of the three coefficient rings."""

    kind: str
    name: str
    characteristic: int
    zero: Coeff
    one: Coeff

    def is_field(self) -> bool:
        raise NotImplementedError

    def embed(self, z: int) -> Coeff:
        """Image of the integer z under the canonical homomorphism."""
        raise NotImplementedError

    def coerce(self, value) -> Coeff:
        """Canonical form of a raw value; integers always embed."""
        raise NotImplementedError

    def normalize(self, raw) -> Coeff:
        """Canonical form of a value produced by native + and *."""
        return raw

    def add(self, a: Coeff, b: Coeff) -> Coeff:
        return self.normalize(a + b)

    def sub(self, a: Coeff, b: Coeff) -> Coeff:
        return self.normalize(a - b)

    def mul(self, a: Coeff, b: Coeff) -> Coeff:
        return self.normalize(a * b)

    def neg(self, a: Coeff) -> Coeff:
        return self.normalize(-a)

    def power(self, a: Coeff, e: int) -> Coeff:
        if e < 0:
            raise ValueError("exponent must be nonnegative")
        return self.normalize(a**e)

    def is_zero(self, a: Coeff) -> bool:
        return not a

    def clean_terms(self, terms: dict) -> dict:
        """Normalize accumulated term values and drop zeros."""
        return {k: v for k, v in terms.items() if v}

    def lift_terms(self, group: Sequence[dict]) -> Tuple[Sequence[dict], int]:
        """(integer term dicts, d) with group[i] = lifted[i] / d."""
        return group, 1

    def lower_terms(self, terms: dict, den: int) -> dict:
        """Canonical terms of the integer accumulator terms / den."""
        return self.clean_terms(terms)

    def factorial(self, k: int) -> Coeff:
        return self.embed(math.factorial(k))

    def format(self, a: Coeff) -> str:
        return str(a)

    def parse(self, s: str) -> Coeff:
        raise NotImplementedError

    def __eq__(self, other) -> bool:
        return isinstance(other, Ring) and self.name == other.name

    def __hash__(self) -> int:
        return hash(self.name)

    def __repr__(self) -> str:
        return self.name


class IntegerRing(Ring):
    kind = INT
    name = INT
    characteristic = 0
    zero = 0
    one = 1

    def is_field(self) -> bool:
        return False

    def embed(self, z: int) -> int:
        return int(z)

    def coerce(self, value) -> int:
        if isinstance(value, int):
            return int(value)
        if isinstance(value, Fraction) and value.denominator == 1:
            return int(value)
        raise TypeError(f"cannot coerce {value!r} into {self.name}")

    def parse(self, s: str) -> int:
        return int(s)


class RationalRing(Ring):
    kind = RAT
    name = RAT
    characteristic = 0
    zero = Fraction(0)
    one = Fraction(1)

    def is_field(self) -> bool:
        return True

    def embed(self, z: int) -> Fraction:
        return Fraction(z)

    def coerce(self, value) -> Fraction:
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
        raise TypeError(f"cannot coerce {value!r} into {self.name}")

    def normalize(self, raw) -> Fraction:
        # Fraction arithmetic keeps itself reduced; promote stray ints.
        return raw if isinstance(raw, Fraction) else Fraction(raw)

    def lift_terms(self, group: Sequence[dict]) -> Tuple[List[dict], int]:
        den = math.lcm(*(v.denominator for terms in group for v in terms.values()))
        return [
            {k: v.numerator * (den // v.denominator) for k, v in terms.items()}
            for terms in group
        ], den

    def lower_terms(self, terms: dict, den: int) -> dict:
        return {k: Fraction(v, den) for k, v in terms.items() if v}

    def parse(self, s: str) -> Fraction:
        # Fraction("1e10000000") builds 10**10000000 before any check can see it
        if "e" in s or "E" in s:
            raise ValueError(f"exponent notation is not accepted in {s!r}")
        try:
            return Fraction(s)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {s!r}") from None


class PrimeField(Ring):
    kind = ZMOD
    zero = 0
    one = 1

    def __init__(self, p: int):
        if not isinstance(p, int) or not is_prime(p):
            raise ValueError(f"modulus must be a prime, got {p!r}")
        self.modulus = p
        self.characteristic = p
        self.name = f"{ZMOD}:{p}"

    def is_field(self) -> bool:
        return True

    def embed(self, z: int) -> int:
        return int(z) % self.modulus

    def coerce(self, value) -> int:
        if isinstance(value, int):
            return int(value) % self.modulus
        raise TypeError(f"cannot coerce {value!r} into {self.name}")

    def normalize(self, raw: int) -> int:
        return raw % self.modulus

    def power(self, a: int, e: int) -> int:
        if e < 0:
            raise ValueError("exponent must be nonnegative")
        return pow(a, e, self.modulus)

    def clean_terms(self, terms: dict) -> dict:
        p = self.modulus
        out = {}
        for k, v in terms.items():
            v %= p
            if v:
                out[k] = v
        return out

    def parse(self, s: str) -> int:
        return int(s) % self.modulus


ZZ = IntegerRing()
QQ = RationalRing()


def parse_ring(spec: str) -> Ring:
    """Map a ring string ("int", "rat", "zmod:<p>") to its ring object."""
    if spec == INT:
        return ZZ
    if spec == RAT:
        return QQ
    if spec.startswith(ZMOD + ":"):
        body = spec.split(":", 1)[1]
        try:
            p = int(body)
        except ValueError:
            raise ValueError(f"bad modulus in ring string {spec!r}") from None
        return PrimeField(p)
    raise ValueError(f"unknown ring string {spec!r}")
