"""Arithmetic in the rank-m exterior (Grassmann) algebra over an exact ring.

An element is a sparse map from generator-subset bitmasks to nonzero
coefficients.  Bit i-1 of a mask marks the generator v_i, so the basis
monomial v_{i_1}...v_{i_d} with i_1 < ... < i_d is the mask with exactly
those bits set and its degree is the mask's popcount.  Rank is capped at
62 so a mask always fits one machine word.

The product of basis monomials with masks S and T is zero when S and T
intersect, and otherwise is (-1)^inv(S,T) times the monomial with mask
S | T, where inv(S, T) counts pairs s in S, t in T with s > t.  That is
the bilinear extension of the defining relations v_k v_k = 0 and
v_i v_j = -v_j v_i, so homogeneous elements supercommute:
a*b = (-1)^(deg a * deg b) b*a.

The sign mask.  Let G(S) be the mask whose bit j is set when an odd
number of the bits of S lie above j.  Then for disjoint S and T,
inv(S, T) = sum over t in T of |{s in S : s > t}|, which is
popcount(T & G(S)) mod 2, so v_S v_T = (-1)^popcount(T & G(S)) v_(S|T).
G(S) is the suffix parity of S >> 1, six shift-xors for a 62-bit mask;
one G per left mask serves every right mask: _SIGN_CACHE maps each
left mask seen to its G.

The lookup bound.  Every mask of b that is disjoint from a left mask
S is a submask of free = span(b) & ~S, where span(b) is the OR of b's
masks.  So mul_into reaches the disjoint pairs either by walking the
2^popcount(free) submasks of free and looking each one up in b, or by
scanning b's terms, whichever is fewer: at most min(len(b),
2^popcount(free)) lookups per term of a, and never a visit to an
overlapping pair on the walk.  A right factor of at most two terms is
scanned without computing its span.
"""

from __future__ import annotations

from typing import Iterable, Tuple

from .errors import (
    IndexOutOfRangeError,
    MixedRingsError,
    ContextMismatchError,
    NonIncreasingIndicesError,
)
from .ring import Ring

MAX_RANK = 62

# G(sa) for each left mask sa that mul_into or signed_products has seen
_SIGN_CACHE: dict = {}


def _sign_mask(s: int) -> int:
    """G(s): bit j is set when an odd number of the bits of s lie above j,
    so v_s v_t = (-1)^popcount(t & G(s)) v_(s|t) for disjoint s, t."""
    # the suffix parity of s >> 1: fold every higher bit down onto bit j
    g = s >> 1
    g ^= g >> 1
    g ^= g >> 2
    g ^= g >> 4
    g ^= g >> 8
    g ^= g >> 16
    g ^= g >> 32
    return g


def signed_products(ta: dict, sb: int) -> list:
    """[(sa | sb, ±ca)] over the masks sa of ta disjoint from sb.

    These are the terms of a * v_sb, one coefficient short, so a kernel
    that holds the operand a fixed can tabulate them once per mask sb.
    """
    out = []
    for sa, ca in ta.items():
        if not sa & sb:
            g = _SIGN_CACHE.get(sa)
            if g is None:
                g = _SIGN_CACHE[sa] = _sign_mask(sa)
            out.append((sa | sb, -ca if (sb & g).bit_count() & 1 else ca))
    return out


def mul_into(acc: dict, ta: dict, tb: dict) -> None:
    """acc += a * b on raw term dicts, no normalization.

    Visits only the disjoint pairs when tb is dense over its span (see
    the module docstring).  Callers clean the accumulator once at the
    end (ring.clean_terms); skipping per-product reduction is what keeps
    matrix kernels fast.
    """
    get = acc.get
    masks = _SIGN_CACHE.get
    # walk the submasks of free when 2^popcount(free) < len(tb), that is
    # popcount(free) < bound; bound 0 scans a tb of at most two terms
    span = bound = 0
    if len(tb) > 2:
        for sb in tb:
            span |= sb
        bound = (len(tb) - 1).bit_length()
    for sa, ca in ta.items():
        g = masks(sa)
        if g is None:
            g = _SIGN_CACHE[sa] = _sign_mask(sa)
        free = span & ~sa
        if bound and free.bit_count() < bound:
            look = tb.get
            sb = free
            while True:
                cb = look(sb)
                if cb is not None:
                    c = (-ca if (sb & g).bit_count() & 1 else ca) * cb
                    u = sa | sb
                    prev = get(u)
                    acc[u] = c if prev is None else prev + c
                if not sb:
                    break
                sb = (sb - 1) & free
        else:
            for sb, cb in tb.items():
                if sa & sb:
                    continue
                c = (-ca if (sb & g).bit_count() & 1 else ca) * cb
                u = sa | sb
                prev = get(u)
                acc[u] = c if prev is None else prev + c


def _check_rank(m: int) -> None:
    if not isinstance(m, int) or not 0 <= m <= MAX_RANK:
        raise IndexOutOfRangeError(f"rank must satisfy 0 <= m <= {MAX_RANK}, got {m}")


class GrassmannElem:
    """One element of the rank-m Grassmann algebra over a fixed ring."""

    __slots__ = ("m", "ring", "terms")

    @classmethod
    def _make(cls, m: int, ring: Ring, clean: dict) -> "GrassmannElem":
        """Internal: wrap an already-canonical term dict."""
        self = cls.__new__(cls)
        self.m = m
        self.ring = ring
        self.terms = clean
        return self

    # ----- constructors -----

    @classmethod
    def zero(cls, m: int, ring: Ring) -> "GrassmannElem":
        _check_rank(m)
        return cls._make(m, ring, {})

    @classmethod
    def one(cls, m: int, ring: Ring) -> "GrassmannElem":
        return cls.scalar(ring.one, m, ring)

    @classmethod
    def scalar(cls, c, m: int, ring: Ring) -> "GrassmannElem":
        _check_rank(m)
        c = ring.coerce(c)
        return cls._make(m, ring, {0: c} if c else {})

    @classmethod
    def generator(cls, i: int, m: int, ring: Ring) -> "GrassmannElem":
        _check_rank(m)
        if not 1 <= i <= m:
            raise IndexOutOfRangeError(f"generator index {i} outside 1..{m}")
        return cls._make(m, ring, {1 << (i - 1): ring.one})

    @classmethod
    def basis(cls, mask: int, m: int, ring: Ring) -> "GrassmannElem":
        """Basis monomial for a subset bitmask, coefficient one."""
        _check_rank(m)
        if not 0 <= mask < (1 << m):
            raise IndexOutOfRangeError(f"mask {mask} outside rank-{m} algebra")
        return cls._make(m, ring, {mask: ring.one})

    @classmethod
    def from_terms(cls, m: int, ring: Ring, terms: Iterable) -> "GrassmannElem":
        """Sum of (indices, coeff) pairs.

        Indices must be strictly increasing and within 1..m; repeated
        masks accumulate.  Coefficients pass through ring.coerce.
        """
        _check_rank(m)
        acc: dict = {}
        for indices, coeff in terms:
            mask = 0
            prev = 0
            for i in indices:
                if not 1 <= i <= m:
                    raise IndexOutOfRangeError(f"generator index {i} outside 1..{m}")
                if i <= prev:
                    raise NonIncreasingIndicesError(
                        f"indices must be strictly increasing, got {tuple(indices)}"
                    )
                mask |= 1 << (i - 1)
                prev = i
            acc[mask] = acc.get(mask, ring.zero) + ring.coerce(coeff)
        return cls._make(m, ring, ring.clean_terms(acc))

    # ----- context -----

    def _check_other(self, other: "GrassmannElem") -> None:
        if not isinstance(other, GrassmannElem):
            raise TypeError(f"expected GrassmannElem, got {type(other).__name__}")
        if self.ring != other.ring:
            raise MixedRingsError(f"rings differ: {self.ring} vs {other.ring}")
        if self.m != other.m:
            raise ContextMismatchError(f"ranks differ: {self.m} vs {other.m}")

    # ----- arithmetic -----

    def __add__(self, other: "GrassmannElem") -> "GrassmannElem":
        self._check_other(other)
        ring = self.ring
        acc = dict(self.terms)
        for k, v in other.terms.items():
            prev = acc.get(k)
            acc[k] = v if prev is None else prev + v
        return GrassmannElem._make(self.m, ring, ring.clean_terms(acc))

    def __sub__(self, other: "GrassmannElem") -> "GrassmannElem":
        return self + (-other)

    def __neg__(self) -> "GrassmannElem":
        ring = self.ring
        return GrassmannElem._make(
            self.m, ring, {k: ring.neg(v) for k, v in self.terms.items()}
        )

    def __mul__(self, other: "GrassmannElem") -> "GrassmannElem":
        self._check_other(other)
        ring = self.ring
        (ta,), da = ring.lift_terms((self.terms,))
        (tb,), db = ring.lift_terms((other.terms,))
        acc: dict = {}
        mul_into(acc, ta, tb)
        return GrassmannElem._make(self.m, ring, ring.lower_terms(acc, da * db))

    def __pow__(self, k: int) -> "GrassmannElem":
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = GrassmannElem.one(self.m, self.ring)
        for _ in range(k):
            result = result * self
        return result

    def scale(self, c) -> "GrassmannElem":
        """Multiply every coefficient by the ring value c."""
        ring = self.ring
        c = ring.coerce(c)
        acc = {k: v * c for k, v in self.terms.items()}
        return GrassmannElem._make(self.m, ring, ring.clean_terms(acc))

    # ----- structure -----

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def coeff(self, mask: int):
        """Raw coefficient of a basis monomial, ring zero if absent."""
        return self.terms.get(mask, self.ring.zero)

    def component(self, d: int) -> "GrassmannElem":
        """Homogeneous degree-d part."""
        picked = {k: v for k, v in self.terms.items() if k.bit_count() == d}
        return GrassmannElem._make(self.m, self.ring, picked)

    def degrees(self) -> Tuple[int, ...]:
        """Sorted degrees present in the support; empty for zero."""
        return tuple(sorted({k.bit_count() for k in self.terms}))

    def in_filtration(self, r: int) -> bool:
        """True when every term has degree >= r; zero passes for all r."""
        return all(k.bit_count() >= r for k in self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GrassmannElem)
            and self.m == other.m
            and self.ring == other.ring
            and self.terms == other.terms
        )

    __hash__ = None  # mutable-dict carrier, deliberately unhashable

    # ----- text and JSON -----

    def sorted_terms(self):
        """Terms sorted by (degree, mask), the canonical report order."""
        return sorted(self.terms.items(), key=lambda kv: (kv[0].bit_count(), kv[0]))

    def __str__(self) -> str:
        return signed_sum(self.ring, [(c, monomial_str(mask)) for mask, c in self.sorted_terms()])

    def __repr__(self) -> str:
        return f"<{self.ring.name}, m={self.m}: {self}>"

    def to_json_terms(self) -> list:
        """[[mask, coeff-string], ...] in canonical order."""
        ring = self.ring
        return [[mask, ring.format(c)] for mask, c in self.sorted_terms()]

    @classmethod
    def from_json_terms(cls, pairs: Iterable, m: int, ring: Ring) -> "GrassmannElem":
        acc: dict = {}
        for mask, cs in pairs:
            if type(mask) is not int:
                raise ValueError(f"mask {mask!r} is not an integer")
            if not isinstance(cs, str):
                raise ValueError(f"coefficient {cs!r} is not a string")
            if not 0 <= mask < (1 << m):
                raise IndexOutOfRangeError(f"mask {mask} outside rank-{m} algebra")
            c = ring.parse(cs)
            acc[mask] = acc.get(mask, ring.zero) + c
        return cls._make(m, ring, ring.clean_terms(acc))


def signed_sum(ring: Ring, terms: Iterable[Tuple[object, str]]) -> str:
    """Text of a sum of (coefficient, monomial) terms, "0" for none: c*mono,
    or c alone for the empty monomial; a coefficient of 1 or -1 shows only
    its sign, and a term with a leading minus joins the sum as " - "."""
    shown = []
    for c, mono in terms:
        cs = ring.format(c)
        if not mono:
            shown.append(cs)
        elif cs == "1":
            shown.append(mono)
        elif cs == "-1":
            shown.append("-" + mono)
        else:
            shown.append(f"{cs}*{mono}")
    # no coefficient or monomial text holds " + -", so this only rejoins terms
    return " + ".join(shown).replace(" + -", " - ") or "0"


def monomial_str(mask: int) -> str:
    """Text of a basis monomial, e.g. mask 0b101 -> "v1v3"."""
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(f"v{i}")
        mask >>= 1
        i += 1
    return "".join(out)
