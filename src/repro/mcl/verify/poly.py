"""Symbolic polynomials over kernel variables — the verifier's little algebra.

Subscript analysis (race detection) and bounds analysis (interval lints) both
need to compare expressions like ``(w + 1) * chunk`` and ``w * chunk + chunk``
for equality, extract the coefficient of a loop variable, or prove that a
difference is non-negative.  MCPL index expressions are built from integer
arithmetic on loop variables and scalar parameters, so a *polynomial with
rational coefficients over named symbols* is exactly the right normal form.

Operations the verifier cannot express polynomially (division, modulo,
builtin calls, array loads) are folded into *opaque atoms*: a fresh symbol
named by the printed source expression.  Two occurrences of the same
expression — e.g. the ``(np + 239) / 240`` chunk size inlined at its
definition and at its use — normalize to the same atom, which is what lets
the dependence test prove that Xeon-Phi-style chunked loops partition their
index range.

Symbols are assumed to denote *non-negative integers* (loop variables and
size parameters), which justifies the sufficient non-negativity test
"every coefficient is >= 0".
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Optional, Tuple, Union

from ..mcpl import ast

__all__ = ["Poly", "Coeff", "expr_to_poly", "ATOM_PREFIX"]

#: prefix marking opaque atoms (non-polynomial subexpressions)
ATOM_PREFIX = "@"

#: a monomial is a sorted tuple of symbol names (with repetition for powers)
Monomial = Tuple[str, ...]

#: a coefficient: a plain ``int`` when integral, a ``Fraction`` otherwise
Coeff = Union[int, Fraction]


def _coeff(value: object) -> Coeff:
    """The normal form of a coefficient: ``int`` whenever it is integral."""
    if type(value) is int:
        return value
    f = Fraction(value)  # type: ignore[arg-type]
    return f.numerator if f.denominator == 1 else f


def _poly(terms: Dict[Monomial, Coeff]) -> "Poly":
    """A Poly over terms already in normal form (no zeros, int if integral)."""
    p = object.__new__(Poly)
    p.terms = terms
    return p


class Poly:
    """An immutable polynomial: ``{monomial: coefficient}``.

    Coefficients are kept in normal form: zeros are dropped and integral
    values are plain ``int`` (``Fraction`` only arises from division by a
    constant and from float literals).  ``Fraction(3) == 3`` with equal
    hashes and equal ``str``, so equality, hashing and ``repr`` do not
    depend on how a coefficient was computed.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Dict[Monomial, object]] = None):
        self.terms: Dict[Monomial, Coeff] = {
            mono: _coeff(coeff) for mono, coeff in (terms or {}).items()
            if coeff != 0}

    # -- constructors -------------------------------------------------------
    @staticmethod
    def const(value: object) -> "Poly":
        c = _coeff(value)
        return _poly({(): c} if c else {})

    @staticmethod
    def var(name: str) -> "Poly":
        return _poly({(name,): 1})

    # -- queries ------------------------------------------------------------
    @property
    def is_constant(self) -> bool:
        return all(mono == () for mono in self.terms)

    def constant_value(self) -> Optional[Coeff]:
        """The value if constant, else ``None``."""
        if self.is_constant:
            return self.terms.get((), 0)
        return None

    def symbols(self) -> Iterable[str]:
        for mono in self.terms:
            yield from mono

    def mentions(self, name: str) -> bool:
        return any(name in mono for mono in self.terms)

    def coefficient_of(self, name: str) -> "Poly":
        """Coefficient polynomial of ``name`` — only for degree <= 1 in it.

        ``coefficient_of('w')`` on ``w * chunk + chunk`` is ``chunk``.
        Raises :class:`ValueError` if ``name`` appears with degree >= 2.
        """
        out: Dict[Monomial, Coeff] = {}
        for mono, coeff in self.terms.items():
            k = mono.count(name)
            if k == 0:
                continue
            if k > 1:
                raise ValueError(f"degree of {name!r} exceeds 1 in {self}")
            rest = tuple(s for s in mono if s != name)
            out[rest] = out.get(rest, 0) + coeff
        return Poly(out)

    def drop(self, name: str) -> "Poly":
        """The terms not mentioning ``name``."""
        return _poly({m: c for m, c in self.terms.items() if name not in m})

    def is_nonnegative(self) -> bool:
        """Sufficient test: every coefficient >= 0 (symbols are >= 0)."""
        return all(coeff >= 0 for coeff in self.terms.values())

    def is_nonpositive(self) -> bool:
        return all(coeff <= 0 for coeff in self.terms.values())

    def is_zero(self) -> bool:
        return not self.terms

    # -- arithmetic ---------------------------------------------------------
    def _plus(self, other: "Poly", sign: int) -> "Poly":
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            c = out.get(mono, 0) + sign * coeff
            if c:
                out[mono] = c if type(c) is int else _coeff(c)
            else:
                del out[mono]
        return _poly(out)

    def __add__(self, other: "Poly") -> "Poly":
        return self._plus(other, 1)

    def __sub__(self, other: "Poly") -> "Poly":
        return self._plus(other, -1)

    def __neg__(self) -> "Poly":
        return _poly({m: -c for m, c in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        out: Dict[Monomial, Coeff] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(sorted(m1 + m2))
                out[mono] = out.get(mono, 0) + c1 * c2
        return Poly(out)

    def scale(self, factor: object) -> "Poly":
        f = _coeff(factor)
        return Poly({m: c * f for m, c in self.terms.items()})

    def substitute(self, name: str, replacement: "Poly") -> "Poly":
        """Replace every occurrence of ``name`` (any degree) by a polynomial."""
        out = Poly()
        for mono, coeff in self.terms.items():
            term = _poly({tuple(s for s in mono if s != name): coeff})
            for _ in range(mono.count(name)):
                term = term * replacement
            out = out + term
        return out

    # -- structural equality ------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms):
            coeff = self.terms[mono]
            sym = "*".join(mono) if mono else ""
            if sym and coeff == 1:
                parts.append(sym)
            elif sym:
                parts.append(f"{coeff}*{sym}")
            else:
                parts.append(str(coeff))
        return " + ".join(parts)


def _atom(expr: ast.Expr) -> Poly:
    """Fold a non-polynomial expression into an opaque (but stable) symbol."""
    return Poly.var(ATOM_PREFIX + str(expr))


def expr_to_poly(expr: ast.Expr,
                 substitutions: Optional[Dict[str, Poly]] = None) -> Poly:
    """Normalize an MCPL expression into a :class:`Poly`.

    ``substitutions`` maps variable names to the polynomial of their (single
    reaching) definition — used to inline recovered indices such as
    ``int i = b * 256 + t;`` before subscripts are compared.

    The function is total: anything non-polynomial (division, modulo, calls,
    array loads) becomes an opaque atom keyed by its printed form, so equal
    source expressions stay comparable.
    """
    subs = substitutions or {}
    if isinstance(expr, ast.IntLit):
        return Poly.const(expr.value)
    if isinstance(expr, ast.FloatLit):
        return Poly.const(Fraction(expr.value).limit_denominator(10**9))
    if isinstance(expr, ast.Var):
        if expr.name in subs:
            return subs[expr.name]
        return Poly.var(expr.name)
    if isinstance(expr, ast.Unary):
        if expr.op == "-" and expr.operand is not None:
            return -expr_to_poly(expr.operand, subs)
        return _atom(expr)
    if isinstance(expr, ast.Binary):
        assert expr.left is not None and expr.right is not None
        if expr.op in ("+", "-", "*"):
            left = expr_to_poly(expr.left, subs)
            right = expr_to_poly(expr.right, subs)
            if expr.op == "+":
                return left + right
            if expr.op == "-":
                return left - right
            return left * right
        if expr.op == "/":
            # Exact constant division stays polynomial; `x / c` with a
            # constant divisor divides every coefficient only when the
            # result is provably exact (single-term multiples). Otherwise
            # the whole (floor) division is an opaque atom.
            left = expr_to_poly(expr.left, subs)
            right = expr_to_poly(expr.right, subs)
            rc = right.constant_value()
            lc = left.constant_value()
            if rc is not None and rc != 0 and lc is not None \
                    and lc % rc == 0:
                return Poly.const(lc // rc)
        return _atom(expr)
    # Index loads, calls: opaque.
    return _atom(expr)
