"""Peano terms and the rewrite rules behind the `simpl` tactic.

Terms are immutable trees over four constructors: Zero, Succ, Plus and named
variables. The canonical text form (prefix notation, no whitespace) is the
identity used everywhere else: two terms are interchangeable exactly when
their canonical forms coincide.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

__all__ = [
    "Term",
    "Zero",
    "Succ",
    "Plus",
    "Var",
    "ZERO",
    "TermSyntaxError",
    "is_identifier",
    "format_term",
    "parse_term",
    "parse_term_at",
    "numeral",
    "succ_tower",
    "term_vars",
    "substitute",
    "occurs",
    "occurs_var",
    "replace_leftmost_innermost",
    "normalize",
]


@dataclass(frozen=True, slots=True)
class Term:
    """Base class; concrete terms are Zero, Succ, Plus or Var."""


@dataclass(frozen=True, slots=True)
class Zero(Term):
    pass


@dataclass(frozen=True, slots=True)
class Succ(Term):
    child: Term


@dataclass(frozen=True, slots=True)
class Plus(Term):
    left: Term
    right: Term


@dataclass(frozen=True, slots=True)
class Var(Term):
    name: str


ZERO = Zero()

# Identifiers may use primes (n') and underscores (IH_n); constructor names
# and the obligation keyword are reserved.
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
RESERVED_WORDS = frozenset({"Zero", "Succ", "Plus", "Var", "forall"})


def is_identifier(name: str) -> bool:
    return bool(_IDENT_RE.fullmatch(name)) and name not in RESERVED_WORDS


class TermSyntaxError(ValueError):
    """Malformed canonical text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def format_term(t: Term) -> str:
    # A Succ chain is walked in a loop, so a numeral costs no recursion.
    depth = 0
    while isinstance(t, Succ):
        t = t.child
        depth += 1
    if isinstance(t, Zero):
        text = "Zero"
    elif isinstance(t, Plus):
        text = f"Plus({format_term(t.left)},{format_term(t.right)})"
    elif isinstance(t, Var):
        text = f"Var({t.name})"
    else:
        raise TypeError(f"not a term: {t!r}")
    return "Succ(" * depth + text + ")" * depth


def parse_term_at(text: str, pos: int) -> tuple[Term, int]:
    """Parse one term starting at `pos`; returns (term, position after it)."""
    m = _IDENT_RE.match(text, pos)
    if m is None:
        raise TermSyntaxError("expected a term constructor", pos)
    word = m.group(0)
    end = m.end()
    if word == "Zero":
        return ZERO, end
    if word == "Succ":
        end = _expect(text, end, "(")
        child, end = parse_term_at(text, end)
        end = _expect(text, end, ")")
        return Succ(child), end
    if word == "Plus":
        end = _expect(text, end, "(")
        left, end = parse_term_at(text, end)
        end = _expect(text, end, ",")
        right, end = parse_term_at(text, end)
        end = _expect(text, end, ")")
        return Plus(left, right), end
    if word == "Var":
        end = _expect(text, end, "(")
        m = _IDENT_RE.match(text, end)
        if m is None or not is_identifier(m.group(0)):
            raise TermSyntaxError("expected an identifier", end)
        name = m.group(0)
        end = _expect(text, m.end(), ")")
        return Var(name), end
    raise TermSyntaxError(f"unknown constructor {word!r}", pos)


def _expect(text: str, pos: int, token: str) -> int:
    if not text.startswith(token, pos):
        raise TermSyntaxError(f"expected {token!r}", pos)
    return pos + len(token)


def parse_term(text: str) -> Term:
    term, end = parse_term_at(text, 0)
    if end != len(text):
        raise TermSyntaxError("trailing input after term", end)
    return term


def numeral(k: int) -> Term:
    """The numeral k as Succ^k(Zero)."""
    if k < 0:
        raise ValueError("numerals are nonnegative")
    return succ_tower(k, ZERO)


def succ_tower(k: int, base: Term) -> Term:
    """Wrap `base` in k Succ constructors."""
    for _ in range(k):
        base = Succ(base)
    return base


def term_vars(t: Term) -> tuple[str, ...]:
    """Variable names in first-occurrence order (left-to-right, outside-in)."""
    out: list[str] = []

    def walk(u: Term) -> None:
        if isinstance(u, Var):
            if u.name not in out:
                out.append(u.name)
        elif isinstance(u, Succ):
            walk(u.child)
        elif isinstance(u, Plus):
            walk(u.left)
            walk(u.right)

    walk(t)
    return tuple(out)


def substitute(t: Term, name: str, replacement: Term) -> Term:
    """`t` with every Var(name) replaced; subtrees without one are returned
    as they are, not rebuilt."""
    if isinstance(t, Var):
        return replacement if t.name == name else t
    if isinstance(t, Succ):
        child = substitute(t.child, name, replacement)
        return t if child is t.child else Succ(child)
    if isinstance(t, Plus):
        left = substitute(t.left, name, replacement)
        right = substitute(t.right, name, replacement)
        return t if left is t.left and right is t.right else Plus(left, right)
    return t


def occurs(t: Term, sub: Term) -> bool:
    """True when `sub` appears as a subterm of `t` (including t itself)."""
    if t == sub:
        return True
    if isinstance(t, Succ):
        return occurs(t.child, sub)
    if isinstance(t, Plus):
        return occurs(t.left, sub) or occurs(t.right, sub)
    return False


def occurs_var(t: Term, name: str) -> bool:
    """True when Var(name) appears in `t`; compares names only."""
    while True:
        if isinstance(t, Var):
            return t.name == name
        if isinstance(t, Succ):
            t = t.child
        elif isinstance(t, Plus):
            if occurs_var(t.left, name):
                return True
            t = t.right
        else:
            return False


def replace_leftmost_innermost(t: Term, target: Term, replacement: Term) -> Term | None:
    """Replace the leftmost-innermost occurrence of `target` in `t`.

    Post-order traversal, so the deepest (and left-most at equal depth)
    occurrence is rewritten. Returns None when `target` does not occur.
    """
    if isinstance(t, Succ):
        inner = replace_leftmost_innermost(t.child, target, replacement)
        if inner is not None:
            return Succ(inner)
    elif isinstance(t, Plus):
        left = replace_leftmost_innermost(t.left, target, replacement)
        if left is not None:
            return Plus(left, t.right)
        right = replace_leftmost_innermost(t.right, target, replacement)
        if right is not None:
            return Plus(t.left, right)
    if t == target:
        return replacement
    return None


def normalize(t: Term) -> Term:
    """The unique normal form under Plus(Zero,n) -> n and
    Plus(Succ(m),n) -> Succ(Plus(m,n)), in one bottom-up pass. A term that
    is already normal is returned itself, so `normalize(t) is t` tests
    normality."""
    depth = 0
    inner = t
    while isinstance(inner, Succ):
        inner = inner.child
        depth += 1
    if not isinstance(inner, Plus):
        return t
    normal = _normalize_plus(inner)
    return t if normal is inner else succ_tower(depth, normal)


def _normalize_plus(t: Plus) -> Term:
    left = normalize(t.left)
    right = normalize(t.right)
    # With both sides normal, Plus(Succ^k(base), right) reduces to
    # Succ^k(right) when base is Zero and to Succ^k(Plus(base, right))
    # otherwise; neither has a redex left.
    k = 0
    base = left
    while isinstance(base, Succ):
        base = base.child
        k += 1
    if isinstance(base, Zero):
        return succ_tower(k, right)
    if k == 0 and left is t.left and right is t.right:
        return t
    return succ_tower(k, Plus(base, right))
