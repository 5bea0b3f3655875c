"""The deterministic equational proving environment.

An Obligation is one open goal: not-yet-introduced binders, an ordered
context of introduced variables and hypothesis equations, and a goal
equation. A Hyperstate is the ordered list of all open obligations; tactics
always apply to the first one, so a linear script is unambiguous.

A replay trace records each step of a script as (before, tactic, after).
discharges reads from it the steps that close each obligation: training
cuts its sub-proof tasks from those spans and learns true targets from them.

All operations are pure functions of immutable values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator

from .terms import (
    ZERO,
    Succ,
    Term,
    TermSyntaxError,
    Var,
    _expect,
    format_term,
    is_identifier,
    normalize,
    occurs_var,
    parse_term_at,
    replace_leftmost_innermost,
    substitute,
    term_vars,
)

__all__ = [
    "ContextVar",
    "Hypothesis",
    "Obligation",
    "Hyperstate",
    "Tactic",
    "ProofScript",
    "Theorem",
    "TacticError",
    "ReplayError",
    "TEMPLATES",
    "TEMPLATE_INDEX",
    "ARG_TEMPLATES",
    "PLAIN_TACTICS",
    "argument_tactic",
    "CACHE_SIZE",
    "cache_put",
    "format_obligation",
    "parse_obligation",
    "parse_tactic",
    "format_script",
    "parse_script",
    "apply_tactic",
    "step_hyperstate",
    "replay_script",
    "script_is_valid",
    "discharges",
    "applicable_among",
    "enumerate_applicable",
]

TEMPLATES = ("intros", "induction", "simpl", "rewrite", "f_equal", "reflexivity")
TEMPLATE_INDEX = {name: i for i, name in enumerate(TEMPLATES)}
ARG_TEMPLATES = frozenset({"induction", "rewrite"})

# Entry limit of every cache the package keeps for the life of a process or
# a training run.
CACHE_SIZE = 65536


def cache_put(cache: dict, key, value) -> None:
    """Store into a dict cache holding at most CACHE_SIZE entries, evicting
    the oldest entry when it is full."""
    if len(cache) >= CACHE_SIZE:
        del cache[next(iter(cache))]
    cache[key] = value


@dataclass(frozen=True, slots=True)
class ContextVar:
    name: str


@dataclass(frozen=True, slots=True)
class Hypothesis:
    name: str
    lhs: Term
    rhs: Term


@dataclass(frozen=True, slots=True)
class Obligation:
    binders: tuple[str, ...]
    context: tuple[ContextVar | Hypothesis, ...]
    goal_lhs: Term
    goal_rhs: Term
    # format_obligation(self): set at construction for a child that only
    # changes its parent's goal when the parent's text is known (_with_goal),
    # else filled in by the first canonical() call. Left out of equality and
    # repr, which stay structural.
    _canonical: str | None = field(default=None, init=False, repr=False, compare=False)

    def canonical(self) -> str:
        text = self._canonical
        if text is None:
            text = format_obligation(self)
            object.__setattr__(self, "_canonical", text)
        return text

    # Defined here, so the dataclass keeps it. Equal obligations format to
    # the same text, and a str caches its own hash, so after the first
    # canonical() every cache probe costs one cached string hash instead of
    # a walk over the term trees.
    def __hash__(self) -> int:
        return hash(self.canonical())

    def context_vars(self) -> tuple[str, ...]:
        return tuple(e.name for e in self.context if isinstance(e, ContextVar))

    def hypotheses(self) -> tuple[Hypothesis, ...]:
        return tuple(e for e in self.context if isinstance(e, Hypothesis))

    def names_in_use(self) -> frozenset[str]:
        names = set(self.binders)
        for entry in self.context:
            names.add(entry.name)
            if isinstance(entry, Hypothesis):
                names.update(term_vars(entry.lhs))
                names.update(term_vars(entry.rhs))
        names.update(term_vars(self.goal_lhs))
        names.update(term_vars(self.goal_rhs))
        return frozenset(names)


@dataclass(frozen=True, slots=True)
class Hyperstate:
    """All open obligations, in script order.

    Equality is structural: the same obligations in the same order, which
    is the order replay needs. Search and the oracle dedupe by
    canonical_key() instead, the multiset of the obligations' canonical
    forms.
    """

    obligations: tuple[Obligation, ...] = ()

    @property
    def is_empty(self) -> bool:
        return not self.obligations

    @property
    def first(self) -> Obligation:
        if not self.obligations:
            raise TacticError("no open obligations")
        return self.obligations[0]

    def canonical_key(self) -> tuple[str, ...]:
        obligations = self.obligations
        if len(obligations) == 1:
            return (obligations[0].canonical(),)
        return tuple(sorted(ob.canonical() for ob in obligations))


@dataclass(frozen=True, slots=True)
class Tactic:
    template: str
    argument: str | None = None

    def __post_init__(self) -> None:
        if self.template not in TEMPLATES:
            raise ValueError(f"unknown tactic template {self.template!r}")
        if self.template in ARG_TEMPLATES:
            if self.argument is None:
                raise ValueError(f"{self.template} requires an argument")
            if not is_identifier(self.argument):
                raise ValueError(f"bad tactic argument {self.argument!r}")
        elif self.argument is not None:
            raise ValueError(f"{self.template} takes no argument")

    def __str__(self) -> str:
        if self.argument is None:
            return self.template
        return f"{self.template} {self.argument}"


# One shared tactic per template that takes no argument, for
# enumerate_applicable and the predictor's argument rule.
PLAIN_TACTICS = {template: Tactic(template) for template in TEMPLATES if template not in ARG_TEMPLATES}


@lru_cache(maxsize=CACHE_SIZE)
def argument_tactic(template: str, argument: str) -> Tactic:
    """One shared tactic per (template, argument), for enumerate_applicable
    and the predictor's argument rule: each pair is checked once, not once
    per expansion or prediction."""
    return Tactic(template, argument)


@dataclass(frozen=True, slots=True)
class ProofScript:
    steps: tuple[Tactic, ...] = ()

    def __len__(self) -> int:
        return len(self.steps)

    def __str__(self) -> str:
        return format_script(self)


@dataclass(frozen=True, slots=True)
class Theorem:
    """A named statement: binders plus a goal, with an empty context."""

    id: str
    statement: Obligation

    def __post_init__(self) -> None:
        if self.statement.context:
            raise ValueError("a theorem statement must have an empty context")


class TacticError(Exception):
    """An inapplicable tactic; the message names the violated precondition."""


class ReplayError(Exception):
    """step_index counts the steps that replayed: a failing tactic's index, or the whole script."""

    def __init__(self, step_index: int, cause: str):
        super().__init__(f"script failed after {step_index} replayed steps: {cause}")
        self.step_index = step_index


# ---------------------------------------------------------------------------
# Canonical text form
#
#   obligation := ["forall" ident+ ","] [entry ("," entry)*] "|-" equation
#   entry      := ident | ident ":" equation        (variable / hypothesis)
#   equation   := term "=" term
#
# with the exact spacing produced by format_obligation; e.g.
#   forall n, |- Plus(Var(n),Zero) = Var(n)
#   n', IH_n : Plus(Var(n'),Zero) = Var(n') |- Plus(Succ(Var(n')),Zero) = Succ(Var(n'))
# ---------------------------------------------------------------------------


def format_obligation(ob: Obligation) -> str:
    parts = []
    if ob.binders:
        parts.append("forall " + " ".join(ob.binders) + ", ")
    entries = []
    for entry in ob.context:
        if isinstance(entry, ContextVar):
            entries.append(entry.name)
        else:
            entries.append(f"{entry.name} : {format_term(entry.lhs)} = {format_term(entry.rhs)}")
    if entries:
        parts.append(", ".join(entries) + " ")
    parts.append(f"|- {format_term(ob.goal_lhs)} = {format_term(ob.goal_rhs)}")
    return "".join(parts)


def _parse_ident(text: str, pos: int) -> tuple[str, int]:
    end = pos
    while end < len(text) and (text[end].isalnum() or text[end] in "_'"):
        end += 1
    name = text[pos:end]
    if not is_identifier(name):
        raise TermSyntaxError("expected an identifier", pos)
    return name, end


def parse_obligation(text: str) -> Obligation:
    pos = 0
    binders: list[str] = []
    if text.startswith("forall "):
        pos = len("forall ")
        while True:
            name, pos = _parse_ident(text, pos)
            binders.append(name)
            if text.startswith(", ", pos):
                pos += 2
                break
            pos = _expect(text, pos, " ")
    context: list[ContextVar | Hypothesis] = []
    while not text.startswith("|- ", pos):
        name, pos = _parse_ident(text, pos)
        if text.startswith(" : ", pos):
            pos += 3
            lhs, pos = parse_term_at(text, pos)
            pos = _expect(text, pos, " = ")
            rhs, pos = parse_term_at(text, pos)
            context.append(Hypothesis(name, lhs, rhs))
        else:
            context.append(ContextVar(name))
        if text.startswith(", ", pos):
            pos += 2
        else:
            pos = _expect(text, pos, " ")
    pos = _expect(text, pos, "|- ")
    goal_lhs, pos = parse_term_at(text, pos)
    pos = _expect(text, pos, " = ")
    goal_rhs, pos = parse_term_at(text, pos)
    if pos != len(text):
        raise TermSyntaxError("trailing input after obligation", pos)
    ob = Obligation(tuple(binders), tuple(context), goal_lhs, goal_rhs)
    _validate_obligation(ob)
    return ob


def _validate_obligation(ob: Obligation) -> None:
    seen: set[str] = set()
    for name in ob.binders + tuple(e.name for e in ob.context):
        if name in seen:
            raise TermSyntaxError(f"duplicate name {name!r} in obligation", 0)
        seen.add(name)
    bound = set(ob.binders) | set(ob.context_vars())
    used = set(term_vars(ob.goal_lhs)) | set(term_vars(ob.goal_rhs))
    for hyp in ob.hypotheses():
        used |= set(term_vars(hyp.lhs)) | set(term_vars(hyp.rhs))
    free = used - bound
    if free:
        raise TermSyntaxError(f"unbound variables: {', '.join(sorted(free))}", 0)


def parse_tactic(text: str) -> Tactic:
    parts = text.split(" ")
    if len(parts) == 1:
        return Tactic(parts[0])
    if len(parts) == 2:
        return Tactic(parts[0], parts[1])
    raise ValueError(f"malformed tactic {text!r}")


def format_script(script: ProofScript) -> str:
    return "; ".join(str(t) for t in script.steps)


def parse_script(text: str) -> ProofScript:
    if not text:
        return ProofScript()
    return ProofScript(tuple(parse_tactic(part) for part in text.split("; ")))


# ---------------------------------------------------------------------------
# Tactic semantics
# ---------------------------------------------------------------------------


def _fresh_name(base: str, taken: frozenset[str]) -> str:
    name = base
    while name in taken or not is_identifier(name):
        name += "'"
    return name


def _apply_intros(ob: Obligation) -> tuple[Obligation, ...]:
    if not ob.binders:
        raise TacticError("intros: the obligation has no leading binders")
    new_context = ob.context + tuple(ContextVar(b) for b in ob.binders)
    return (Obligation((), new_context, ob.goal_lhs, ob.goal_rhs),)


def _apply_induction(ob: Obligation, var: str) -> tuple[Obligation, ...]:
    if ob.binders:
        raise TacticError("induction: binders must be introduced first")
    if var not in ob.context_vars():
        raise TacticError(f"induction: {var} is not an introduced variable")
    if not (occurs_var(ob.goal_lhs, var) or occurs_var(ob.goal_rhs, var)):
        raise TacticError(f"induction: {var} does not occur in the goal")
    for hyp in ob.hypotheses():
        if occurs_var(hyp.lhs, var) or occurs_var(hyp.rhs, var):
            raise TacticError(f"induction: {var} occurs in hypothesis {hyp.name}")
    taken = ob.names_in_use()
    fresh = _fresh_name(var + "'", taken)
    ih_name = _fresh_name("IH_" + var, taken | {fresh})

    base_context = tuple(e for e in ob.context if e.name != var)
    base = Obligation(
        (),
        base_context,
        substitute(ob.goal_lhs, var, ZERO),
        substitute(ob.goal_rhs, var, ZERO),
    )
    step_context = tuple(ContextVar(fresh) if e.name == var else e for e in ob.context)
    ih = Hypothesis(ih_name, substitute(ob.goal_lhs, var, Var(fresh)), substitute(ob.goal_rhs, var, Var(fresh)))
    step = Obligation(
        (),
        step_context + (ih,),
        substitute(ob.goal_lhs, var, Succ(Var(fresh))),
        substitute(ob.goal_rhs, var, Succ(Var(fresh))),
    )
    return (base, step)


def _with_goal(ob: Obligation, lhs: Term, rhs: Term) -> Obligation:
    """`ob` with its goal replaced. When `ob`'s text is already known, the
    child's is set too: `ob`'s text up to the goal, which the child shares,
    then the new goal. No identifier or term text contains "|- ", so its
    first occurrence is the separator."""
    child = Obligation(ob.binders, ob.context, lhs, rhs)
    text = ob._canonical
    if text is not None:
        head = text[: text.index("|- ") + 3]
        object.__setattr__(child, "_canonical", f"{head}{format_term(lhs)} = {format_term(rhs)}")
    return child


def _apply_simpl(ob: Obligation) -> tuple[Obligation, ...]:
    lhs = normalize(ob.goal_lhs)
    rhs = normalize(ob.goal_rhs)
    if lhs is ob.goal_lhs and rhs is ob.goal_rhs:
        raise TacticError("simpl: the goal is already in normal form")
    return (_with_goal(ob, lhs, rhs),)


def _apply_rewrite(ob: Obligation, hyp_name: str) -> tuple[Obligation, ...]:
    hyp = next((h for h in ob.hypotheses() if h.name == hyp_name), None)
    if hyp is None:
        raise TacticError(f"rewrite: no hypothesis named {hyp_name}")
    new_lhs = replace_leftmost_innermost(ob.goal_lhs, hyp.lhs, hyp.rhs)
    if new_lhs is not None:
        return (_with_goal(ob, new_lhs, ob.goal_rhs),)
    new_rhs = replace_leftmost_innermost(ob.goal_rhs, hyp.lhs, hyp.rhs)
    if new_rhs is not None:
        return (_with_goal(ob, ob.goal_lhs, new_rhs),)
    raise TacticError(f"rewrite: left-hand side of {hyp_name} does not occur in the goal")


def _apply_f_equal(ob: Obligation) -> tuple[Obligation, ...]:
    if not (isinstance(ob.goal_lhs, Succ) and isinstance(ob.goal_rhs, Succ)):
        raise TacticError("f_equal: both goal sides must be Succ applications")
    return (_with_goal(ob, ob.goal_lhs.child, ob.goal_rhs.child),)


def _apply_reflexivity(ob: Obligation) -> tuple[Obligation, ...]:
    if ob.goal_lhs != ob.goal_rhs:
        raise TacticError("reflexivity: goal sides are not syntactically equal")
    return ()


def _apply(ob: Obligation, tactic: Tactic) -> tuple[Obligation, ...]:
    """Apply one tactic to one obligation.

    Returns the obligations it produces, in order; an empty tuple means the
    obligation was discharged. Raises TacticError when inapplicable.
    """
    if tactic.template == "intros":
        return _apply_intros(ob)
    if tactic.template == "induction":
        return _apply_induction(ob, tactic.argument)
    if tactic.template == "simpl":
        return _apply_simpl(ob)
    if tactic.template == "rewrite":
        return _apply_rewrite(ob, tactic.argument)
    if tactic.template == "f_equal":
        return _apply_f_equal(ob)
    if tactic.template == "reflexivity":
        return _apply_reflexivity(ob)
    raise TacticError(f"unknown template {tactic.template}")


# The tactic rules memoized per (obligation, tactic) pair, for the callers
# that meet the same pair again: replay, episodes and the predictor's action
# caches. A raised TacticError is not stored. enumerate_applicable calls the
# uncached _apply: it keeps closed expansions in a memo of its own, and the
# oracle keeps the rest for one search.
apply_tactic = lru_cache(maxsize=CACHE_SIZE)(_apply)


def step_hyperstate(h: Hyperstate, tactic: Tactic) -> Hyperstate:
    """Apply the tactic to the first obligation and splice in its results."""
    produced = apply_tactic(h.first, tactic)
    return Hyperstate(produced + h.obligations[1:])


def replay_script(thm: Theorem, script: ProofScript) -> tuple[tuple[Hyperstate, Tactic, Hyperstate], ...]:
    """Fold the script over the theorem's initial hyperstate.

    Returns the full (before, tactic, after) transition trace; the script is
    valid iff the final hyperstate is empty.
    """
    state = Hyperstate((thm.statement,))
    trace = []
    for index, tactic in enumerate(script.steps):
        try:
            after = step_hyperstate(state, tactic)
        except TacticError as err:
            raise ReplayError(index, str(err)) from err
        trace.append((state, tactic, after))
        state = after
    return tuple(trace)


def _closes_proof(trace) -> bool:
    """A replay trace closes the proof iff it has a step and its last
    hyperstate is empty."""
    return bool(trace) and trace[-1][2].is_empty


def script_is_valid(thm: Theorem, script: ProofScript) -> bool:
    try:
        return _closes_proof(replay_script(thm, script))
    except ReplayError:
        return False


def discharges(trace) -> Iterator[tuple[int, int]]:
    """(start, end) for each step of a replay trace whose obligation the
    trace discharges, in the order they close: steps start to end discharge
    the obligation of step start together with everything it spawns.

    Each step acts on the first obligation, so step start's obligation is
    discharged after the first step that leaves only the obligations behind
    it; one pass with a stack of open steps finds each end. A step still
    open when the trace ends, as in an episode cut by its budget or a dead
    end, is never yielded.
    """
    open_steps: list[tuple[int, int]] = []  # (step, obligations left once its obligation is discharged)
    for index, (before, _, after) in enumerate(trace):
        open_steps.append((index, len(before.obligations) - 1))
        while open_steps and open_steps[-1][1] == len(after.obligations):
            yield open_steps.pop()[0], index + 1


def _applicable(ob: Obligation, tactics: Iterable[Tactic], apply) -> list[tuple[Tactic, tuple[Obligation, ...]]]:
    pairs = []
    for tactic in tactics:
        try:
            pairs.append((tactic, apply(ob, tactic)))
        except TacticError:
            continue
    return pairs


def applicable_among(ob: Obligation, tactics: Iterable[Tactic]) -> list[tuple[Tactic, tuple[Obligation, ...]]]:
    """The given tactics that apply to `ob` without error, in the given
    order, with their results, through apply_tactic's cache."""
    return _applicable(ob, tactics, apply_tactic)


def _expand(ob: Obligation) -> tuple[tuple[Tactic, tuple[Obligation, ...]], ...]:
    candidates: list[Tactic] = [PLAIN_TACTICS["intros"]]
    candidates.extend(argument_tactic("induction", v) for v in ob.context_vars())
    candidates.append(PLAIN_TACTICS["simpl"])
    candidates.extend(argument_tactic("rewrite", h.name) for h in ob.hypotheses())
    candidates.append(PLAIN_TACTICS["f_equal"])
    candidates.append(PLAIN_TACTICS["reflexivity"])
    return tuple(_applicable(ob, candidates, _apply))


# The expansions of closed obligations, kept for the process: these are the
# ones that recur across searches.
_expand_closed = lru_cache(maxsize=CACHE_SIZE)(_expand)


def enumerate_applicable(ob: Obligation) -> tuple[tuple[Tactic, tuple[Obligation, ...]], ...]:
    """Every tactic that applies to `ob` without error, with its results.

    Candidates follow the fixed template order, arguments in context order,
    and are tried by the uncached _apply, not apply_tactic. A closed
    obligation (no binders, no context) is expanded once per process: its
    children are closed too, as intros, induction and rewrite each need a
    binder or a context entry, so the memo holds only name-free equations.
    Any other obligation is expanded afresh on each call.
    """
    if ob.binders or ob.context:
        return _expand(ob)
    return _expand_closed(ob)
