import pytest
from hypothesis import given, strategies as st

from valueprover.terms import (
    ZERO,
    Plus,
    Succ,
    TermSyntaxError,
    Var,
    format_term,
    normalize,
    numeral,
    occurs,
    occurs_var,
    parse_term,
    replace_leftmost_innermost,
    substitute,
    term_vars,
)

from reference_primitives import (
    normalize_stepwise,
    reduce_leftmost_outermost,
    substitute_rebuilding,
    term_size,
    var_occurs_structurally,
)

NAMES = st.sampled_from(["n", "m", "x'"])


def terms(max_depth=4):
    leaf = st.one_of(st.just(ZERO), st.builds(Var, NAMES))
    return st.recursive(
        leaf,
        lambda inner: st.one_of(st.builds(Succ, inner), st.builds(Plus, inner, inner)),
        max_leaves=12,
    )


def test_parse_examples():
    assert parse_term("Zero") == ZERO
    assert parse_term("Succ(Zero)") == Succ(ZERO)
    assert parse_term("Plus(Var(n),Zero)") == Plus(Var("n"), ZERO)


def test_parse_error_carries_position():
    with pytest.raises(TermSyntaxError) as err:
        parse_term("Plus(Zero;Zero)")
    assert err.value.position == 9
    with pytest.raises(TermSyntaxError):
        parse_term("Succ(Zero")
    with pytest.raises(TermSyntaxError):
        parse_term("Zero junk")


@given(terms())
def test_format_parse_round_trip(t):
    assert parse_term(format_term(t)) == t


def test_numeral():
    assert numeral(0) == ZERO
    assert numeral(2) == Succ(Succ(ZERO))
    assert term_size(numeral(4)) == 5


def test_vars_and_substitute():
    t = Plus(Var("n"), Succ(Var("m")))
    assert term_vars(t) == ("n", "m")
    assert substitute(t, "n", ZERO) == Plus(ZERO, Succ(Var("m")))
    assert occurs(t, Var("m"))
    assert not occurs(t, Var("k"))


def test_normalize_rules():
    # Plus(Zero, n) -> n and Plus(Succ(m), n) -> Succ(Plus(m, n))
    assert normalize(Plus(ZERO, Var("n"))) == Var("n")
    assert normalize(Plus(Succ(ZERO), Var("n"))) == Succ(Var("n"))
    assert normalize(Plus(numeral(2), numeral(3))) == numeral(5)
    stuck = Plus(Var("n"), numeral(1))
    assert normalize(stuck) == stuck


def test_reduction_is_leftmost_outermost():
    t = Plus(Succ(ZERO), Plus(ZERO, ZERO))
    assert reduce_leftmost_outermost(t) == Succ(Plus(ZERO, Plus(ZERO, ZERO)))


@given(terms())
def test_normalize_reaches_fixpoint(t):
    assert reduce_leftmost_outermost(normalize(t)) is None


@given(terms())
def test_normalize_matches_the_stepwise_reduction(t):
    normal = normalize(t)
    assert normal == normalize_stepwise(t)
    # a normal term comes back as the very object, any other as a new one
    assert (normal is t) == (reduce_leftmost_outermost(t) is None)
    assert normalize(normal) is normal


@given(terms(), NAMES, terms())
def test_substitute_matches_the_rebuilding_reference(t, name, replacement):
    assert substitute(t, name, replacement) == substitute_rebuilding(t, name, replacement)
    if name not in term_vars(t):
        assert substitute(t, name, replacement) is t


@given(terms(), NAMES)
def test_occurs_var_matches_structural_occurrence(t, name):
    assert occurs_var(t, name) == var_occurs_structurally(t, name)


def test_format_term_walks_succ_chains_without_recursion():
    deep = numeral(5000)
    assert format_term(deep) == "Succ(" * 5000 + "Zero" + ")" * 5000
    assert format_term(Succ(Plus(Var("n"), numeral(2)))) == "Succ(Plus(Var(n),Succ(Succ(Zero))))"


def test_replace_leftmost_innermost_scans_depth_first():
    target = Plus(Var("n"), ZERO)
    t = Succ(Plus(Plus(Var("n"), ZERO), ZERO))
    # the inner occurrence is replaced, not the outer Plus(...,Zero) shape
    assert replace_leftmost_innermost(t, target, Var("n")) == Succ(Plus(Var("n"), ZERO))
    assert replace_leftmost_innermost(t, Var("k"), ZERO) is None
