"""Step-by-step reference versions of the term and expansion primitives.

These are the straightforward forms the package used before its one-pass
`normalize`, its sharing `substitute`, its name-based occurrence check, its
shared argument-free tactics, its one-pass sub-proof extraction, the
frame stack its training episodes kept before they returned a replay
trace, the task filter that replayed each proof to extract its
sub-proofs and then walked each task's script again to check it, and the
corpus-to-model pipeline as the command line composed it before it moved
into the trainer. The differential tests in test_terms.py, test_env.py and
test_trainer.py hold the package's versions to them. `term_size` serves the
reference featurizer in test_predictor.py; the package has no caller of it.
"""

from valueprover.corpus import split_corpus
from valueprover.env import (
    ContextVar,
    Hyperstate,
    Hypothesis,
    Obligation,
    ProofScript,
    ReplayError,
    Tactic,
    TacticError,
    _apply_f_equal,
    _apply_intros,
    _apply_reflexivity,
    _apply_rewrite,
    _closes_proof,
    _fresh_name,
    replay_script,
)
from valueprover.predictor import ActionCache, train_predictor
from valueprover.terms import ZERO, Plus, Succ, Term, Var, Zero, occurs
from valueprover.trainer import TrainingTask, train


def term_size(t: Term) -> int:
    """The number of constructors in `t`; the predictor's size features
    count them in one pass with its other goal features."""
    if isinstance(t, (Zero, Var)):
        return 1
    if isinstance(t, Succ):
        return 1 + term_size(t.child)
    if isinstance(t, Plus):
        return 1 + term_size(t.left) + term_size(t.right)
    raise TypeError(f"not a term: {t!r}")


def _reduce_at_root(t: Term) -> Term | None:
    # The two computation rules: Plus(Zero,n) -> n, Plus(Succ(m),n) -> Succ(Plus(m,n)).
    if isinstance(t, Plus):
        if isinstance(t.left, Zero):
            return t.right
        if isinstance(t.left, Succ):
            return Succ(Plus(t.left.child, t.right))
    return None


def reduce_leftmost_outermost(t: Term) -> Term | None:
    """One reduction step at the leftmost-outermost redex, or None if normal."""
    root = _reduce_at_root(t)
    if root is not None:
        return root
    if isinstance(t, Succ):
        inner = reduce_leftmost_outermost(t.child)
        if inner is not None:
            return Succ(inner)
    elif isinstance(t, Plus):
        left = reduce_leftmost_outermost(t.left)
        if left is not None:
            return Plus(left, t.right)
        right = reduce_leftmost_outermost(t.right)
        if right is not None:
            return Plus(t.left, right)
    return None


def normalize_stepwise(t: Term) -> Term:
    """Reduce to the (unique) normal form; terminates because every step
    strictly shrinks the summed size of left Plus arguments."""
    while True:
        step = reduce_leftmost_outermost(t)
        if step is None:
            return t
        t = step


def substitute_rebuilding(t: Term, name: str, replacement: Term) -> Term:
    if isinstance(t, Var):
        return replacement if t.name == name else t
    if isinstance(t, Succ):
        return Succ(substitute_rebuilding(t.child, name, replacement))
    if isinstance(t, Plus):
        return Plus(substitute_rebuilding(t.left, name, replacement), substitute_rebuilding(t.right, name, replacement))
    return t


def var_occurs_structurally(t: Term, name: str) -> bool:
    """Whether Var(name) occurs in `t`, by dataclass equality at every node."""
    return occurs(t, Var(name))


def _apply_induction(ob: Obligation, var: str) -> tuple[Obligation, ...]:
    if ob.binders:
        raise TacticError("induction: binders must be introduced first")
    if var not in ob.context_vars():
        raise TacticError(f"induction: {var} is not an introduced variable")
    target = Var(var)
    if not (occurs(ob.goal_lhs, target) or occurs(ob.goal_rhs, target)):
        raise TacticError(f"induction: {var} does not occur in the goal")
    for hyp in ob.hypotheses():
        if occurs(hyp.lhs, target) or occurs(hyp.rhs, target):
            raise TacticError(f"induction: {var} occurs in hypothesis {hyp.name}")
    taken = ob.names_in_use()
    fresh = _fresh_name(var + "'", taken)
    ih_name = _fresh_name("IH_" + var, taken | {fresh})
    substitute = substitute_rebuilding

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


def _apply_simpl(ob: Obligation) -> tuple[Obligation, ...]:
    lhs = normalize_stepwise(ob.goal_lhs)
    rhs = normalize_stepwise(ob.goal_rhs)
    if lhs == ob.goal_lhs and rhs == ob.goal_rhs:
        raise TacticError("simpl: the goal is already in normal form")
    return (Obligation(ob.binders, ob.context, lhs, rhs),)


def apply_tactic(ob: Obligation, tactic: Tactic) -> tuple[Obligation, ...]:
    """Uncached tactic semantics, with the reference simpl and induction."""
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


def enumerate_applicable(ob: Obligation) -> tuple[tuple[Tactic, tuple[Obligation, ...]], ...]:
    """Every applicable tactic with its results: new Tactic objects for each
    obligation, tried in the fixed template order, arguments in context
    order."""
    candidates: list[Tactic] = [Tactic("intros")]
    candidates.extend(Tactic("induction", v) for v in ob.context_vars())
    candidates.append(Tactic("simpl"))
    candidates.extend(Tactic("rewrite", h.name) for h in ob.hypotheses())
    candidates.append(Tactic("f_equal"))
    candidates.append(Tactic("reflexivity"))
    pairs = []
    for tactic in candidates:
        try:
            pairs.append((tactic, apply_tactic(ob, tactic)))
        except TacticError:
            continue
    return tuple(pairs)


def extract_subproof_tasks(thm, script) -> list[tuple[Obligation, ProofScript]]:
    """Sub-proof tasks by recursion: after the replay, each obligation
    applies its step again and discharges its children in turn, and its
    task is the slice of the script they consumed."""
    trace = replay_script(thm, script)
    final = trace[-1][2] if trace else Hyperstate((thm.statement,))
    if not final.is_empty:
        raise ReplayError(len(script.steps), "script does not close the proof")

    steps = script.steps
    tasks = []

    def discharge(ob: Obligation, start: int) -> int:
        slot = len(tasks)
        tasks.append(None)
        end = start + 1
        for child in apply_tactic(ob, steps[start]):
            end = discharge(child, end)
        tasks[slot] = (ob, ProofScript(steps[start:end]))
        return end

    assert discharge(thm.statement, 0) == len(steps)
    return tasks


def discharges(trace) -> list[tuple[int, int]]:
    """(start, end) of each obligation the trace discharges, in the order
    they close, by the frame stack training episodes kept while they played:
    each step opens a frame holding its obligation, its start and the number
    of obligations behind it, and after each step every frame whose count
    is all that is left is closed."""
    discharged = []
    frames: list[tuple[Obligation, int, int]] = []  # (obligation, start step, suffix length)
    steps_done = 0
    for state, _, after in trace:
        frames.append((state.first, steps_done, len(state.obligations) - 1))
        steps_done += 1
        while frames and len(after.obligations) == frames[-1][2]:
            _, start, _ = frames.pop()
            discharged.append((start, steps_done))
    return discharged


def extract_subproof_tasks_by_replay(thm, script) -> list[tuple[Obligation, ProofScript]]:
    """One task per obligation the replay creates, in first-appearance order.

    Each obligation is paired with the exact contiguous slice of the script
    that discharges it together with everything it spawns, as discharges
    finds it, so the task for the initial obligation is the full script and
    a parent's length is 1 + the sum of its children's lengths. The spans
    come from the frame-stack `discharges` above, which test_env.py holds
    to the package's.
    """
    trace = replay_script(thm, script)
    if not _closes_proof(trace):
        raise ReplayError(len(script.steps), "script does not close the proof")
    spans = sorted(discharges(trace))
    return [(trace[start][0].first, ProofScript(script.steps[start:end])) for start, end in spans]


def reproducible_by_walk(task: tuple[Obligation, ProofScript], predictor, n: int) -> bool:
    """True iff every step of the task's script is one of the predictor's
    applicable top-n actions at the corresponding replay state, read from
    the predictor's shared action cache."""
    obligation, script = task
    state = Hyperstate((obligation,))
    for tactic in script.steps:
        if n <= 0:
            return False
        actions = ActionCache.of(predictor, n)(state.first)
        children = next((children for predicted, _, children in actions if predicted == tactic), None)
        if children is None:
            return False
        state = Hyperstate(children + state.obligations[1:])
    if not state.is_empty:
        raise ValueError("task script does not discharge its obligation")
    return True


def prepare_tasks(split, predictor, n: int, config) -> list[TrainingTask]:
    """The task filter as the composition of
    extract_subproof_tasks_by_replay, the length band, reproducible_by_walk
    and the dedupe by canonical text and script."""
    tasks = []
    seen: set[tuple[str, str]] = set()
    for entry in split.train:
        if config.subproof_tasks:
            subproofs = extract_subproof_tasks_by_replay(entry.theorem, entry.proof)
        else:
            subproofs = [(entry.theorem.statement, entry.proof)]
        for obligation, script in subproofs:
            length = len(script.steps)
            if length <= config.min_drop_length or length >= config.max_drop_length:
                continue
            if not reproducible_by_walk((obligation, script), predictor, n):
                continue
            key = (obligation.canonical(), str(script))
            if key in seen:
                continue
            seen.add(key)
            tasks.append(TrainingTask(obligation, script))
    return tasks


def training_pairs(entries):
    """(first obligation, tactic) for every step of the entries' proofs."""
    pairs = []
    for entry in entries:
        for before, tactic, _ in replay_script(entry.theorem, entry.proof):
            pairs.append((before.first, tactic))
    return pairs


def run_training(entries, config):
    """Split the loaded corpus, fit the predictor with 250 epochs at
    learning rate 0.5, and train the model: (model, predictor, report,
    split)."""
    split = split_corpus(entries, config.seed, config.test_ratio)
    if not split.train:
        raise RuntimeError("the training split is empty")
    predictor = train_predictor(training_pairs(split.train), epochs=250, learning_rate=0.5, seed=config.seed)
    model, report = train(split, predictor, config)
    return model, predictor, report, split
