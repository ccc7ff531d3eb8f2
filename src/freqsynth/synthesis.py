"""Top-level synthesis pipeline: translate, product, analyze, assemble.

The analysis lifts each pair onto the product, removes its Fin set,
decomposes the rest into maximal end components, decides each component here
(``accepting_mec``, on ``mecanalysis``'s flow LPs), takes the union of the
winners, and finishes with exact maximal reachability.  Parts and components
are index sets of the product, never copies of it, and a decision is keyed
by index tuples and integers; names appear only in the report and the
simulation output.  The LP solution that accepts a component is kept as the
flows of its witness, which steps the product itself; the simulation sums
rewards over the states that a ``WitnessRun`` returns, a chunk at a time.
"""

from __future__ import annotations

import heapq
import random
from bisect import bisect_right
from fractions import Fraction
from functools import reduce
from math import gcd
from operator import add
from typing import Callable, Iterable, Mapping, Optional

from .dgrma import Dgrma, GbmpCondition, GrmpPair, build_dgrma
from .formula import Formula
from .graph import Component, attractor_policy, can_reach, mec_decomposition, restrict
from .lts import DEFAULT_STATE_CAP
from .mdp import Mdp, MdpError, product_mdp, skip_draws, sure_loop
from .mecanalysis import (
    WitnessRun,
    build_lp,
    build_witness_strategy,
    epoch_length,
    maximize_margin,
)

_ZERO = Fraction(0)
_CHUNK = 4096  # witness steps whose states simulate_global holds at once
_SINK = object()  # simulate_global's mark of a losing sink: no winner, a sure self-loop


class SynthesisError(Exception):
    """Pipeline-level failure (propagated parse or resource errors)."""


def lift_pair(pair: GrmpPair, automaton_component: list) -> tuple[frozenset, GbmpCondition]:
    """Express one acceptance pair over the product: Fin and each Inf set as
    sets of product state indices, and the bounds read at each product
    state's automaton state (``GbmpCondition.at``)."""
    qs, cond = automaton_component, pair.cond
    infs = tuple(s.lift(qs) for s in cond.inf_sets)
    return pair.fin.lift(qs), GbmpCondition(infs, cond.mp_inf, cond.mp_sup, qs)


def winning_union(product: Mdp, lifted: list) -> tuple[frozenset, list]:
    """Union of accepting end components over all pairs.

    ``lifted`` holds (fin set, condition) per pair; returns the winning
    states and, per pair, its winners as (component, accepting LpSolution).
    Pairs that share a Fin set share its restriction and its components.
    A component that misses one of the pair's Inf sets never wins, so it is
    passed over before any key is built.  A decision on the others reads
    only the component and each bound on its states, in
    ``GbmpCondition.restricted``'s integers, so each distinct such key of
    index tuples and integers is decided once per call and reused.

    A rejection also settles, without a solve, every later decision on a
    sub-component whose condition contains each of its bounds restricted to
    that sub-component.  A witness there would be one for the rejected
    decision too: the flows of an end component inside another, extended
    by zero, are flows of the larger one with the same rewards, and each
    keeps meeting the bounds it met, strict ones strictly.

    The flow LPs of one component share their sum and balance rows and
    their start crash, whatever the condition (``mecanalysis.FlowBlock``),
    so each component's block is built and crashed once per call.
    """
    w_states: set = set()
    outcomes = []
    components_of: dict = {}  # fin set -> MECs of the product without it
    decided: dict = {}  # decision key -> (accepted, LpSolution or None)
    rejections: list = []  # (states, actions, condition) of each rejection
    blocks: dict = {}  # component -> its FlowBlock, for this call only
    for fin, cond in lifted:
        winners = []
        components = components_of.get(fin)
        if components is None:
            part = restrict(product, fin)
            components = [] if part is None else mec_decomposition(product, part)
            components_of[fin] = components
        for component in components:
            states = component.states
            if any(inf_set.isdisjoint(states) for inf_set in cond.inf_sets):
                continue  # it misses an Inf set, so it never wins
            key = (states, component.actions, *cond.restricted(states))
            verdict = decided.get(key)
            if verdict is None:
                if _refuted(key, rejections):
                    verdict = (False, None)
                else:
                    verdict = accepting_mec(product, component, cond, blocks)
                    if not verdict[0]:
                        rejections.append((frozenset(states), frozenset(key[1]), cond))
                decided[key] = verdict
            ok, sol = verdict
            if ok:
                winners.append((component, sol))
                w_states.update(states)
        outcomes.append(winners)
    return frozenset(w_states), outcomes


def _refuted(key: tuple, rejections: list) -> bool:
    """Whether a rejection implies the decision ``key``'s: its
    component holds the key's states and actions, and each of its bounds,
    restricted to the key's states, is one of the key's own."""
    states, actions, mp_inf, mp_sup = key
    for rejected_states, rejected_actions, cond in rejections:
        if rejected_states.issuperset(states) and rejected_actions.issuperset(actions):
            inf, sup = cond.restricted(states)
            if set(inf).issubset(mp_inf) and set(sup).issubset(mp_sup):
                return True
    return False


def accepting_mec(
    mdp: Mdp, component: Component, cond: GbmpCondition, blocks: Optional[dict] = None
):
    """Decide whether the condition holds with probability 1 in the end
    component (0 otherwise); returns (answer, witness flows or None).
    ``blocks`` is ``build_lp``'s table of flow blocks.

    The component is rejected at once when it misses an Inf set.  Then the
    margin LP decides (without bounds it is the plain flow system, which
    keeps its start's flow): infeasible rejects, and an optimum accepts with
    that solution as the witness when every bound is non-strict or the
    margin is positive.  Only when strict bounds leave the best margin at 0
    does the slack LP run (``>= 1/2`` with ``> 1/3`` on one reward can have
    margin 0 but slack 1/6), and strict bounds then need positive slack.
    """
    if any(inf_set.isdisjoint(component.states) for inf_set in cond.inf_sets):
        return False, None
    sol = maximize_margin(build_lp(mdp, component, cond, True, blocks))
    if sol is None:
        return False, None
    if not cond.strict() or sol.slack > 0:
        return True, sol
    sol = maximize_margin(build_lp(mdp, component, cond, False, blocks))
    if sol is None or sol.slack == 0:
        return False, None
    return True, sol


def _sparse_solve(rows: list, rhs: list) -> tuple[list, int]:
    """Fraction-free elimination in natural order over integer
    ``{column: value}`` rows; returns the solution as integer numerators
    over one common denominator, the least one.

    The callers pass ``I - P`` over states that reach the target, scaled to
    integers, whose leading principal blocks are nonsingular M-matrices, so
    no pivoting is needed and every pivot stays positive.  Each pivot
    touches only the later rows with an entry in its column: such a row
    becomes ``pivot * row - f * pivot_row`` and is divided by the gcd of its
    entries and its right-hand side.  No entry cancels: an off-diagonal
    update adds two non-positive terms, one of them nonzero, and a Schur
    complement of an M-matrix keeps its diagonal positive.  A zero entry
    would only cost work, and a zero pivot still raises.
    """
    n = len(rows)
    below = [set() for _ in range(n)]  # column -> later rows with an entry
    for r, row in enumerate(rows):
        for c in row:
            if c < r:
                below[c].add(r)
    for k in range(n):
        pivot_row = rows[k]
        pivot = pivot_row.get(k)
        if not pivot:
            raise MdpError("singular linear system in reachability analysis")
        for r in below[k]:
            row = rows[r]
            f = row.pop(k)
            g = gcd(pivot, f)
            a, f = pivot // g, f // g
            if a != 1:
                for c in row:
                    row[c] *= a
            for c, v in pivot_row.items():
                if c == k:
                    continue
                row[c] = row.get(c, 0) - f * v
                if c < r:
                    below[c].add(r)
            b = a * rhs[r] - f * rhs[k]
            g = gcd(b, *row.values())
            if g > 1:
                for c in row:
                    row[c] //= g
                b //= g
            rhs[r] = b
    solved = [0] * n
    scale = 1
    for k in reversed(range(n)):
        row = rows[k]
        # pivot * x_k * scale == numerator, with the later x already over scale
        numerator = rhs[k] * scale - sum(v * solved[c] for c, v in row.items() if c != k)
        g = gcd(numerator, row[k])
        m = row[k] // g
        if m != 1:
            scale *= m
            for c in range(k + 1, n):
                solved[c] *= m
        solved[k] = numerator // g
    return solved, scale


def _evaluate_policy(mdp: Mdp, policy: list, target: set, maybe: list) -> tuple[list, int]:
    """Exact reach probabilities of a memoryless deterministic policy, as
    integer numerators over one common denominator.  ``maybe`` lists, in
    index order, the states outside the target that reach it under the
    policy; every other state outside the target has value 0."""
    pos = {s: i for i, s in enumerate(maybe)}
    rows = []
    rhs = []
    for s in maybe:
        den, pairs = mdp.actions[policy[s]].weights
        row = {pos[s]: den}
        b = 0
        for t, w in pairs:
            if t in target:
                b += w
            elif t in pos:
                row[pos[t]] = row.get(pos[t], 0) - w
        rows.append(row)
        rhs.append(b)
    solved, scale = _sparse_solve(rows, rhs)
    values = [0] * len(mdp)
    for s in target:
        values[s] = scale
    for s, v in zip(maybe, solved):
        values[s] = v
    return values, scale


def _check_selector(
    mdp: Mdp, selector: list, values: list, scale: int, target: set
) -> None:
    """Raise unless ``values``, numerators over ``scale``, are the selector's
    own reach probabilities: 1 on the target, the Bellman equation of the
    selected action on the other states that reach the target under it, and
    0 elsewhere.  That system is regular, so this equals comparing with a
    full evaluation."""
    reach = can_reach(mdp, target, set(selector))
    for s, value in enumerate(values):
        if s in target:
            holds = value == scale
        elif s in reach:
            den, pairs = mdp.actions[selector[s]].weights
            holds = sum(w * values[t] for t, w in pairs) == den * value
        else:
            holds = value == 0
        if not holds:
            raise MdpError("extracted selector does not realize the optimal values")


def max_reach(mdp: Mdp, targets: Iterable[int]) -> tuple[dict, list]:
    """Exact maximal reachability probabilities plus an optimal selector: per
    state index, its value and its action index.

    Policy iteration with exact sparse policy evaluation, started from the
    attractor policy toward the target.  The attractor covers exactly the
    states whose maximal probability is positive, the maybe-states, and its
    policy reaches the target from each of them, so the rest are the zero
    states and the first evaluation already covers every maybe-state.  A
    strict improvement keeps that: were some maybe-states kept from the
    target by the improved policy, those of them at the largest value would
    be closed under it and untouched by the improvement, so the old policy
    would keep them from the target too.  Each evaluation therefore solves
    over the same maybe-states, and the improvement fixpoint is the unique
    Bellman solution.  Values are integer numerators over the evaluation's common
    denominator, and a backup ``sum(w * values[t]) / den`` over an action's
    integer weights is compared by cross-multiplying, so every comparison is
    exact and the values become ``Fraction`` only in the result.  The last
    improvement scan's backups, taken under the final values, mark the
    optimal actions.  The selector keeps ``act[s][0]`` on target and zero
    states.  Every other state takes an optimal action that moves strictly
    closer to the target: the states join in index-order passes, each once
    an optimal action has a successor that joined before it, and takes the
    first such action.  The passes are replayed from ``Mdp.pre`` with a
    heap, and a linear certificate checks that the selector realizes the
    values.
    """
    n = len(mdp)
    target = set(targets)
    attractor = attractor_policy(mdp, target, range(len(mdp.actions)))
    maybe = sorted(attractor)
    policy = [attractor.get(s, act[0]) for s, act in enumerate(mdp.act)]
    backups = [0] * len(mdp.actions)  # action -> backup numerator, last scan
    values, scale = _evaluate_policy(mdp, policy, target, maybe)
    for _ in range(64 + 4 * n * max(len(a) for a in mdp.act)):
        improved = False
        for s in maybe:
            best_num, best_den = values[s], 1  # best backup is best_num / best_den
            best_ai = None
            for ai in mdp.act[s]:
                den, pairs = mdp.actions[ai].weights
                num = backups[ai] = sum(w * values[t] for t, w in pairs)
                if num * best_den > best_num * den:
                    best_num, best_den = num, den
                    best_ai = ai
            if best_ai is not None:
                policy[s] = best_ai
                improved = True
        if not improved:
            break
        values, scale = _evaluate_policy(mdp, policy, target, maybe)
    else:
        raise MdpError("policy iteration failed to converge")

    optimal = [False] * len(mdp.actions)
    for s in maybe:
        for ai in mdp.act[s]:
            optimal[ai] = backups[ai] == mdp.actions[ai].weights[0] * values[s]
    selector = list(policy)
    joined: dict = {}  # state -> (pass, index) it joined at; targets pass 0
    heap = [(0, t) for t in sorted(target)]
    while heap:
        key = heapq.heappop(heap)
        k, t = key
        if t in joined:
            continue
        if k:
            selector[t] = next(
                ai for ai in mdp.act[t] if optimal[ai] and any(
                    joined.get(v, key) < key for v, _ in mdp.actions[ai].weights[1]
                )
            )
        joined[t] = key
        # A later index joins in this pass, an earlier one in the next; a
        # target's predecessors join from pass 1.
        for ai in mdp.pre[t]:
            u = mdp.actions[ai].source
            if optimal[ai] and u not in joined:
                heapq.heappush(heap, (k + (k == 0 or u < t), u))
    if len(joined) != len(target) + len(maybe):
        raise MdpError("failed to extract a proper optimal selector")
    _check_selector(mdp, selector, values, scale, target)

    return {s: Fraction(v, scale) for s, v in enumerate(values)}, selector


class GlobalStrategy:
    """Reachability selector outside the winning union, witnesses inside."""

    __slots__ = ("reach", "winners", "state_to_winner")

    def __init__(self, reach: list, winners: list, state_to_winner: Mapping):
        self.reach = reach  # product state index -> action index
        self.winners = winners  # Strategy, each on its winning component
        self.state_to_winner = state_to_winner  # product state index -> index into winners


class SynthesisReport:
    __slots__ = (
        "formula", "probability", "threshold", "strict", "threshold_met",
        "winning_states", "outcomes", "strategy", "automaton", "product",
    )

    def __init__(
        self,
        formula: Formula,
        probability: Fraction,
        threshold: Fraction,
        strict: bool,
        threshold_met: bool,
        winning_states: frozenset,
        outcomes: list,
        strategy: Optional[GlobalStrategy],
        automaton: Dgrma,
        product: Mdp,
    ):
        self.formula = formula
        self.probability = probability
        self.threshold = threshold
        self.strict = strict
        self.threshold_met = threshold_met
        self.winning_states = winning_states
        self.outcomes = outcomes  # per pair, its winners as (component, LpSolution)
        self.strategy = strategy
        self.automaton = automaton
        self.product = product

    def to_text(self) -> str:
        lines = [
            f"formula: {self.formula}",
            f"automaton_states: {len(self.automaton)}",
            f"automaton_pairs: {len(self.automaton.pairs)}",
            f"product_states: {len(self.product)}",
            f"winning_states: {len(self.winning_states)}",
        ]
        for k, winners in enumerate(self.outcomes):
            mecs = "; ".join(
                "{" + ",".join(sorted(self.product.states[s] for s in c.states)) + "}"
                for c, _ in winners
            )
            lines.append(f"pair_{k}_winning_mecs: {mecs or '-'}")
        lines.append(
            f"max_probability: {self.probability} (~{float(self.probability):.6f})"
        )
        cmp = ">" if self.strict else ">="
        lines.append(f"threshold: {cmp} {self.threshold}")
        lines.append(f"threshold_met: {'yes' if self.threshold_met else 'no'}")
        return "\n".join(lines) + "\n"


def synthesize(
    mdp: Mdp,
    valuation: list,
    phi: Formula,
    threshold: Fraction,
    strict: bool = False,
    max_states: int = DEFAULT_STATE_CAP,
) -> SynthesisReport:
    """Decide the controller synthesis problem and build the witness."""
    if not 0 <= threshold <= 1:
        raise SynthesisError(f"threshold {threshold} outside [0,1]")
    aut = build_dgrma(phi, cap=max_states)
    product, automaton_component = product_mdp(mdp, valuation, aut.lts, max_states)

    lifted = [lift_pair(pair, automaton_component) for pair in aut.pairs]
    w_states, outcomes = winning_union(product, lifted)
    probability = _ZERO
    strategy = None
    if w_states:
        values, selector = max_reach(product, w_states)
        probability = values[product.init]
        strategy = _assemble_strategy(product, lifted, outcomes, selector)

    met = probability > threshold if strict else probability >= threshold
    return SynthesisReport(
        formula=phi,
        probability=probability,
        threshold=threshold,
        strict=strict,
        threshold_met=met,
        winning_states=w_states,
        outcomes=outcomes,
        strategy=strategy,
        automaton=aut,
        product=product,
    )


def _assemble_strategy(product, lifted, outcomes, selector):
    winners = []
    state_to_winner: dict = {}
    for (_fin, cond), pair_winners in zip(lifted, outcomes):
        for component, sol in pair_winners:
            if all(s in state_to_winner for s in component.states):
                continue
            for s in component.states:
                state_to_winner.setdefault(s, len(winners))
            winners.append(build_witness_strategy(product, component, sol, cond))
    return GlobalStrategy(selector, winners, state_to_winner)


class GlobalSimulation:
    __slots__ = ("episodes", "steps_per_episode", "seed", "entered", "mp_pooled")

    def __init__(
        self, episodes: int, steps_per_episode: int, seed: int, entered: int, mp_pooled: list
    ):
        self.episodes = episodes
        self.steps_per_episode = steps_per_episode
        self.seed = seed
        self.entered = entered
        self.mp_pooled = mp_pooled  # (winner idx, label, pooled average over in-component steps)

    def to_text(self) -> str:
        lines = [
            f"episodes: {self.episodes}",
            f"steps_per_episode: {self.steps_per_episode}",
            f"seed: {self.seed}",
            f"entered_winning_union: {self.entered}",
            f"entry_fraction: {self.entered / self.episodes:.6f}",
        ]
        for idx, label, avg in self.mp_pooled:
            lines.append(f"pooled_avg[w{idx}][{label}]: {avg:.6f}")
        return "\n".join(lines) + "\n"


def _reward_lists(winner, n: int) -> list:
    """Per bound of the winner's condition, its float reward at each of
    the ``n`` product states, 0 outside the winner's component."""
    states = winner.component.states
    vecs = []
    for _, den, _, nums in sum(winner.cond.restricted(states), ()):
        vec = [0.0] * n
        for s, num in zip(states, nums):
            vec[s] = num / den
        vecs.append(vec)
    return vecs


def check_counts(episodes: int, steps_per_episode: int):
    """Raise ``ValueError`` on a step or episode count below 1."""
    for name, n in (("steps", steps_per_episode), ("episodes", episodes)):
        if n < 1:
            raise ValueError(f"{name} must be at least 1")


def simulate_global(
    product: Mdp,
    strategy: GlobalStrategy,
    episodes: int,
    steps_per_episode: int,
    seed: int,
    schedule: Callable[[int], int] = epoch_length,
) -> GlobalSimulation:
    """Seeded episodic run of the assembled strategy on the product MDP.

    An episode follows the reachability selector until it meets a winner's
    state, then runs that winner's witness, which steps the product inside
    the winner's component.  The selector's steps read a per-state list
    of its actions' successor tables, filled at first read, and draw from
    them inline as ``WitnessRun`` does: ``random()`` itself against the
    tables' dyadic thresholds, which decides as the exact rational sums do
    (see ``mdp.draw_table``).  Each bound's float rewards are summed in
    step order, a chunk of the run's states at a time.  A witness's epoch
    t runs ``schedule(t)`` steps.

    A selector state whose table is a sure self-loop is a losing sink: the
    walk stops there, and the episode's remaining steps are owed draws,
    made with ``mdp.skip_draws`` only when a later episode draws, so every
    later draw is the per-step walk's and a draw that no step reads is
    never made.
    """
    check_counts(episodes, steps_per_episode)
    rng = random.Random(seed)
    random_ = rng.random
    winner_at = [strategy.state_to_winner.get(s) for s in range(len(product))]
    actions, reach = product.actions, strategy.reach
    successors = [None] * len(product)  # the selector's successor tables, read lazily
    rewards = [None] * len(strategy.winners)  # per winner, per bound, per state
    pooled_sums = [[0.0] * len(w.cond.mp_inf + w.cond.mp_sup) for w in strategy.winners]
    pooled_steps = [0] * len(strategy.winners)
    entered = owed = 0
    for _ in range(episodes):
        state = product.init
        if owed and winner_at[state] is not _SINK:
            skip_draws(rng, owed)
            owed = 0
        steps = steps_per_episode
        while steps and winner_at[state] is None:
            table = successors[state]
            if table is None:
                table = successors[state] = actions[reach[state]].table
                if sure_loop(table, state):
                    winner_at[state] = _SINK
                    break
            values, thresholds = table
            state = values[bisect_right(thresholds, random_())]
            steps -= 1
        w_idx = winner_at[state]
        if w_idx is _SINK:
            owed += steps
            continue
        if not steps:
            continue
        entered += 1
        winner = strategy.winners[w_idx]
        vecs = rewards[w_idx]
        if vecs is None:
            vecs = rewards[w_idx] = _reward_lists(winner, len(product))
        sums = pooled_sums[w_idx]
        pooled_steps[w_idx] += steps
        run = WitnessRun(winner, schedule, rng, state)
        while steps:
            visited = run.take(min(steps, _CHUNK))
            steps -= len(visited)
            for k, vec in enumerate(vecs):
                sums[k] = reduce(add, map(vec.__getitem__, visited), sums[k])

    mp_pooled = []
    for w_idx, winner in enumerate(strategy.winners):
        if not pooled_steps[w_idx]:
            continue
        cond = winner.cond
        for bi, bound in enumerate(cond.mp_inf + cond.mp_sup):
            kind = "inf" if bi < len(cond.mp_inf) else "sup"
            avg = pooled_sums[w_idx][bi] / pooled_steps[w_idx]
            mp_pooled.append((w_idx, f"{kind}:{bound.cmp}{bound.bound}", avg))
    return GlobalSimulation(episodes, steps_per_episode, seed, entered, mp_pooled)
