"""One end component's flow LP against a generalized Buchi mean-payoff
condition, and the witness strategy built from its solution.

A component is read through its index tuples into the MDP: its actions, in
their order, are the LP's columns, and its states the balance rows.

Feasibility of the per-flow linear constraints decides whether the maximal
satisfaction probability is 1 or 0 (``synthesis.accepting_mec`` decides).
Each limit-superior bound gets its own flow block; limit-inferior bounds
are replicated into every block.  One builder makes the system with one
extra column ``t`` on its bound rows: on every bound row for the margin
LP, which maximizes one margin shared by all of them, or on the strict
rows alone for the slack LP.  An accepting solution, checked exactly,
gives the witness's flows.  The witness strategy cycles through one
randomized mode per flow with steeply growing epochs, starts every epoch
with a pilgrimage through the Inf sets, and interleaves a mode's recurrent
classes in rounds that grow linearly within the epoch; ``WitnessRun`` plays
it one pilgrimage leg or epoch block at a time, each in one tight loop.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from fractions import Fraction
from functools import cached_property
from itertools import count
from math import lcm
from typing import Callable, Iterator, Mapping, Optional

from . import simplex
from .dgrma import GbmpCondition
from .formula import GT
from .graph import Component, attractor_policy, sccs
from .mdp import Mdp, MdpError, draw_table


class LinearSystem:
    """The flow constraints for one component and condition; the column
    after the flows, when there is one, is ``t``.  ``bounds`` is
    ``cond.restricted`` read at the source of each action, and ``start`` the
    ``solve_lp`` start basis of each flow block."""

    __slots__ = ("mdp", "component", "cond", "num_flows", "num_vars", "rows", "bounds", "start")

    def __init__(
        self,
        mdp: Mdp,
        component: Component,
        cond: GbmpCondition,
        num_flows: int,
        num_vars: int,
        rows: list,
        bounds: tuple,
        start: tuple = (),
    ):
        self.mdp = mdp
        self.component = component
        self.cond = cond
        self.num_flows = num_flows
        self.num_vars = num_vars
        self.rows = rows
        self.bounds = bounds
        self.start = start


class LpSolution:
    """Non-negative flow values as ``solve_lp`` returns them, int numerators
    over ``den``: ``flows[i][j] / den`` is flow i on action column j, and
    ``slack / den`` is ``t`` (0 without it)."""

    __slots__ = ("flows", "slack", "den")

    def __init__(self, flows: tuple, slack: int, den: int):
        self.flows = flows
        self.slack = slack
        self.den = den

    def __eq__(self, other):
        if not isinstance(other, LpSolution):
            return NotImplemented
        return (self.flows, self.slack, self.den) == (other.flows, other.slack, other.den)


def build_lp(
    mdp: Mdp, component: Component, cond: GbmpCondition, margin: bool = True
) -> LinearSystem:
    """Assemble the per-flow constraint system (no Inf rows: those are a
    separate nonempty-intersection check).  Every bound row with ``margin``,
    else every strict one, reads ``reward - t >= bound``; ``t`` is left out
    when no row has it.  Rows are ``solve_lp``'s ``(nums, rel, rhs, den)``:
    the sum row over 1, a balance row over the lcm of its entering actions'
    ``weights``, a bound row in ``GbmpCondition.restricted``'s form, read at
    the source of each action (every state of a component is one)."""
    states, actions = component
    n_flows = cond.num_flows()
    n_actions = len(actions)
    t = n_flows * n_actions
    has_t = bool(cond.mp_inf or cond.mp_sup) if margin else cond.strict()
    bounds = cond.restricted([mdp.actions[ai].source for ai in actions])
    mp_inf, mp_sup = bounds

    def bound_row(base: int, bound: tuple) -> tuple:
        cmp, den, rhs, rewards = bound
        nums = {base + j: r for j, r in enumerate(rewards) if r}
        if margin or cmp == GT:
            nums[t] = -den
        return nums, ">=", rhs, den

    # Balance at each state, inflow minus outflow, keyed by action column in
    # ascending order.  Probabilities are positive, so only the outflow at
    # the source can cancel (a sure self-loop); that entry is dropped.
    dens = dict.fromkeys(states, 1)
    for ai in actions:
        for s, _ in mdp.actions[ai].weights[1]:
            dens[s] = lcm(dens[s], mdp.actions[ai].weights[0])
    balance: dict[int, dict[int, int]] = {s: {} for s in states}
    for j, ai in enumerate(actions):
        action = mdp.actions[ai]
        den, weights = action.weights
        for s, w in weights:
            balance[s][j] = balance[s].get(j, 0) + w * (dens[s] // den)
        src = balance[action.source]
        src[j] = src.get(j, 0) - dens[action.source]
        if not src[j]:
            del src[j]

    rows = []
    for i in range(n_flows):
        base = i * n_actions
        rows.append(({base + j: 1 for j in range(n_actions)}, "==", 1, 1))
        for s in states:
            rows.append(({base + j: w for j, w in balance[s].items()}, "==", 0, dens[s]))
        for bound in mp_inf:
            rows.append(bound_row(base, bound))
        if mp_sup:
            rows.append(bound_row(base, mp_sup[i]))
    # Each block starts on the stationary flow of a unichain policy, which a
    # bound-free system keeps: the attractor toward the first state s0, each
    # column on its source's balance row (deepest layer first), then s0's
    # first action on the sum row.  s0's balance row is dependent: it stays out.
    policy = attractor_policy(mdp, {states[0]}, actions)
    column = {ai: j for j, ai in enumerate(actions)}
    balance_row = {s: 1 + k for k, s in enumerate(states)}
    first = next(j for j, ai in enumerate(actions) if mdp.actions[ai].source == states[0])
    block = [(balance_row[s], column[ai]) for s, ai in reversed(policy.items())] + [(0, first)]
    size = len(rows) // n_flows
    start = tuple((i * size + r, i * n_actions + j) for i in range(n_flows) for r, j in block)
    return LinearSystem(mdp, component, cond, n_flows, t + has_t, rows, bounds, start)


def maximize_margin(system: LinearSystem) -> Optional[LpSolution]:
    """Solve the system maximizing ``t``, or without it take the vertex
    found from the start basis; None when it is infeasible.

    ``t`` comes back as ``slack``.  The solution is checked against every
    bound unless a bound is strict and ``t`` is 0.
    """
    n_actions = len(system.component.actions)
    t = system.num_flows * n_actions
    objective = {t: 1} if system.num_vars > t else {}
    status, values, den = simplex.solve_lp(system.num_vars, system.rows, objective, system.start)
    if status == simplex.INFEASIBLE:
        return None
    if status != simplex.OPTIMAL:
        raise simplex.SimplexError(
            f"flow system unexpectedly {status} (the flows are bounded by 1)"
        )
    flows = tuple(
        tuple(values[i * n_actions : (i + 1) * n_actions])
        for i in range(system.num_flows)
    )
    sol = LpSolution(flows, values[t] if objective else 0, den)
    if not system.cond.strict() or sol.slack > 0:
        _verify_solution(system, sol)
    return sol


def _verify_solution(system: LinearSystem, sol: LpSolution):
    """Check the solution in integers, over its denominator: each flow's sum
    and balance rows must hold exactly, and each of its bounds must be met,
    strictly where it is strict, by the flow's reward read from the
    condition, not from a bound row.  A failure names its flow and its state
    or bound."""
    mdp, (states, actions) = system.mdp, system.component
    xs = [v for flow in sol.flows for v in flow]
    scale = sol.den
    n_actions = len(actions)
    mp_inf, mp_sup = system.bounds
    block = len(system.rows) // system.num_flows  # sum, balance, bound rows
    for i in range(system.num_flows):
        rows = system.rows[i * block : i * block + 1 + len(states)]
        for k, (nums, _, rhs, _) in enumerate(rows):
            lhs = sum(c * xs[j] for j, c in nums.items())
            if lhs != rhs * scale:
                if k == 0:
                    raise simplex.SimplexError(f"flow {i} sums to {Fraction(lhs, scale)}")
                raise simplex.SimplexError(f"flow {i} unbalanced at {mdp.states[states[k - 1]]}")
        flow = xs[i * n_actions : (i + 1) * n_actions]
        bounds = [(f"inferior bound {b}", bound) for b, bound in enumerate(mp_inf)]
        if mp_sup:
            bounds.append((f"superior bound {i}", mp_sup[i]))
        for kind, (cmp, _, rhs, rewards) in bounds:
            lhs = sum(v * r for v, r in zip(flow, rewards))
            if lhs < rhs * scale or (lhs == rhs * scale and cmp == GT):
                raise simplex.SimplexError(f"flow {i} violates {kind}")


EPOCH_BASE = 100
EPOCH_RATIO = 32


def epoch_length(t: int) -> int:
    """Epoch t of the witness runs for EPOCH_BASE*EPOCH_RATIO^t steps.

    The steep growth makes the newest epoch dominate the whole history, which
    is what realizes limit-superior bounds in finite simulations.
    """
    return EPOCH_BASE * EPOCH_RATIO**t


class ModeClass:
    """One closed recurrent class of a flow's support: ``weight`` is its
    flow mass and each state's choices are its support actions, in component
    order, weighted by their flows, all over the solution's denominator."""

    __slots__ = ("states", "weight", "choices", "entry_policy")

    def __init__(self, states: frozenset, weight: int, choices: Mapping, entry_policy: Mapping):
        self.states = states
        self.weight = weight
        self.choices = choices  # state idx -> (den, ((action idx, w), ...)), den the sum of the w
        self.entry_policy = entry_policy  # state idx -> action idx steering into the class

    def __eq__(self, other):
        if not isinstance(other, ModeClass):
            return NotImplemented
        return (self.states, self.weight, self.choices, self.entry_policy) == (
            other.states, other.weight, other.choices, other.entry_policy
        )


class Strategy:
    """Witness strategy: per-flow randomized modes, visited in epochs, on
    ``component``; it steps ``mdp``, whose indices it holds."""

    def __init__(
        self, modes: tuple, pilgrimage: tuple, cond: GbmpCondition, component: Component, mdp: Mdp
    ):
        self.modes = modes  # per flow, a tuple of its ModeClass
        self.pilgrimage = pilgrimage  # per Inf set, (target state index, attractor policy)
        self.cond = cond
        self.component = component
        self.mdp = mdp

    @cached_property
    def steps(self) -> tuple:
        """The run's step records, ``(pilgrimage, modes)``: per pilgrimage
        target ``(target, (records, compile))`` for its policy, and per mode,
        per class, ``(records, compile)`` for the class and its entry policy.
        ``records`` is a list over the MDP's states, None at a state until
        the run first reads it and stores ``compile(state)`` there, so a
        state the run never reaches compiles nothing.

        A step that takes action ``ai`` is ``(ai, values, thresholds)``, the
        action's successor ``draw_table`` after it.  A state with a
        randomized choice is ``(None, values, thresholds)``, the
        ``draw_table`` of its choice weights whose values are those step
        records, so one draw gives the action and its successor table.
        """
        actions, n = self.mdp.actions, len(self.mdp)

        def step(ai: int) -> tuple:
            return (ai,) + actions[ai].table

        def policy_steps(policy: Mapping) -> tuple:
            return [None] * n, lambda s: step(policy[s])

        def class_steps(cls: ModeClass) -> tuple:
            def compile(s: int) -> tuple:
                if s not in cls.states:
                    return step(cls.entry_policy[s])
                den, pairs = cls.choices[s]
                if len(pairs) == 1:
                    return step(pairs[0][0])
                return (None,) + draw_table((den, tuple((step(ai), w) for ai, w in pairs)))

            return [None] * n, compile

        pilgrimage = tuple((target, policy_steps(policy)) for target, policy in self.pilgrimage)
        return pilgrimage, tuple(tuple(map(class_steps, mode)) for mode in self.modes)


def _support_classes(mdp: Mdp, component: Component, flow: tuple) -> list[ModeClass]:
    actions = component.actions
    support = [(ai, v) for ai, v in zip(actions, flow) if v > 0]
    enabled: dict = {}  # state -> its support actions and flows, in component order
    for ai, v in support:
        enabled.setdefault(mdp.actions[ai].source, []).append((ai, v))
    classes = []
    for comp in sccs(mdp, enabled, {ai for ai, _ in support}):
        comp_set = frozenset(comp)
        choices = {si: (sum(v for _, v in enabled[si]), tuple(enabled[si])) for si in comp}
        weight = sum(mass for mass, _ in choices.values())
        entry = attractor_policy(mdp, comp_set, actions)
        classes.append(ModeClass(comp_set, weight, choices, entry))
    # Flow conservation makes every support component closed; check it.
    for cls in classes:
        for si in cls.states:
            for ai, _ in cls.choices[si][1]:
                if any(t not in cls.states for t, _ in mdp.actions[ai].weights[1]):
                    raise MdpError("flow support component is not closed")
    classes.sort(key=lambda c: min(c.states))
    return classes


def build_witness_strategy(
    mdp: Mdp, component: Component, sol: LpSolution, cond: GbmpCondition
) -> Strategy:
    """Assemble the epoch-switching witness from the flow solution."""
    modes = []
    for i, flow in enumerate(sol.flows):
        classes = _support_classes(mdp, component, flow)
        if not classes:
            raise MdpError(f"flow {i} has empty support")
        modes.append(tuple(classes))
    pilgrimage = []
    for inf_set in cond.inf_sets:
        target = next((s for s in component.states if s in inf_set), None)
        if target is None:
            raise MdpError("Inf set does not intersect the component")
        pilgrimage.append((target, attractor_policy(mdp, {target}, component.actions)))
    return Strategy(tuple(modes), tuple(pilgrimage), cond, component, mdp)


def epoch_blocks(planned: int, weights: list) -> Iterator[tuple]:
    """The plan of one epoch of ``planned`` steps for a mode whose classes
    have flow masses ``weights``, as (class index, steps) blocks.

    Class j's share of the epoch is ``planned * w_j // W`` of the total mass
    W (the rounding remainder goes to the first class).  A single class
    plays its share in one block.  Several classes take turns in rounds
    that grow linearly: round r plays class j for ``R_r * w_j // W -
    R_(r-1) * w_j // W`` steps, with ``R_r = r * (r + 1) // 2``, cut at what
    is left of its share, and a class with nothing to play is skipped.  A
    round is O(r) steps while the epoch's history is O(r^2), so every
    running average tends to the flow's mixture of the classes (Brazdil,
    Brozek, Chatterjee, Forejt and Kucera, LICS 2011).
    """
    if len(weights) == 1:
        yield 0, planned
        return
    total = sum(weights)
    left = [planned * w // total for w in weights]
    left[0] += planned - sum(left)
    for r in count(1):
        if not any(left):
            return
        before, after = r * (r - 1) // 2, r * (r + 1) // 2
        for j, w in enumerate(weights):
            steps = min(after * w // total - before * w // total, left[j])
            if steps:
                left[j] -= steps
                yield j, steps


class WitnessRun:
    """The witness run from ``state``, ``take(n)`` steps at a time; states are
    those of ``strategy.mdp``, and ``state`` is in the strategy's component.

    Epoch t walks to each pilgrimage target in turn, then plays the classes
    of mode ``t % len(modes)`` in the ``epoch_blocks`` of
    ``schedule(t)`` steps; a block's steps outside its class follow
    the class's entry policy.  Between calls the run keeps its state and its
    leg.  Each step reads one of ``strategy.steps``' records and draws from
    it inline, one ``random()`` for a randomized choice, then one for the
    successor, so ``take(n)`` uses exactly n steps' draws.
    """

    def __init__(
        self,
        strategy: Strategy,
        schedule: Callable[[int], int],
        rng: random.Random,
        state: int,
    ):
        self._state, self._random = state, rng.random
        self._legs = self._plan(strategy, schedule)
        self._leg = (None, None, None, 0)  # records, compile, target, steps left

    @staticmethod
    def _plan(strategy: Strategy, schedule: Callable[[int], int]) -> Iterator[tuple]:
        pilgrimage, mode_steps = strategy.steps
        for epoch in count():
            k = epoch % len(mode_steps)
            for target, (records, compile) in pilgrimage:
                yield records, compile, target, 0
            weights = [c.weight for c in strategy.modes[k]]
            for j, steps in epoch_blocks(schedule(epoch), weights):
                yield *mode_steps[k][j], None, steps

    def take(self, n: int) -> list:
        """The states of the next ``n`` steps, in order."""
        random, state = self._random, self._state
        records, compile, target, left = self._leg
        visited = []
        append = visited.append
        while n > 0:
            if target is None and left:  # an epoch block
                steps = n if n < left else left
                n, left = n - steps, left - steps
                for _ in range(steps):
                    record = records[state]
                    if record is None:
                        record = records[state] = compile(state)
                    if record[0] is None:
                        record = record[1][bisect_right(record[2], random())]
                    _, values, thresholds = record
                    append(state)
                    state = values[bisect_right(thresholds, random())]
            elif target is not None and state != target:  # a pilgrimage leg
                for _ in range(n):
                    record = records[state]
                    if record is None:
                        record = records[state] = compile(state)
                    append(state)
                    n -= 1
                    state = record[1][bisect_right(record[2], random())]
                    if state == target:
                        break
            else:
                records, compile, target, left = next(self._legs)
        self._state, self._leg = state, (records, compile, target, left)
        return visited
