"""Qualitative analysis of strongly connected MDPs against generalized
Buchi mean-payoff conditions, with witness-strategy construction.

Feasibility of the per-flow linear constraints decides whether the maximal
satisfaction probability is 1 or 0.  Each limit-superior bound gets its own
flow block; limit-inferior bounds are replicated into every block.  One
builder makes the system with one extra column ``t`` on its bound rows: on
every bound row for the margin LP, which maximizes one margin shared by all
of them, or on the strict rows alone for the slack LP.  The margin LP
decides and gives the witness's flows; the slack LP runs only when strict
bounds leave the margin at 0.  The witness strategy cycles through one
randomized mode per flow with steeply growing epochs and starts every epoch
with a pilgrimage through the Inf sets.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import count
from math import lcm
from typing import Iterator, Mapping, Optional

from . import simplex
from .dgrma import GbmpCondition, MpBound
from .formula import GT
from .mdp import (
    Mdp,
    MdpError,
    _sccs,
    attractor_policy,
    draw,
    draw_table,
    successor_edges,
)

_ZERO = Fraction(0)


@dataclass
class LinearSystem:
    """The flow constraints for one strongly connected MDP and condition;
    the column after the flows, when there is one, is ``t``."""

    mdp: Mdp
    cond: GbmpCondition
    num_flows: int
    num_vars: int
    rows: list


@dataclass(frozen=True)
class LpSolution:
    """Non-negative flow values: ``flows[i][ai]`` is flow i on action ai."""

    flows: tuple
    slack: Fraction


def build_lp(mdp: Mdp, cond: GbmpCondition, margin: bool = True) -> LinearSystem:
    """Assemble the per-flow constraint system (no Inf rows: those are a
    separate nonempty-intersection check).  Every bound row with ``margin``,
    else every strict one, reads ``reward - t >= bound``; ``t`` is left out
    when no row has it.  Rows are ``solve_lp``'s ``(nums, rel, rhs, den)``:
    the sum row over 1, a balance row over the lcm of its entering actions'
    ``weights``, a bound row over the lcm of its bound and rewards."""
    n_flows = cond.num_flows()
    n_actions = len(mdp.actions)
    t = n_flows * n_actions
    has_t = bool(cond.mp_inf or cond.mp_sup) if margin else cond.strict()

    def bound_row(base: int, bound: MpBound) -> tuple:
        rewards = [bound.reward[name] for name in mdp.states]
        den = lcm(bound.bound.denominator, *(r.denominator for r in rewards))
        ints = [r.numerator * (den // r.denominator) for r in rewards]
        nums = {base + ai: ints[a.source] for ai, a in enumerate(mdp.actions) if ints[a.source]}
        if margin or bound.cmp == GT:
            nums[t] = -den
        return nums, ">=", bound.bound.numerator * (den // bound.bound.denominator), den

    # Balance at each state, inflow minus outflow, keyed by action index in
    # ascending order.  Probabilities are positive, so only the outflow at
    # the source can cancel (a sure self-loop); that entry is dropped.
    dens = [lcm(*(mdp.actions[ai].weights[0] for ai in entering)) for entering in mdp.pre]
    balance: list[dict[int, int]] = [{} for _ in mdp.states]
    for ai, action in enumerate(mdp.actions):
        den, weights = action.weights
        for s, w in weights:
            balance[s][ai] = balance[s].get(ai, 0) + w * (dens[s] // den)
        src = balance[action.source]
        src[ai] = src.get(ai, 0) - dens[action.source]
        if not src[ai]:
            del src[ai]

    rows = []
    for i in range(n_flows):
        base = i * n_actions
        rows.append(({base + ai: 1 for ai in range(n_actions)}, "==", 1, 1))
        for coeffs, den in zip(balance, dens):
            rows.append(({base + ai: w for ai, w in coeffs.items()}, "==", 0, den))
        for bound in cond.mp_inf:
            rows.append(bound_row(base, bound))
        if cond.mp_sup:
            rows.append(bound_row(base, cond.mp_sup[i]))
    return LinearSystem(mdp, cond, n_flows, t + 1 if has_t else t, rows)


def maximize_margin(system: LinearSystem) -> Optional[LpSolution]:
    """Solve the system maximizing ``t`` (plain feasibility without it);
    None when it is infeasible.

    ``t`` comes back as ``slack``.  The solution is checked against every
    bound unless a bound is strict and ``t`` is 0.
    """
    n_actions = len(system.mdp.actions)
    t = system.num_flows * n_actions
    objective = {t: 1} if system.num_vars > t else {}
    status, values, _ = simplex.solve_lp(system.num_vars, system.rows, objective)
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
    sol = LpSolution(flows, values[t] if objective else _ZERO)
    if not system.cond.strict() or sol.slack > 0:
        _verify_solution(system, sol)
    return sol


def _verify_solution(system: LinearSystem, sol: LpSolution):
    """Check the solution in integers, over one common denominator of the
    flows: each flow's sum and balance rows must hold exactly, and each of
    its bounds must be met, strictly where it is strict, by the flow's
    reward read from the condition, not from a bound row (the bound and its
    rewards over the lcm of their denominators).  A failure names its flow
    and its state or bound."""
    mdp, cond = system.mdp, system.cond
    x = [v for flow in sol.flows for v in flow]
    scale = lcm(*(v.denominator for v in x))
    xs = [v.numerator * (scale // v.denominator) for v in x]
    n_actions = len(mdp.actions)
    block = len(system.rows) // system.num_flows  # sum, balance, bound rows
    for i in range(system.num_flows):
        rows = system.rows[i * block : i * block + 1 + len(mdp)]
        for k, (nums, _, rhs, _) in enumerate(rows):
            lhs = sum(c * xs[j] for j, c in nums.items())
            if lhs != rhs * scale:
                if k == 0:
                    raise simplex.SimplexError(f"flow {i} sums to {Fraction(lhs, scale)}")
                raise simplex.SimplexError(f"flow {i} unbalanced at {mdp.states[k - 1]}")
        flow = xs[i * n_actions : (i + 1) * n_actions]
        bounds = [(f"inferior bound {b}", bound) for b, bound in enumerate(cond.mp_inf)]
        if cond.mp_sup:
            bounds.append((f"superior bound {i}", cond.mp_sup[i]))
        for kind, bound in bounds:
            rewards = [bound.reward[name] for name in mdp.states]
            den = lcm(bound.bound.denominator, *(r.denominator for r in rewards))
            ints = [r.numerator * (den // r.denominator) for r in rewards]
            lhs = sum(v * ints[a.source] for v, a in zip(flow, mdp.actions))
            want = bound.bound.numerator * (den // bound.bound.denominator) * scale
            if lhs < want or (lhs == want and bound.cmp == GT):
                raise simplex.SimplexError(f"flow {i} violates {kind}")


def accepting_mec(mdp: Mdp, cond: GbmpCondition):
    """Decide whether the condition holds with probability 1 in the strongly
    connected MDP (0 otherwise); returns (answer, witness flows or None).

    The component is rejected at once when it misses an Inf set.  Then the
    margin LP decides (without bounds it is the plain flow system):
    infeasible rejects, and an optimum accepts with that solution as the
    witness when every bound is non-strict or the margin is positive.  Only
    when strict bounds leave the best margin at 0 does the slack LP run
    (``>= 1/2`` with ``> 1/3`` on one reward can have margin 0 but slack
    1/6), and strict bounds then need positive slack.
    """
    states = frozenset(mdp.states)
    for inf_set in cond.inf_sets:
        if not (frozenset(inf_set) & states):
            return False, None
    sol = maximize_margin(build_lp(mdp, cond))
    if sol is None:
        return False, None
    if not cond.strict() or sol.slack > 0:
        return True, sol
    sol = maximize_margin(build_lp(mdp, cond, margin=False))
    if sol is None or sol.slack == 0:
        return False, None
    return True, sol


EPOCH_BASE = 100
EPOCH_RATIO = 32


@dataclass(frozen=True)
class EpochSchedule:
    """Epoch t runs for EPOCH_BASE*EPOCH_RATIO^t steps (optionally capped).

    The steep growth makes the newest epoch dominate the whole history, which
    is what realizes limit-superior bounds in finite simulations.
    """

    cap: Optional[int] = None

    def __post_init__(self):
        # A length below 1 plans an empty epoch, and the walk would loop.
        if self.cap is not None and self.cap < 1:
            raise ValueError("epoch cap must be at least 1")

    def length(self, t: int) -> int:
        raw = EPOCH_BASE * EPOCH_RATIO**t
        return raw if self.cap is None else min(raw, self.cap)


@dataclass(frozen=True)
class ModeClass:
    """One closed recurrent class of a flow's support."""

    states: frozenset
    weight: Fraction
    choices: Mapping  # state idx -> tuple of (action idx, Fraction prob)
    entry_policy: Mapping  # state idx -> action idx steering into the class

    @cached_property
    def tables(self) -> dict:
        """Per state, ``draw_table`` of its choices, built at the first draw."""
        return {s: draw_table(pairs) for s, pairs in self.choices.items()}


@dataclass(frozen=True)
class Strategy:
    """Witness strategy: per-flow randomized modes, visited in epochs, on
    ``mdp``, the component whose state and action indices it holds."""

    modes: tuple  # per flow, a tuple of its ModeClass
    pilgrimage: tuple  # per Inf set, (target state index, attractor policy)
    cond: GbmpCondition
    mdp: Mdp = field(compare=False)


def _support_classes(mdp: Mdp, flow: tuple) -> list[ModeClass]:
    support_actions = [ai for ai, v in enumerate(flow) if v > 0]
    support_states = sorted({mdp.actions[ai].source for ai in support_actions})
    classes = []
    for comp in _sccs(support_states, successor_edges(mdp, support_actions)):
        comp_set = frozenset(comp)
        weight = _ZERO
        choices = {}
        for si in comp:
            enabled = [ai for ai in mdp.act[si] if flow[ai] > 0]
            mass = sum(flow[ai] for ai in enabled)
            weight += mass
            choices[si] = tuple((ai, flow[ai] / mass) for ai in enabled)
        classes.append(
            ModeClass(
                comp_set,
                weight,
                choices,
                attractor_policy(mdp, comp_set),
            )
        )
    # Flow conservation makes every support component closed; check it.
    for cls in classes:
        for si in cls.states:
            for ai, _ in cls.choices[si]:
                if any(t not in cls.states for t, _ in mdp.actions[ai].dist):
                    raise MdpError("flow support component is not closed")
    classes.sort(key=lambda c: min(c.states))
    return classes


def build_witness_strategy(mdp: Mdp, sol: LpSolution, cond: GbmpCondition) -> Strategy:
    """Assemble the epoch-switching witness from the flow solution."""
    modes = []
    for i, flow in enumerate(sol.flows):
        classes = _support_classes(mdp, flow)
        if not classes:
            raise MdpError(f"flow {i} has empty support")
        modes.append(tuple(classes))
    pilgrimage = []
    for inf_set in cond.inf_sets:
        members = sorted(mdp.state_index[s] for s in inf_set if s in mdp.state_index)
        if not members:
            raise MdpError("Inf set does not intersect the component")
        pilgrimage.append((members[0], attractor_policy(mdp, {members[0]})))
    return Strategy(tuple(modes), tuple(pilgrimage), cond, mdp)


def witness_walk(
    strategy: Strategy, schedule: EpochSchedule, rng: random.Random, state: int
) -> Iterator[tuple]:
    """Run the witness from ``state`` forever, yielding (epoch, state, action
    index) per step; states and actions are those of ``strategy.mdp``.

    Epoch t walks to each pilgrimage target in turn, then plays each class
    of mode ``t % len(modes)`` for its share of ``schedule.length(t)`` steps
    (the rounding remainder goes to the first class).  Each step draws its
    successor before it is yielded, so a caller that stops after n steps
    has used exactly n steps' draws.
    """
    actions = strategy.mdp.actions
    for epoch in count():
        mode = strategy.modes[epoch % len(strategy.modes)]
        planned = schedule.length(epoch)
        total_weight = sum(c.weight for c in mode)
        shares = [int(planned * c.weight / total_weight) for c in mode]
        shares[0] += planned - sum(shares)
        for target, policy in strategy.pilgrimage:
            while state != target:
                ai = policy[state]
                at, state = state, draw(actions[ai].table, rng)
                yield epoch, at, ai
        for cls, share in zip(mode, shares):
            for _ in range(share):
                if state not in cls.states:
                    ai = cls.entry_policy[state]
                elif len(cls.choices[state]) == 1:
                    ai = cls.choices[state][0][0]
                else:
                    ai = draw(cls.tables[state], rng)
                at, state = state, draw(actions[ai].table, rng)
                yield epoch, at, ai
