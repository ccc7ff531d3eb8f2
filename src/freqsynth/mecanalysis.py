"""Qualitative analysis of strongly connected MDPs against generalized
Buchi mean-payoff conditions, with witness-strategy construction.

Feasibility of the per-flow linear constraints decides whether the maximal
satisfaction probability is 1 or 0.  Each limit-superior bound gets its own
flow block; limit-inferior bounds are replicated into every block.  The LP
solution that accepts a component is also its witness's flows: that of the
LP maximizing one margin shared by every mean-payoff row, or, when there are
no bounds or strict bounds leave that margin at 0, that of the LP putting
slack on the strict rows alone.  The witness strategy cycles through one
randomized mode per flow with steeply growing epochs and starts every epoch
with a pilgrimage through the Inf sets.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional

from . import simplex
from .formula import GEQ, GT
from .mdp import Mdp, MdpError, _sccs

_ZERO = Fraction(0)


@dataclass(frozen=True)
class MpBound:
    """Limit-average requirement: average reward compared against a bound."""

    cmp: str  # ">=" or ">"
    bound: Fraction
    reward: Mapping  # state name -> Fraction

    def check(self, value: Fraction) -> bool:
        return value >= self.bound if self.cmp == GEQ else value > self.bound


@dataclass(frozen=True)
class GbmpCondition:
    """Conjunction of Inf sets, limit-inferior and limit-superior bounds."""

    inf_sets: tuple = ()
    mp_inf: tuple = ()
    mp_sup: tuple = ()

    def num_flows(self) -> int:
        return max(len(self.mp_sup), 1)


@dataclass
class LinearSystem:
    """The flow constraints for one strongly connected MDP and condition."""

    mdp: Mdp
    cond: GbmpCondition
    num_flows: int
    num_vars: int
    rows: list
    objective: dict
    slack_var: Optional[int]
    strict: bool

    def var(self, flow: int, action_idx: int) -> int:
        return flow * len(self.mdp.actions) + action_idx

    def var_name(self, j: int) -> str:
        if self.slack_var is not None and j == self.slack_var:
            return "slack"
        flow, ai = divmod(j, len(self.mdp.actions))
        return f"x[{flow + 1},{self.mdp.actions[ai].name}]"

    def dump(self) -> str:
        lines = []
        for coeffs, rel, rhs in self.rows:
            terms = " + ".join(
                (f"{c}*{self.var_name(j)}" if c != 1 else self.var_name(j))
                for j, c in sorted(coeffs.items())
            )
            rel_text = {"==": "=", ">=": ">=", "<=": "<="}[rel]
            lines.append(f"{terms or '0'} {rel_text} {rhs}")
        for j in range(self.num_vars):
            lines.append(f"{self.var_name(j)} >= 0")
        if self.strict:
            lines.append("maximize slack; strict rows need slack > 0")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class LpSolution:
    """Non-negative flow values, keyed by (flow index, action name)."""

    x: Mapping
    slack: Fraction

    def flow(self, i: int, action_name: str) -> Fraction:
        return self.x.get((i, action_name), _ZERO)


def build_lp(mdp: Mdp, cond: GbmpCondition) -> LinearSystem:
    """Assemble the per-flow constraint system (no Inf rows: those are a
    separate nonempty-intersection check)."""
    n_flows = cond.num_flows()
    n_actions = len(mdp.actions)
    strict_rows = any(b.cmp == GT for b in cond.mp_inf) or any(
        b.cmp == GT for b in cond.mp_sup
    )
    num_vars = n_flows * n_actions + (1 if strict_rows else 0)
    slack_var = n_flows * n_actions if strict_rows else None

    def reward_row(flow: int, bound: MpBound) -> dict:
        coeffs: dict[int, Fraction] = {}
        for ai, action in enumerate(mdp.actions):
            r = bound.reward[mdp.states[action.source]]
            if r:
                coeffs[flow * n_actions + ai] = Fraction(r)
        if bound.cmp == GT:
            coeffs[slack_var] = Fraction(-1)
        return coeffs

    rows = []
    for i in range(n_flows):
        base = i * n_actions
        rows.append(
            ({base + ai: Fraction(1) for ai in range(n_actions)}, "==", Fraction(1))
        )
        for si in range(len(mdp)):
            coeffs: dict[int, Fraction] = {}
            for ai, action in enumerate(mdp.actions):
                p = _ZERO
                for t, prob in action.dist:
                    if t == si:
                        p += prob
                if action.source == si:
                    p -= 1
                if p:
                    coeffs[base + ai] = p
            rows.append((coeffs, "==", _ZERO))
        for bound in cond.mp_inf:
            rows.append((reward_row(i, bound), ">=", Fraction(bound.bound)))
        if cond.mp_sup:
            rows.append(
                (reward_row(i, cond.mp_sup[i]), ">=", Fraction(cond.mp_sup[i].bound))
            )
    objective = {slack_var: Fraction(1)} if strict_rows else {}
    return LinearSystem(
        mdp, cond, n_flows, num_vars, rows, objective, slack_var, strict_rows
    )


def lp_feasible(system: LinearSystem) -> Optional[LpSolution]:
    """Exact feasibility; strict bounds require a positive maximized slack."""
    status, values, _ = simplex.solve_lp(
        system.num_vars, system.rows, system.objective, maximize=True
    )
    if status == simplex.INFEASIBLE:
        return None
    if status != simplex.OPTIMAL:
        raise simplex.SimplexError(
            f"flow system unexpectedly {status} (the flows are bounded by 1)"
        )
    slack = values[system.slack_var] if system.slack_var is not None else _ZERO
    if system.strict and slack <= 0:
        return None
    sol = _solution_from_values(system, values, slack)
    _verify_solution(system, sol)
    return sol


def maximize_margin(system: LinearSystem) -> Optional[LpSolution]:
    """Solve with one margin shared by every mean-payoff row and maximized
    (strictness ignored); None when even the non-strict rows are infeasible.

    The margin comes back as ``slack``.  The solution meets every bound, and
    is checked against them, unless a bound is strict and the margin is 0.
    """
    n_actions = len(system.mdp.actions)
    margin_var = system.num_flows * n_actions
    rows = []
    for coeffs, rel, rhs in system.rows:
        coeffs = {j: c for j, c in coeffs.items() if j != system.slack_var}
        if rel == ">=":
            coeffs[margin_var] = Fraction(-1)
        rows.append((coeffs, rel, rhs))
    status, values, _ = simplex.solve_lp(
        margin_var + 1, rows, {margin_var: Fraction(1)}, maximize=True
    )
    if status == simplex.INFEASIBLE:
        return None
    if status != simplex.OPTIMAL:
        raise simplex.SimplexError(
            f"margin system unexpectedly {status} (the flows are bounded by 1)"
        )
    sol = _solution_from_values(system, values, values[margin_var])
    if not system.strict or sol.slack > 0:
        _verify_solution(system, sol)
    return sol


def _solution_from_values(system, values, slack) -> LpSolution:
    mdp = system.mdp
    n_actions = len(mdp.actions)
    x = {}
    for i in range(system.num_flows):
        for ai in range(n_actions):
            v = values[i * n_actions + ai]
            if v:
                x[(i, mdp.actions[ai].name)] = v
    return LpSolution(x, slack)


def _verify_solution(system: LinearSystem, sol: LpSolution):
    mdp, cond = system.mdp, system.cond
    for i in range(system.num_flows):
        total = sum(
            sol.flow(i, a.name) for a in mdp.actions
        )
        if total != 1:
            raise simplex.SimplexError(f"flow {i} sums to {total}")
        for si, state in enumerate(mdp.states):
            inflow = sum(
                sol.flow(i, a.name) * p
                for a in mdp.actions
                for t, p in a.dist
                if t == si
            )
            outflow = sum(sol.flow(i, a.name) for ai, a in enumerate(mdp.actions) if a.source == si)
            if inflow != outflow:
                raise simplex.SimplexError(f"flow {i} unbalanced at {state}")
        for bound in cond.mp_inf:
            value = _flow_reward(mdp, sol, i, bound)
            if not bound.check(value):
                raise simplex.SimplexError("inferior bound violated by the solution")
        if cond.mp_sup:
            bound = cond.mp_sup[i]
            value = _flow_reward(mdp, sol, i, bound)
            if not bound.check(value):
                raise simplex.SimplexError("superior bound violated by the solution")


def _flow_reward(mdp: Mdp, sol: LpSolution, flow: int, bound: MpBound) -> Fraction:
    return sum(
        sol.flow(flow, a.name) * bound.reward[mdp.states[a.source]]
        for a in mdp.actions
    )


def accepting_mec(mdp: Mdp, cond: GbmpCondition):
    """Decide whether the condition holds with probability 1 in the strongly
    connected MDP (0 otherwise); returns (answer, witness flows or None).

    The component is rejected at once when it misses an Inf set.  With
    mean-payoff bounds the margin LP decides: infeasible rejects, and an
    optimum accepts with that solution as the witness when every bound is
    non-strict or the margin is positive.  Only when strict bounds leave the
    best margin at 0 does a second LP run, with slack on the strict rows
    alone (``>= 1/2`` with ``> 1/3`` on one reward can have margin 0 but
    slack 1/6).  Without bounds the margin is unbounded, so that slack LP
    is the only one.
    """
    states = frozenset(mdp.states)
    for inf_set in cond.inf_sets:
        if not (frozenset(inf_set) & states):
            return False, None
    system = build_lp(mdp, cond)
    if cond.mp_inf or cond.mp_sup:
        sol = maximize_margin(system)
        if sol is None:
            return False, None
        if not system.strict or sol.slack > 0:
            return True, sol
    sol = lp_feasible(system)
    return sol is not None, sol


@dataclass(frozen=True)
class EpochSchedule:
    """Epoch t runs for base*ratio^t steps (optionally capped).

    The steep growth makes the newest epoch dominate the whole history, which
    is what realizes limit-superior bounds in finite simulations.
    """

    base: int = 100
    ratio: int = 32
    cap: Optional[int] = None

    def length(self, t: int) -> int:
        raw = self.base * self.ratio**t
        return min(raw, self.cap) if self.cap else raw


@dataclass(frozen=True)
class ModeClass:
    """One closed recurrent class of a flow's support."""

    states: frozenset
    weight: Fraction
    choices: Mapping  # state idx -> tuple of (action idx, Fraction prob)
    entry_policy: Mapping  # state idx -> action idx steering into the class


@dataclass(frozen=True)
class StrategyMode:
    classes: tuple


@dataclass(frozen=True)
class Strategy:
    """Witness strategy: per-flow randomized modes, visited in epochs."""

    modes: tuple
    pilgrimage: tuple  # target state indices, one per Inf set
    pilgrimage_policies: tuple  # matching attractor policies
    schedule: EpochSchedule
    cond: GbmpCondition


def attractor_policy(mdp: Mdp, targets: Iterable[int]) -> dict:
    """Distance-minimizing action choice steering into the target set.

    In a strongly connected MDP every state gets a choice, and following it
    hits the target set almost surely.
    """
    target_set = set(targets)
    dist = {t: 0 for t in target_set}
    policy: dict[int, int] = {}
    frontier = set(target_set)
    while frontier:
        nxt = set()
        for si in range(len(mdp)):
            if si in dist:
                continue
            best = None
            for ai in mdp.act[si]:
                if any(t in frontier for t, _ in mdp.actions[ai].dist):
                    best = ai
                    break
            if best is not None:
                dist[si] = min(dist[t] for t, _ in mdp.actions[best].dist if t in dist) + 1
                policy[si] = best
                nxt.add(si)
        frontier = nxt
    return policy


def _support_classes(mdp: Mdp, sol: LpSolution, flow: int) -> list[ModeClass]:
    support_actions = [
        ai for ai, a in enumerate(mdp.actions) if sol.flow(flow, a.name) > 0
    ]
    support_states = sorted({mdp.actions[ai].source for ai in support_actions})
    edges: dict[int, list[int]] = {s: [] for s in support_states}
    for ai in support_actions:
        a = mdp.actions[ai]
        edges[a.source].extend(t for t, _ in a.dist)
    classes = []
    for comp in _sccs(support_states, edges):
        comp_set = frozenset(comp)
        weight = _ZERO
        choices = {}
        for si in comp:
            enabled = [
                ai
                for ai in mdp.act[si]
                if ai in support_actions
            ]
            mass = sum(sol.flow(flow, mdp.actions[ai].name) for ai in enabled)
            weight += mass
            choices[si] = tuple(
                (ai, sol.flow(flow, mdp.actions[ai].name) / mass) for ai in enabled
            )
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


def build_witness_strategy(
    mdp: Mdp,
    sol: LpSolution,
    cond: GbmpCondition,
    schedule: Optional[EpochSchedule] = None,
) -> Strategy:
    """Assemble the epoch-switching witness from the flow solution."""
    if schedule is None:
        schedule = EpochSchedule()
    modes = []
    for i in range(cond.num_flows()):
        classes = _support_classes(mdp, sol, i)
        if not classes:
            raise MdpError(f"flow {i} has empty support")
        modes.append(StrategyMode(tuple(classes)))
    pilgrimage = []
    policies = []
    for inf_set in cond.inf_sets:
        members = sorted(mdp.state_index[s] for s in inf_set if s in mdp.state_index)
        if not members:
            raise MdpError("Inf set does not intersect the component")
        pilgrimage.append(members[0])
        policies.append(attractor_policy(mdp, {members[0]}))
    return Strategy(tuple(modes), tuple(pilgrimage), tuple(policies), schedule, cond)


class StrategyRunner:
    """Mutable cursor executing a witness strategy step by step."""

    def __init__(self, mdp: Mdp, strategy: Strategy, rng: random.Random):
        self.mdp = mdp
        self.strategy = strategy
        self.rng = rng
        self.epoch = -1
        self.plan: list = []  # remaining (kind, payload) tasks of this epoch

    def begin_epoch(self):
        self.epoch += 1
        planned = self.strategy.schedule.length(self.epoch)
        mode = self.strategy.modes[self.epoch % len(self.strategy.modes)]
        self.plan = [("visit", i) for i in range(len(self.strategy.pilgrimage))]
        total_weight = sum(c.weight for c in mode.classes)
        shares = [int(planned * c.weight / total_weight) for c in mode.classes]
        shares[0] += planned - sum(shares)
        for cls, share in zip(mode.classes, shares):
            if share > 0:
                self.plan.append(("play", (cls, share)))

    def next_action(self, state: int) -> int:
        """Pick the action at the current state; advances internal phase."""
        while True:
            if not self.plan:
                self.begin_epoch()
                continue
            kind, payload = self.plan[0]
            if kind == "visit":
                target = self.strategy.pilgrimage[payload]
                if state == target:
                    self.plan.pop(0)
                    continue
                return self.strategy.pilgrimage_policies[payload][state]
            cls, share = payload
            if share <= 0:
                self.plan.pop(0)
                continue
            self.plan[0] = (kind, (cls, share - 1))
            if state not in cls.states:
                return cls.entry_policy[state]
            choices = cls.choices[state]
            if len(choices) == 1:
                return choices[0][0]
            u = self.rng.random()
            acc = _ZERO
            for ai, p in choices:
                acc += p
                if u < acc:
                    return ai
            return choices[-1][0]


@dataclass
class SimulationStats:
    """Seed-deterministic statistics of one witness simulation."""

    steps: int
    seed: int
    action_counts: dict
    epochs: int
    epoch_steps: list  # steps actually spent in each epoch
    inf_visits_per_epoch: list  # one list per Inf set: visits in each epoch
    mp_final: list  # (label, final average)
    mp_max_prefix: list  # (label, max prefix average), for sup bounds
    mp_min_late: list  # (label, min prefix average over the final 80%)

    def to_text(self) -> str:
        lines = [f"steps: {self.steps}", f"seed: {self.seed}", f"epochs: {self.epochs}"]
        lines.append("epoch_steps: " + ",".join(str(v) for v in self.epoch_steps))
        for k, visits in enumerate(self.inf_visits_per_epoch):
            lines.append(
                f"inf_set_{k}_visits_per_epoch: "
                + ",".join(str(v) for v in visits)
            )
        for label, value in self.mp_final:
            lines.append(f"avg[{label}]: {value:.6f}")
        for label, value in self.mp_max_prefix:
            lines.append(f"max_prefix_avg[{label}]: {value:.6f}")
        for label, value in self.mp_min_late:
            lines.append(f"min_late_avg[{label}]: {value:.6f}")
        for name in sorted(self.action_counts):
            lines.append(f"action[{name}]: {self.action_counts[name]}")
        return "\n".join(lines) + "\n"


def simulate_strategy(
    mdp: Mdp,
    strategy: Strategy,
    steps: int,
    seed: int,
    start: Optional[int] = None,
) -> SimulationStats:
    """Run the witness for the given number of steps from a fixed seed."""
    if steps < 1:
        raise ValueError("steps must be at least 1")
    rng = random.Random(seed)
    runner = StrategyRunner(mdp, strategy, rng)
    state = mdp.init if start is None else start
    cond = strategy.cond

    bounds = [("inf", i, b) for i, b in enumerate(cond.mp_inf)] + [
        ("sup", i, b) for i, b in enumerate(cond.mp_sup)
    ]
    reward_vecs = []
    for _, _, b in bounds:
        reward_vecs.append([float(b.reward[s]) for s in mdp.states])
    sums = [0.0] * len(bounds)
    max_prefix = [float("-inf")] * len(bounds)
    min_late = [float("inf")] * len(bounds)
    late_from = int(0.2 * steps)
    action_counts: dict[str, int] = {}
    inf_sets_idx = [
        {mdp.state_index[s] for s in inf_set if s in mdp.state_index}
        for inf_set in cond.inf_sets
    ]
    visits: list[list[int]] = [[] for _ in inf_sets_idx]
    epoch_steps: list[int] = []

    prev_epoch = -1
    for step_no in range(steps):
        ai = runner.next_action(state)
        if runner.epoch != prev_epoch:
            prev_epoch = runner.epoch
            epoch_steps.append(0)
            for v in visits:
                v.append(0)
        epoch_steps[-1] += 1
        action = mdp.actions[ai]
        name = action.name
        action_counts[name] = action_counts.get(name, 0) + 1
        for k, vec in enumerate(reward_vecs):
            sums[k] += vec[state]
            avg = sums[k] / (step_no + 1)
            if avg > max_prefix[k]:
                max_prefix[k] = avg
            if step_no >= late_from and avg < min_late[k]:
                min_late[k] = avg
        for k, idx in enumerate(inf_sets_idx):
            if state in idx:
                visits[k][-1] += 1
        state = _sample(action, rng)

    labels = [
        f"{kind}{i}:{b.cmp}{b.bound}" for kind, i, b in bounds
    ]
    return SimulationStats(
        steps=steps,
        seed=seed,
        action_counts=action_counts,
        epochs=runner.epoch + 1,
        epoch_steps=epoch_steps,
        inf_visits_per_epoch=visits,
        mp_final=[(l, sums[k] / steps) for k, l in enumerate(labels)],
        mp_max_prefix=[
            (l, max_prefix[k])
            for k, l in enumerate(labels)
            if bounds[k][0] == "sup"
        ],
        mp_min_late=[
            (l, min_late[k])
            for k, l in enumerate(labels)
            if bounds[k][0] == "inf"
        ],
    )


def _sample(action, rng: random.Random) -> int:
    u = rng.random()
    acc = _ZERO
    for t, p in action.dist:
        acc += p
        if u < acc:
            return t
    return action.dist[-1][0]
