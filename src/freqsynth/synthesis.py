"""Top-level synthesis pipeline: translate, product, analyze, assemble.

The analysis removes each pair's Fin set, decomposes the rest into maximal
end components, decides each component with the flow constraints, takes the
union of the winners, and finishes with exact maximal reachability.  The
LP solution that accepts a component is kept as the flows of its witness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional

from .dgrma import Dgrma, GrmpPair, build_dgrma
from .formula import Formula, in_fragment
from .lts import StateCapExceeded
from .mdp import EndComponent, Mdp, MdpError, mec_decomposition, product_mdp, restrict, sub_mdp
from .mecanalysis import (
    EpochSchedule,
    GbmpCondition,
    MpBound,
    Strategy,
    StrategyRunner,
    accepting_mec,
    build_witness_strategy,
    maximize_margin,  # not called here; bench/spans.py hooks this name
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


class SynthesisError(Exception):
    """Pipeline-level failure (propagated parse or resource errors)."""


def lift_pair(
    pair: GrmpPair, product: Mdp, automaton_component: list
) -> tuple[frozenset, GbmpCondition]:
    """Express one acceptance pair over product-MDP state names."""
    fin = frozenset(
        product.states[p]
        for p in range(len(product))
        if automaton_component[p] in pair.fin
    )
    infs = tuple(
        frozenset(
            product.states[p]
            for p in range(len(product))
            if automaton_component[p] in s
        )
        for s in pair.infs
    )
    sups = []
    infs_mp = []
    for mp in pair.mps:
        reward = {
            product.states[p]: mp.rewards[automaton_component[p]]
            for p in range(len(product))
        }
        bound = MpBound(mp.cmp, mp.bound, reward)
        if mp.ext == "sup":
            sups.append(bound)
        else:
            infs_mp.append(bound)
    return fin, GbmpCondition(infs, tuple(infs_mp), tuple(sups))


@dataclass
class PairOutcome:
    pair_index: int
    winners: list  # (EndComponent, its sub-MDP, accepting LpSolution)


def winning_union(product: Mdp, lifted: list) -> tuple[frozenset, list]:
    """Union of accepting end components over all pairs.

    ``lifted`` holds (fin set, condition) per pair; returns the winning
    states and the per-pair outcomes with their winner components.
    """
    w_states: set = set()
    outcomes = []
    for k, (fin, cond) in enumerate(lifted):
        outcome = PairOutcome(k, [])
        sub = restrict(product, fin)
        if sub is not None:
            for ec in mec_decomposition(sub):
                component = sub_mdp(product, ec)
                ok, sol = accepting_mec(component, cond)
                if ok:
                    outcome.winners.append((ec, component, sol))
                    w_states |= ec.states
        outcomes.append(outcome)
    return frozenset(w_states), outcomes


def _gauss_solve(rows: list, rhs: list) -> list:
    """Exact Gaussian elimination; the callers only pass regular systems."""
    n = len(rows)
    a = [list(r) + [rhs[i]] for i, r in enumerate(rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise MdpError("singular linear system in reachability analysis")
        a[col], a[piv] = a[piv], a[col]
        inv = _ONE / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]


def _evaluate_policy(mdp: Mdp, policy: list, target: set) -> list:
    """Exact reach probabilities of a memoryless deterministic policy."""
    n = len(mdp)
    # States that can reach the target in the policy's chain.
    can = set(target)
    changed = True
    while changed:
        changed = False
        for s in range(n):
            if s in can:
                continue
            action = mdp.actions[policy[s]]
            if any(t in can for t, _ in action.dist):
                can.add(s)
                changed = True
    variables = sorted(can - target)
    pos = {s: i for i, s in enumerate(variables)}
    rows = []
    rhs = []
    for s in variables:
        row = [_ZERO] * len(variables)
        row[pos[s]] = _ONE
        b = _ZERO
        for t, p in mdp.actions[policy[s]].dist:
            if t in target:
                b += p
            elif t in pos:
                row[pos[t]] -= p
        rows.append(row)
        rhs.append(b)
    solved = _gauss_solve(rows, rhs) if variables else []
    values = [_ZERO] * n
    for s in target:
        values[s] = _ONE
    for s, i in pos.items():
        values[s] = solved[i]
    return values


def max_reach(mdp: Mdp, target_names: Iterable) -> tuple[dict, dict]:
    """Exact maximal reachability probabilities plus an optimal selector.

    Policy iteration with exact policy evaluation; after the zero states are
    pinned, any policy-improvement fixpoint is the unique Bellman solution.
    """
    n = len(mdp)
    target = {mdp.state_index[s] for s in target_names}
    # Qualitative pre-pass: states with maximal probability zero.
    can = set(target)
    changed = True
    while changed:
        changed = False
        for s in range(n):
            if s in can:
                continue
            if any(
                any(t in can for t, _ in mdp.actions[ai].dist)
                for ai in mdp.act[s]
            ):
                can.add(s)
                changed = True
    zero = set(range(n)) - can

    policy = [mdp.act[s][0] for s in range(n)]
    values = _evaluate_policy(mdp, policy, target)
    for _ in range(64 + 4 * n * max(len(a) for a in mdp.act)):
        improved = False
        for s in range(n):
            if s in target or s in zero:
                continue
            best_val = values[s]
            best_ai = None
            for ai in mdp.act[s]:
                backup = sum(p * values[t] for t, p in mdp.actions[ai].dist)
                if backup > best_val:
                    best_val = backup
                    best_ai = ai
            if best_ai is not None:
                policy[s] = best_ai
                improved = True
        if not improved:
            break
        values = _evaluate_policy(mdp, policy, target)
    else:
        raise MdpError("policy iteration failed to converge")

    # Proper selector: among value-optimal actions, move strictly closer to
    # the target inside the optimal subgraph.
    selector = list(policy)
    assigned = set(target) | zero
    while True:
        added = False
        for s in range(n):
            if s in assigned:
                continue
            for ai in mdp.act[s]:
                action = mdp.actions[ai]
                backup = sum(p * values[t] for t, p in action.dist)
                if backup == values[s] and any(
                    t in assigned and (t in target or values[t] > 0)
                    for t, _ in action.dist
                ):
                    selector[s] = ai
                    assigned.add(s)
                    added = True
                    break
        if not added:
            break
    if len(assigned) != n:
        raise MdpError("failed to extract a proper optimal selector")
    if _evaluate_policy(mdp, selector, target) != values:
        raise MdpError("extracted selector does not realize the optimal values")

    value_map = {mdp.states[s]: values[s] for s in range(n)}
    selector_map = {
        mdp.states[s]: mdp.actions[selector[s]].name for s in range(n)
    }
    return value_map, selector_map


@dataclass
class McWinner:
    """A winning end component with its executable witness."""

    ec: EndComponent
    pair_index: int
    component: Mdp
    strategy: Strategy


@dataclass
class GlobalStrategy:
    """Reachability selector outside the winning union, witnesses inside."""

    reach: Mapping  # product state name -> action name
    winners: list  # McWinner
    state_to_winner: Mapping  # product state name -> index into winners


@dataclass
class SynthesisReport:
    formula: Formula
    probability: Fraction
    threshold: Fraction
    strict: bool
    threshold_met: bool
    winning_states: frozenset
    outcomes: list
    strategy: Optional[GlobalStrategy]
    sizes: dict
    automaton: Optional[Dgrma] = None
    product: Optional[Mdp] = None

    def to_text(self) -> str:
        lines = [
            f"formula: {self.formula}",
            f"automaton_states: {self.sizes['automaton_states']}",
            f"automaton_pairs: {self.sizes['automaton_pairs']}",
            f"product_states: {self.sizes['product_states']}",
            f"winning_states: {len(self.winning_states)}",
        ]
        for outcome in self.outcomes:
            mecs = "; ".join(
                "{" + ",".join(sorted(ec.states)) + "}" for ec, _, _ in outcome.winners
            )
            lines.append(f"pair_{outcome.pair_index}_winning_mecs: {mecs or '-'}")
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
    max_states: int = 100_000,
    schedule: Optional[EpochSchedule] = None,
    want_strategy: bool = True,
    automaton: Optional[Dgrma] = None,
) -> SynthesisReport:
    """Decide the controller synthesis problem and build the witness."""
    if not 0 <= threshold <= 1:
        raise SynthesisError(f"threshold {threshold} outside [0,1]")
    if not in_fragment(phi):
        raise SynthesisError(f"{phi} is outside the supported fragment")
    atoms = set()
    for letters in valuation:
        atoms |= set(letters)
    aut = automaton or build_dgrma(phi, ap=atoms, cap=max_states)
    product, _, automaton_component = product_mdp(mdp, valuation, aut.lts)
    if len(product) > max_states:
        raise StateCapExceeded("product MDP", max_states)

    lifted = [lift_pair(pair, product, automaton_component) for pair in aut.pairs]
    w_states, outcomes = winning_union(product, lifted)
    if w_states:
        values, selector = max_reach(product, w_states)
        probability = values[product.states[product.init]]
    else:
        values = {s: _ZERO for s in product.states}
        selector = {s: product.actions[product.act[i][0]].name for i, s in enumerate(product.states)}
        probability = _ZERO

    strategy = None
    if want_strategy and w_states:
        strategy = _assemble_strategy(lifted, outcomes, selector, schedule)

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
        sizes={
            "automaton_states": len(aut),
            "automaton_pairs": len(aut.pairs),
            "product_states": len(product),
        },
        automaton=aut,
        product=product,
    )


def _assemble_strategy(lifted, outcomes, selector, schedule):
    winners: list[McWinner] = []
    state_to_winner: dict = {}
    for outcome in outcomes:
        _fin, cond = lifted[outcome.pair_index]
        for ec, component, sol in outcome.winners:
            if all(s in state_to_winner for s in ec.states):
                continue
            strategy = build_witness_strategy(component, sol, cond, schedule)
            idx = len(winners)
            winners.append(McWinner(ec, outcome.pair_index, component, strategy))
            for s in ec.states:
                state_to_winner.setdefault(s, idx)
    return GlobalStrategy(selector, winners, state_to_winner)


@dataclass
class EpisodeStats:
    entered: bool
    entry_step: Optional[int]
    winner_index: Optional[int]


@dataclass
class GlobalSimulation:
    episodes: int
    steps_per_episode: int
    seed: int
    entered: int
    episode_stats: list
    mp_pooled: list  # (winner idx, label, pooled average over in-component steps)

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


def simulate_global(
    product: Mdp,
    strategy: GlobalStrategy,
    episodes: int,
    steps_per_episode: int,
    seed: int,
) -> GlobalSimulation:
    """Seeded episodic run of the assembled strategy on the product MDP."""
    rng = random.Random(seed)
    entered = 0
    stats = []
    pooled_sums: dict = {}
    pooled_steps: dict = {}
    for _ in range(episodes):
        state = product.init
        runner = None
        winner_idx = None
        entry_step = None
        for step_no in range(steps_per_episode):
            name = product.states[state]
            if runner is None and name in strategy.state_to_winner:
                winner_idx = strategy.state_to_winner[name]
                winner = strategy.winners[winner_idx]
                runner = StrategyRunner(
                    winner.component, winner.strategy, rng
                )
                entry_step = step_no
                entered += 1
            if runner is None:
                action_name = strategy.reach[name]
                action = product.actions[product.action_index[action_name]]
            else:
                winner = strategy.winners[winner_idx]
                local = winner.component
                li = local.state_index[name]
                cond = winner.strategy.cond
                for bi, bound in enumerate(list(cond.mp_inf) + list(cond.mp_sup)):
                    key = (winner_idx, bi)
                    pooled_sums[key] = pooled_sums.get(key, 0.0) + float(
                        bound.reward[name]
                    )
                    pooled_steps[key] = pooled_steps.get(key, 0) + 1
                ai = runner.next_action(li)
                local_action = local.actions[ai]
                action = product.actions[product.action_index[local_action.name]]
            u = rng.random()
            acc = _ZERO
            nxt = action.dist[-1][0]
            for t, p in action.dist:
                acc += p
                if u < acc:
                    nxt = t
                    break
            state = nxt
        stats.append(EpisodeStats(runner is not None, entry_step, winner_idx))

    mp_pooled = []
    for (w_idx, bi), total in sorted(pooled_sums.items()):
        winner = strategy.winners[w_idx]
        cond = winner.strategy.cond
        bounds = list(cond.mp_inf) + list(cond.mp_sup)
        kind = "inf" if bi < len(cond.mp_inf) else "sup"
        bound = bounds[bi]
        label = f"{kind}:{bound.cmp}{bound.bound}"
        mp_pooled.append((w_idx, label, total / pooled_steps[(w_idx, bi)]))
    return GlobalSimulation(
        episodes, steps_per_episode, seed, entered, stats, mp_pooled
    )
