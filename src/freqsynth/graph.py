"""The graph toolkit on index sets of one MDP: strongly connected
components, the closed part, the pre-image closure, the attractor, and the
maximal end components built from them.  Each routine reads the MDP's
``act`` and ``pre`` lists and its actions' targets, and none copies it."""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional, Sequence

from .mdp import Mdp


def sccs(mdp: Mdp, states: Iterable[int], actions) -> list[list[int]]:
    """Strongly connected components of the graph whose edges go from each
    given action (a container) to its targets, by iterative Tarjan from the
    states in index order."""

    def successors(v: int):
        return (t for ai in mdp.act[v] if ai in actions for t, _ in mdp.actions[ai].weights[1])

    index_of: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    out: list[list[int]] = []
    for root in sorted(states):
        if root in index_of:
            continue
        index_of[root] = low[root] = len(index_of)
        stack.append(root)
        on_stack.add(root)
        work = [(root, successors(root))]
        while work:
            v, it = work[-1]
            for w in it:
                if w not in index_of:
                    index_of[w] = low[w] = len(index_of)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, successors(w)))
                    break
                if w in on_stack:
                    low[v] = min(low[v], index_of[w])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
                if low[v] == index_of[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp.append(w)
                        if w == v:
                            break
                    out.append(comp)
    return out


def closed_part(
    mdp: Mdp, states: Iterable[int], actions: Iterable[int]
) -> tuple[set, set]:
    """Largest sub-part in which every action stays inside the states and
    every state keeps an action; one pass over the predecessor lists."""
    states = set(states)
    actions = {
        ai
        for ai in actions
        if mdp.actions[ai].source in states
        and all(t in states for t, _ in mdp.actions[ai].weights[1])
    }
    enabled = {s: 0 for s in states}
    for ai in actions:
        enabled[mdp.actions[ai].source] += 1
    dead = [s for s, count in enabled.items() if count == 0]
    while dead:
        s = dead.pop()
        states.discard(s)
        for ai in mdp.pre[s]:
            if ai in actions:
                actions.discard(ai)
                source = mdp.actions[ai].source
                enabled[source] -= 1
                if enabled[source] == 0:
                    dead.append(source)
    return states, actions


def can_reach(mdp: Mdp, targets: Iterable[int], actions) -> set:
    """States with a path into the targets that uses only the given actions
    (a container): the pre-image closure of the targets."""
    reached = set(targets)
    stack = list(reached)
    while stack:
        t = stack.pop()
        for ai in mdp.pre[t]:
            source = mdp.actions[ai].source
            if source not in reached and ai in actions:
                reached.add(source)
                stack.append(source)
    return reached


def attractor_policy(mdp: Mdp, targets: Iterable[int], actions: Sequence[int]) -> dict:
    """Distance-minimizing action choice steering into the target set, with
    the given actions only.

    Layer by layer from the targets, each new state takes its first action,
    in the order of ``actions``, that can enter the previous layer.  In a
    strongly connected MDP, or end component, every state gets a choice,
    and following it hits the target set almost surely.
    """
    rank = {ai: k for k, ai in enumerate(actions)}
    frontier = set(targets)
    assigned = set(frontier)
    policy: dict[int, int] = {}
    while frontier:
        layer: dict[int, int] = {}  # state -> rank of its first action into frontier
        for t in frontier:
            for ai in mdp.pre[t]:
                k, source = rank.get(ai), mdp.actions[ai].source
                if k is not None and source not in assigned and k < layer.get(source, k + 1):
                    layer[source] = k
        for s in sorted(layer):
            policy[s] = actions[layer[s]]
        assigned.update(layer)
        frontier = layer
    return policy


class Component(NamedTuple):
    """Index tuples into an MDP: states in index order, actions in name order."""

    states: tuple
    actions: tuple


def mec_decomposition(mdp: Mdp, part: Optional[tuple] = None) -> list[Component]:
    """Maximal end components of the MDP, or of a closed ``part`` of it (a
    pair of state and action index sets, as ``restrict`` returns), sorted by
    least state name.  Split the closed part into SCCs, and split again
    every SCC whose closed part loses an action."""
    work = [part or closed_part(mdp, range(len(mdp)), range(len(mdp.actions)))]
    mecs = []
    while work:
        cur_states, cur_actions = work.pop()
        for comp in sccs(mdp, cur_states, cur_actions):
            enabled = [ai for s in comp for ai in mdp.act[s] if ai in cur_actions]
            part = closed_part(mdp, comp, enabled)
            if len(part[1]) == len(enabled):
                enabled.sort(key=lambda ai: mdp.actions[ai].name)
                mecs.append(Component(tuple(sorted(comp)), tuple(enabled)))
            elif part[0]:
                work.append(part)
    mecs.sort(key=lambda ec: min(mdp.states[s] for s in ec.states))
    return mecs


def restrict(mdp: Mdp, removed: Iterable[int]) -> Optional[tuple[set, set]]:
    """The closed part without the ``removed`` states, as index sets of its
    states and actions (no copy): every action touching them goes, and
    pruning continues until every surviving state has an action; None when
    nothing survives."""
    part = closed_part(mdp, set(range(len(mdp))).difference(removed), range(len(mdp.actions)))
    return part if part[0] else None
