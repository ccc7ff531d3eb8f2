"""Markov decision processes with exact rational transition probabilities,
and the exact draw tables that simulations draw their successors from."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, NamedTuple, Optional, Sequence

from .formula import is_atom_name, rational_literal
from .lts import DEFAULT_STATE_CAP, Lts, StateCapExceeded


class MdpError(ValueError):
    """Malformed model file or inconsistent MDP data."""


@dataclass(frozen=True)
class MdpAction:
    """An action, enabled in exactly one state, with its distribution as
    ``weights``: ``(den, ((t, w), ...))``, integer weights ``w = p * den``
    over the least common denominator ``den`` of its probabilities
    (``weights_of`` converts ``Fraction`` probabilities)."""

    name: str
    source: int
    weights: tuple

    @cached_property
    def table(self) -> tuple:
        """``draw_table(self.weights)``, built when the first step record that
        takes the action is compiled."""
        return draw_table(self.weights)


def weights_of(pairs: Sequence) -> tuple:
    """``(den, ((value, w), ...))`` for (value, Fraction probability) pairs:
    each ``w = p * den`` over the least common denominator ``den``."""
    den = lcm(*(p.denominator for _, p in pairs))
    return den, tuple((v, p.numerator * (den // p.denominator)) for v, p in pairs)


def draw_table(weights: tuple) -> tuple:
    """Sampling table of ``(den, ((value, w), ...))`` integer weights: a
    draw ``u = random()`` picks the first value whose cumulative probability
    exceeds ``u``.

    ``random()`` returns ``k / 2**53`` for an integer ``k``, so ``u < cum /
    den`` holds exactly when ``k < T`` for the ceiling ``T = ceil(cum *
    2**53 / den)``.  ``T`` is at most ``2**53``, so ``T * 2.0**-53`` is an
    exact double, and ``k < T`` holds exactly when ``u < T * 2.0**-53``.
    The table holds the values, with the last one repeated as the fallback,
    and those dyadic thresholds of the cumulative weights ``cum``; a walk
    draws from it inline as ``values[bisect_right(thresholds, random())]``.
    """
    den, pairs = weights
    thresholds = []
    cum = 0
    for _, w in pairs:
        cum += w
        thresholds.append(-((-cum << 53) // den) * 2.0**-53)
    values = tuple(v for v, _ in pairs)
    return values + values[-1:], tuple(thresholds)


class Mdp:
    """Finite MDP; states and actions carry unique names for stable reporting.

    ``Mdp(...)`` validates its input in full.  ``Mdp._trusted(...)`` runs
    only the structural build, for MDPs whose distributions were checked
    already: the parsed model and the product, the only MDPs built.
    """

    def __init__(self, states: Sequence[str], actions: Sequence[MdpAction], init: Optional[int]):
        self._build(states, actions, init)
        _check_distributions(self.actions)

    @classmethod
    def _trusted(
        cls, states: Sequence[str], actions: Sequence[MdpAction], init: Optional[int]
    ) -> Mdp:
        mdp = cls.__new__(cls)
        mdp._build(states, actions, init)
        return mdp

    def _build(self, states, actions, init) -> None:
        """Enabled actions ``act`` and entering actions ``pre``; raises on
        duplicate names, targets outside the states and states without an
        action."""
        self.states = list(states)
        if len(set(self.states)) != len(self.states):
            raise MdpError("duplicate state name")
        self.actions = list(actions)
        if len({a.name for a in self.actions}) != len(self.actions):
            raise MdpError("duplicate action name")
        self.act: list[list[int]] = [[] for _ in self.states]
        self.pre: list[list[int]] = [[] for _ in self.states]  # entering actions
        for ai, a in enumerate(self.actions):
            self.act[a.source].append(ai)
            for t, _ in a.weights[1]:
                if not 0 <= t < len(self.states):
                    raise MdpError(f"action {a.name!r} has a target outside the states")
                if not self.pre[t] or self.pre[t][-1] != ai:
                    self.pre[t].append(ai)
        for si, enabled in enumerate(self.act):
            if not enabled:
                raise MdpError(f"state {self.states[si]!r} has no enabled action")
        self.init = init

    def __len__(self):
        return len(self.states)


def _check_distributions(actions: Iterable[MdpAction]) -> None:
    """Raise unless every action's weights are over a positive denominator,
    positive, sum to it and name each target once."""
    for a in actions:
        den, pairs = a.weights
        if den < 1:
            raise MdpError(f"action {a.name!r} has a non-positive denominator")
        total = sum(w for _, w in pairs)
        if total != den:
            raise MdpError(f"action {a.name!r} distribution sums to {Fraction(total, den)}, not 1")
        if any(w <= 0 for _, w in pairs):
            raise MdpError(f"action {a.name!r} has a non-positive probability")
        if len({t for t, _ in pairs}) != len(pairs):
            raise MdpError(f"action {a.name!r} has a duplicate target")


Valuation = list  # frozenset of atoms per state index


def parse_mdp(text: str) -> tuple[Mdp, Valuation]:
    """Parse the line-oriented model format (see the README for the grammar)."""
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append((lineno, line))
    if not lines or lines[0][1] != "mdp":
        raise MdpError("model file must start with an 'mdp' line")

    state_names: list[str] = []
    init_name: Optional[str] = None
    labels: dict[str, frozenset] = {}
    raw_actions: list[tuple[int, str, str, str]] = []
    for lineno, line in lines[1:]:
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "states":
            if state_names:
                raise MdpError(f"line {lineno}: duplicate 'states' line")
            state_names = rest.split()
            if not state_names:
                raise MdpError(f"line {lineno}: empty state list")
        elif head == "init":
            if init_name is not None:
                raise MdpError(f"line {lineno}: duplicate 'init' line")
            init_name = rest
        elif head == "label":
            parts = rest.split()
            if not parts:
                raise MdpError(f"line {lineno}: label line needs a state")
            if parts[0] in labels:
                raise MdpError(f"line {lineno}: duplicate 'label' line for {parts[0]!r}")
            for name in parts[1:]:
                if not is_atom_name(name):
                    raise MdpError(f"line {lineno}: bad atom name {name!r}")
            labels[parts[0]] = frozenset(parts[1:])
        elif head == "action":
            name_part, sep, dist_part = rest.partition(":")
            if not sep:
                raise MdpError(f"line {lineno}: action line needs ':'")
            fields = name_part.split()
            if len(fields) != 2:
                raise MdpError(f"line {lineno}: expected 'action STATE NAME :'")
            raw_actions.append((lineno, fields[0], fields[1], dist_part))
        else:
            raise MdpError(f"line {lineno}: unknown directive {head!r}")

    if not state_names:
        raise MdpError("missing 'states' line")
    if init_name is None:
        raise MdpError("missing 'init' line")
    index = {s: i for i, s in enumerate(state_names)}
    if len(index) != len(state_names):
        raise MdpError("duplicate state name in 'states' line")
    if init_name not in index:
        raise MdpError(f"unknown initial state {init_name!r}")
    for s in labels:
        if s not in index:
            raise MdpError(f"label for unknown state {s!r}")

    actions: list[MdpAction] = []
    seen_names = set()
    probs: dict = {}  # probability text -> its value, converted once per call
    for lineno, state, name, dist_part in raw_actions:
        if state not in index:
            raise MdpError(f"line {lineno}: unknown state {state!r}")
        if name in seen_names:
            raise MdpError(f"line {lineno}: action {name!r} redeclared")
        seen_names.add(name)
        entries = []
        seen_targets = set()
        for chunk in dist_part.split(","):
            fields = chunk.split()
            if len(fields) != 2:
                raise MdpError(f"line {lineno}: expected 'TARGET PROB' entries")
            target, prob_text = fields
            if target not in index:
                raise MdpError(f"line {lineno}: unknown state {target!r}")
            if target in seen_targets:
                raise MdpError(f"line {lineno}: duplicate target {target!r}")
            seen_targets.add(target)
            prob = probs.get(prob_text)
            if prob is None:
                try:
                    prob = rational_literal(prob_text)
                except ValueError:
                    raise MdpError(f"line {lineno}: bad probability {prob_text!r}") from None
                if not prob:
                    raise MdpError(f"line {lineno}: probability of {target!r} must be positive")
                probs[prob_text] = prob
            entries.append((index[target], prob))
        weights = weights_of(entries)
        total = sum(w for _, w in weights[1])
        if total != weights[0]:
            raise MdpError(
                f"line {lineno}: distribution sums to {Fraction(total, weights[0])}, not 1"
            )
        actions.append(MdpAction(name, index[state], weights))

    mdp = Mdp._trusted(state_names, actions, index[init_name])
    valuation = [labels.get(s, frozenset()) for s in state_names]
    return mdp, valuation


def product_mdp(mdp: Mdp, valuation: Valuation, lts: Lts, cap: int = DEFAULT_STATE_CAP):
    """Synchronous product with a deterministic LTS reading state labels.

    Returns the product MDP and the automaton component per product state.
    The automaton advances on the label of the state being entered; the
    initial automaton component has already read the initial state's label.
    Raises ``StateCapExceeded`` as soon as the product would have more than
    ``cap`` states.
    """
    if cap < 1:
        raise StateCapExceeded("product MDP", cap)
    init_q = lts.successor(lts.init, valuation[mdp.init])
    start = (mdp.init, init_q)
    index: dict = {start: 0}
    order = [start]
    queue = [start]
    actions: list[MdpAction] = []
    # Each MDP state's letter index, as ``Lts.successor`` reads its label.
    letter = [lts.letter_index[frozenset(label) & lts.atoms] for label in valuation]
    while queue:
        s, q = queue.pop()
        row = lts.delta[q]
        for ai in mdp.act[s]:
            action = mdp.actions[ai]
            den, pairs = action.weights
            renumbered = []
            for target, w in pairs:
                key = (target, None if row is None else row[letter[target]])
                ti = index.get(key)
                if ti is None:
                    if len(order) >= cap:
                        raise StateCapExceeded("product MDP", cap)
                    ti = len(order)
                    index[key] = ti
                    order.append(key)
                    queue.append(key)
                renumbered.append((ti, w))
            weights = den, tuple(renumbered)
            actions.append(MdpAction(f"{action.name}@{q}", index[(s, q)], weights))

    names = [f"{mdp.states[s]}@{q}" for s, q in order]
    product = Mdp._trusted(names, actions, 0)
    automaton_component = [q for _, q in order]
    return product, automaton_component


def _sccs(nodes: list[int], edges: dict[int, list[int]]) -> list[list[int]]:
    """Iterative Tarjan; returns components in a deterministic order."""
    index_of: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    out: list[list[int]] = []
    counter = 0
    for root in nodes:
        if root in index_of:
            continue
        work = [(root, iter(edges.get(root, ())))]
        index_of[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index_of:
                    index_of[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(edges.get(w, ()))))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index_of[w])
            if advanced:
                continue
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


def successor_edges(mdp: Mdp, actions: Iterable[int]) -> dict[int, list[int]]:
    """Graph edges source -> targets of the given actions, in action order."""
    edges: dict[int, list[int]] = {}
    for ai in actions:
        a = mdp.actions[ai]
        edges.setdefault(a.source, []).extend(t for t, _ in a.weights[1])
    return edges


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
        for comp in _sccs(sorted(cur_states), successor_edges(mdp, cur_actions)):
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
