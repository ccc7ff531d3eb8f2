"""The model: Markov decision processes with exact rational transition
probabilities as integer weights, the model-file parser, the product with a
deterministic transition system, the exact draw tables that simulations
draw their successors from, and the skip of the draws that a walk standing
on a sure self-loop would make.  The graph routines on an MDP are in
``graph``."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Optional, Sequence

from .formula import is_atom_name, rational_literal
from .lts import DEFAULT_STATE_CAP, Lts, StateCapExceeded


class MdpError(ValueError):
    """Malformed model file or inconsistent MDP data."""


class MdpAction:
    """An action, enabled in exactly one state, with its distribution as
    ``weights``: ``(den, ((t, w), ...))``, integer weights ``w = p * den``
    over the least common denominator ``den`` of its probabilities
    (``weights_of`` converts ``Fraction`` probabilities).  Equality, hashing
    and repr read those three fields."""

    def __init__(self, name: str, source: int, weights: tuple):
        self.name = name
        self.source = source
        self.weights = weights

    def __eq__(self, other):
        if not isinstance(other, MdpAction):
            return NotImplemented
        return (self.name, self.source, self.weights) == (other.name, other.source, other.weights)

    def __hash__(self):
        return hash((self.name, self.source, self.weights))

    def __repr__(self):
        return f"MdpAction(name={self.name!r}, source={self.source!r}, weights={self.weights!r})"

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


def sure_loop(table: tuple, state: int) -> bool:
    """True when ``table``, an action's ``draw_table`` at ``state``, leads
    back to ``state`` with probability 1: its one value and the fallback
    copy of it are both ``state``."""
    return table[0] == (state, state)


_SKIP_DRAWS = 1 << 16  # draws that skip_draws makes in one call, a 512 KiB int


def skip_draws(rng: random.Random, n: int) -> None:
    """Advance ``rng`` exactly as ``n`` calls of ``random()`` would.

    ``random()`` reads two 32-bit Mersenne Twister words, and
    ``getrandbits(k)`` reads ``ceil(k / 32)`` of them, so ``getrandbits(64 *
    n)`` leaves the generator in the same state, in one C call per
    ``_SKIP_DRAWS`` draws.  A walk standing on a sure self-loop (see
    ``sure_loop``) skips its steps' draws so."""
    while n > 0:
        k = min(n, _SKIP_DRAWS)
        rng.getrandbits(64 * k)
        n -= k


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
            for name in state_names:
                if ":" in name:  # no action line could name it as its source
                    raise MdpError(f"line {lineno}: bad state name {name!r}")
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
    dists: dict = {}  # probability texts -> (den, weights), summed once per call
    for lineno, state, name, dist_part in raw_actions:
        if state not in index:
            raise MdpError(f"line {lineno}: unknown state {state!r}")
        if name in seen_names:
            raise MdpError(f"line {lineno}: action {name!r} redeclared")
        seen_names.add(name)
        # One pass checks each TARGET PROB entry in order, so a line's first
        # fault raises; only then is its distribution looked up or summed.
        targets, texts, seen_targets = [], [], set()
        for entry in dist_part.split(","):
            fields = entry.split()
            if len(fields) != 2:
                raise MdpError(f"line {lineno}: expected 'TARGET PROB' entries")
            target, text = fields
            t = index.get(target)
            if t is None:
                raise MdpError(f"line {lineno}: unknown state {target!r}")
            if t in seen_targets:
                raise MdpError(f"line {lineno}: duplicate target {target!r}")
            seen_targets.add(t)
            if text not in probs:
                try:
                    prob = rational_literal(text)
                except ValueError:
                    raise MdpError(f"line {lineno}: bad probability {text!r}") from None
                if not prob:
                    raise MdpError(f"line {lineno}: probability of {target!r} must be positive")
                probs[text] = prob
            targets.append(t)
            texts.append(text)
        texts = tuple(texts)
        known = dists.get(texts)
        if known is None:
            den, pairs = weights_of([(text, probs[text]) for text in texts])
            total = sum(w for _, w in pairs)
            if total != den:
                raise MdpError(f"line {lineno}: distribution sums to {Fraction(total, den)}, not 1")
            known = dists[texts] = den, [w for _, w in pairs]
        den, ws = known
        actions.append(MdpAction(name, index[state], (den, tuple(zip(targets, ws)))))

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
