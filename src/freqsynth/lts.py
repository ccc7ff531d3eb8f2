"""Deterministic labelled transition systems over powerset alphabets."""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from .lasso import Letter, letter_to_str

DEFAULT_STATE_CAP = 100_000


class StateCapExceeded(Exception):
    """Raised when a construction would exceed the configured state cap."""

    def __init__(self, what: str, cap: int):
        super().__init__(f"{what} exceeds the state cap of {cap} states")


def powerset_alphabet(atoms: Iterable[str]) -> tuple[Letter, ...]:
    """All subsets of the atom set, in binary counting order: each sorted
    atom doubles the list, adding itself to every letter so far."""
    out = [frozenset()]
    for name in sorted(set(atoms)):
        out += [letter | {name} for letter in out]
    return tuple(out)


class Lts:
    """Deterministic LTS with opaque state payloads, total on non-sink states.

    ``delta[q]`` is None for states without outgoing transitions (slave
    sinks); otherwise it lists one successor index per alphabet letter.
    """

    def __init__(self, atoms, alphabet, states, init, delta):
        self.atoms = frozenset(atoms)
        self.alphabet = alphabet
        self.letter_index = {l: i for i, l in enumerate(alphabet)}
        self.states = states
        self.init = init
        self.delta = delta

    def __len__(self):
        return len(self.states)

    def successor(self, q: int, letter: Letter) -> Optional[int]:
        row = self.delta[q]
        if row is None:
            return None
        return row[self.letter_index[frozenset(letter) & self.atoms]]

    def to_dot(self, label: Callable = None, annotate: Callable = None) -> str:
        """DOT rendering; ``label(q)`` names state ``q`` (by default the
        text of its payload) and ``annotate(q)`` adds a second line."""
        lines = ["digraph lts {", "  rankdir=LR;", '  __init [shape=point, label=""];']
        for q, payload in enumerate(self.states):
            text = label(q) if label else str(payload)
            text = text.replace("\\", "\\\\").replace('"', '\\"')
            extra = f"\\n{annotate(q)}" if annotate else ""
            lines.append(f'  q{q} [shape=box, style=rounded, label="{text}{extra}"];')
        lines.append(f"  __init -> q{self.init};")
        for q, row in enumerate(self.delta):
            if row is None:
                continue
            grouped: dict[int, list[str]] = {}
            for li, target in enumerate(row):
                grouped.setdefault(target, []).append(letter_to_str(self.alphabet[li]))
            for target in sorted(grouped):
                letters = ",".join(grouped[target])
                lines.append(f'  q{q} -> q{target} [label="{letters}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_lts(
    init_payload,
    successors: Callable,
    atoms: Iterable[str],
    cap: int,
    what: str = "transition system",
) -> Lts:
    """Breadth-first construction of the reachable deterministic LTS.

    ``successors(payload, alphabet)`` returns the whole row: the list of next
    payloads, one per letter of ``alphabet`` in its order, or None for a
    state without outgoing transitions.  One walk over the row, in letter
    order, maps it to indices, numbering each new payload at its first
    letter and checking the cap as it is added, so the numbering is that of
    a letter-by-letter breadth-first search.  The initial state counts too:
    a cap below 1 raises at once.
    """
    if cap < 1:
        raise StateCapExceeded(what, cap)
    alphabet = powerset_alphabet(atoms)
    states = [init_payload]
    index = {init_payload: 0}
    delta: list = []
    for payload in states:  # the list grows as new payloads are numbered
        succ = successors(payload, alphabet)
        row = None
        if succ is not None:
            row = []
            for nxt in succ:
                target = index.get(nxt)
                if target is None:
                    if len(states) >= cap:
                        raise StateCapExceeded(what, cap)
                    target = index[nxt] = len(states)
                    states.append(nxt)
                row.append(target)
        delta.append(row)
    return Lts(atoms, alphabet, states, 0, delta)
