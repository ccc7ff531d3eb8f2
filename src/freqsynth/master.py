"""Master transition system: tracks the property still required to hold."""

from __future__ import annotations

from .boolfn import formula_to_boolfn, step_row, unfold
from .formula import Formula, atoms_of
from .lts import DEFAULT_STATE_CAP, Lts, build_lts


def build_master(phi: Formula, cap: int = DEFAULT_STATE_CAP) -> Lts:
    """Reachable master LTS over the powerset of the formula's atoms.

    States are canonical Boolean functions; tt and ff are absorbing.  A
    master move expands every obligation once per state, then steps the
    expansion under each letter.
    """
    return build_lts(
        formula_to_boolfn(phi),
        lambda state, alphabet: step_row(unfold(state), alphabet),
        atoms_of(phi),
        cap,
        what="master LTS",
    )
