import pytest

from freqsynth.dgrma import build_dgrma, rec_set
from freqsynth.formula import FREQ, atoms_of
from freqsynth.lts import StateCapExceeded, build_lts, powerset_alphabet
from freqsynth.slave import build_count_lts, build_master, build_slave_lts, build_token_lts

from helpers import corpus_formulas


def _mask_alphabet(atoms):
    names = sorted(set(atoms))
    return tuple(
        frozenset(names[i] for i in range(len(names)) if mask >> i & 1)
        for mask in range(1 << len(names))
    )


def test_powerset_alphabet_counts_in_binary():
    # Letter k holds the i-th sorted atom exactly when bit i of k is set,
    # whatever order and repetition the atoms come in.
    for n in range(9):
        atoms = [f"p{i}" for i in reversed(range(n))]
        assert powerset_alphabet(atoms + atoms[:1]) == _mask_alphabet(atoms), n


def test_row_numbers_new_payloads_at_their_first_letter():
    # Over 4 letters, "x" reaches "z" at letters 0 and 2 and "y" at 1 and 3:
    # each is numbered once, "z" first; "w" is first seen in "y"'s row, and
    # its row function returns None, so it has no transitions.
    rows = {
        "x": ["z", "y", "z", "y"],
        "z": ["z"] * 4,
        "y": ["w", "y", "w", "z"],
        "w": None,
    }
    called = []

    def successors(payload, alphabet):
        assert len(alphabet) == 4
        called.append(payload)
        return rows[payload]

    lts = build_lts("x", successors, ["a", "b"], cap=4)
    assert lts.states == ["x", "z", "y", "w"]
    assert lts.delta == [[1, 2, 1, 2], [1, 1, 1, 1], [3, 2, 3, 1], None]
    assert called == ["x", "z", "y", "w"]
    assert [lts.successor(3, letter) for letter in lts.alphabet] == [None] * 4
    for cap, rows_built in ((3, ["x", "z", "y"]), (2, ["x"]), (1, ["x"])):
        called.clear()
        with pytest.raises(StateCapExceeded) as exc:
            build_lts("x", successors, ["a", "b"], cap=cap, what="toy LTS")
        assert str(exc.value) == f"toy LTS exceeds the state cap of {cap} states"
        assert called == rows_built


def _repeated_new_payload_rows(lts):
    """Check that targets first appear in index order, row by row and
    letter by letter; count the rows where a new target recurs."""
    seen = 0  # states numbered so far, the initial one included
    repeats = 0
    for row in lts.delta:
        if row is None:
            continue
        new = [t for t in row if t >= seen + 1]
        fresh = list(dict.fromkeys(new))
        assert fresh == list(range(seen + 1, seen + 1 + len(fresh)))
        repeats += len(new) > len(fresh)
        seen += len(fresh)
    assert seen + 1 == len(lts)
    return repeats


def _corpus_builds():
    """(what, build(cap)) for every master, slave, token, counting and
    product automaton of the corpus."""
    for phi in corpus_formulas():
        atoms = set(atoms_of(phi))
        yield "master LTS", lambda cap, phi=phi: build_master(phi, cap)
        for rho in rec_set(phi):
            operand = rho.children[0]
            slave = build_slave_lts(operand, atoms)
            yield "slave LTS", lambda cap, o=operand, a=atoms: build_slave_lts(o, a, cap)
            if rho.kind == FREQ:
                yield "counting LTS", lambda cap, s=slave: build_count_lts(s, cap)
            else:
                yield "token LTS", lambda cap, s=slave: build_token_lts(s, cap)
        yield "product automaton", lambda cap, phi=phi: build_dgrma(phi, cap)


def test_state_cap_stops_every_builder_at_its_last_state():
    # A cap of exactly the state count builds the same automaton; one less
    # raises, naming the automaton that overflowed.
    checked, repeats = {}, {}
    for what, build in _corpus_builds():
        full = build(100_000)
        lts = full.lts if what == "product automaton" else full
        n = len(lts)
        again = build(n)
        assert (again.lts if what == "product automaton" else again).delta == lts.delta
        repeats[what] = repeats.get(what, 0) + _repeated_new_payload_rows(lts)
        if what == "product automaton" and any(
            len(part) == n for part in [full.master] + full.slaves + full.components
        ):
            continue  # a part of the same size overflows first
        with pytest.raises(StateCapExceeded) as exc:
            build(n - 1)
        assert str(exc.value) == f"{what} exceeds the state cap of {n - 1} states"
        checked[what] = checked.get(what, 0) + 1
    assert checked["master LTS"] == 30 and checked["product automaton"] >= 10
    assert min(checked.values()) >= 5
    assert min(repeats.values()) >= 10, repeats
