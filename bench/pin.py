"""Regenerate ``bench/refs.json``: run every corpus instance once and pin its
model digest, exit code, exact probability, report digest and simulation
digest.  Run it only on a commit whose reports are trusted:

    python3 bench/pin.py [WORKLOAD ...]

Gambler's-ruin probabilities are also checked against the float value
iteration before they are pinned.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run
import workloads


def pin(cli, capture, inst, workdir: Path) -> dict:
    path = workdir / "model.mdp"
    path.write_text(inst.model, encoding="utf-8")
    capture.report = None
    code, text, err = run.synth_once(cli, path, inst)
    if code == 2:
        raise SystemExit(f"{inst.key}: exit 2: {err.strip()}")
    prob = run.probability_of(text)
    if inst.chain:
        problems = run.check_ruin(inst, prob, workloads.ruin_reference(*inst.chain))
        if problems:
            raise SystemExit("\n".join(problems))
    sim = run.simulate(capture.report, inst)
    return {
        "model_sha256": run.digest(inst.model),
        "exit": code,
        "probability": prob,
        "report_sha256": run.digest(text),
        "simulate_sha256": None if sim is None else run.digest(sim.to_text()),
    }


def main(names) -> int:
    path = run.BENCH / "refs.json"
    refs = json.loads(path.read_text()) if path.is_file() else {}
    cli = run.load_freqsynth()
    capture = run.Capture(cli)
    with tempfile.TemporaryDirectory(dir=run.BENCH) as tmp:
        for name in names or list(workloads.WORKLOADS):
            for inst in workloads.corpus(name):
                refs[inst.key] = pin(cli, capture, inst, Path(tmp))
                print(inst.key, refs[inst.key]["exit"], refs[inst.key]["probability"],
                      flush=True)
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
