"""Every benchmark corpus instance against its pinned bytes in bench/refs.json.

The instances run through ``cli.main`` in one fresh interpreter, in
``workloads.WORKLOADS`` order, as ``bench/pin.py`` ran them: the operands of
``&`` and ``|`` print in interning order within a process, so the pinned
reports hold only for that order from a fresh start.  The models are written
to the test's temporary directory; nothing under bench/ is written.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"

SCRIPT = """
import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import run, workloads

cli = run.load_freqsynth()
capture = run.Capture(cli)
refs = json.loads((run.BENCH / "refs.json").read_text())
path = Path(sys.argv[2]) / "model.mdp"
checked, problems = 0, []
for name in workloads.WORKLOADS:
    for inst in workloads.corpus(name):
        path.write_text(inst.model, encoding="utf-8")
        capture.report = None
        code, text, err = run.synth_once(cli, path, inst)
        sim = run.simulate(capture.report, inst)
        float_ref = workloads.ruin_reference(*inst.chain) if inst.chain else None
        problems += run.check(inst, refs.get(inst.key), code, text,
                              None if sim is None else sim.to_text(), float_ref)
        if code == 2:
            problems.append(f"{inst.key}: {err.strip()}")
        checked += 1
print(json.dumps({"checked": checked, "pinned": len(refs), "problems": problems}))
"""


def test_every_corpus_instance_matches_its_pinned_bytes(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-B", "-c", SCRIPT, str(BENCH), str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["problems"] == []
    assert result["checked"] == result["pinned"] == 264
