"""Seeded end-to-end benchmark of ``freqsynth synth``.

Usage, from the repository root:

    python3 bench/run.py --workload lp_mec --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seed 1            # every workload, one row each

Set-up writes the seed's generated models to ``bench/out``.  Then one client
calls ``freqsynth.cli.main(["synth", ...])`` in-process in a closed loop and
checks every report against the pinned references in ``refs.json``.
``--seconds`` fixes the amount of work, not a timer: the run makes whole
passes over the workload's cells, about ``PLAN[workload]`` calls per second
of ``--seconds``, so every run of a seed decides the same instances.  A short
calibration slice runs between calls, and end-to-end times are reported at a
reference host speed (see ``calibration_slice``).  With ``--trace 1`` every
call runs once untraced and once traced, and the run reports per-layer
metrics from in-memory spans.  The last line of standard
output is one JSON object; the result record with the environment, the tail
percentile and every problem goes to ``bench/out``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

STARTED = time.perf_counter()
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import workloads  # noqa: E402

# Planned synth calls per second of --seconds, from runs on a 2-vCPU x86 VM.
PLAN = {"lp_mec": 3.2, "reach_ruin": 2.0, "translate_wide": 1.0}
SIM_STEPS = 2000
# The host's speed swings by up to 2x within seconds and CPU time tracks wall
# time, so every timed piece of work is bracketed by calibration slices and
# scaled to the speed at which one slice takes REFERENCE_SLICE_S.
SLICE_ITERATIONS = 2000
REFERENCE_SLICE_S = 0.010
SETUP_REPEATS = 15
RUIN_TOLERANCE = 1e-9
TAIL_BEYOND = 10
# Hard stop for the timed loop, so that a pathological slowdown still ends
# the process within three minutes; a cut run counts its missing calls failed.
DEADLINE_S = 150
END_TO_END = (
    ("synth_p50_s", "s"),
    ("synth_tail_s", "s"),
    ("synth_throughput_ips", "1/s"),
    ("simulate_steps_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    """The benchmark cannot run here (for example, no source tree)."""


def load_freqsynth():
    """Import freqsynth afresh from this checkout's ``src``."""
    if not (SRC / "freqsynth" / "__init__.py").is_file():
        raise BenchError(f"no freqsynth sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "freqsynth" or m.startswith("freqsynth.")]:
        del sys.modules[name]
    cli = importlib.import_module("freqsynth.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"freqsynth imported from {cli.__file__}, not {SRC}")
    return cli


def model_dir(workload: str, seed: int) -> Path:
    return OUT / f"{workload}-seed{seed}"


def model_path(workload: str, seed: int, inst) -> Path:
    return model_dir(workload, seed) / (inst.key.replace("/", "-") + ".mdp")


def setup(workload: str, seed: int, calls: int):
    """Import freqsynth, generate the seed's plan and write its models."""
    cli = load_freqsynth()
    plan = workloads.plan(workload, seed, calls)
    model_dir(workload, seed).mkdir(parents=True, exist_ok=True)
    for inst in {i.key: i for i in plan}.values():
        model_path(workload, seed, inst).write_text(inst.model, encoding="utf-8")
    return cli, plan


class Capture:
    """Keeps the report of the last ``synthesize`` call made through the CLI,
    so the strategy can be simulated without deciding the instance again."""

    def __init__(self, cli):
        self.report = None
        original = cli.synthesize

        def synthesize(*args, **kwargs):
            self.report = original(*args, **kwargs)
            return self.report

        cli.synthesize = synthesize


def synth_once(cli, path: Path, inst):
    out, err = io.StringIO(), io.StringIO()
    argv = ["synth", "--model", str(path), "--formula", inst.formula,
            "--threshold", inst.threshold]
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def probability_of(report_text: str):
    for line in report_text.splitlines():
        if line.startswith("max_probability: "):
            return line.split()[1]
    return None


def simulate(report, inst):
    """Seeded walk of the synthesized strategy; None when there is none."""
    from freqsynth.synthesis import simulate_global

    if report is None or report.strategy is None or not report.strategy.winners:
        return None
    return simulate_global(report.product, report.strategy, 1, SIM_STEPS, inst.sim_seed)


def check(inst, ref, code, text, sim_text, float_ref) -> list:
    """Every way the operation's output disagrees with the references."""
    if ref is None:
        return [f"{inst.key}: no pinned reference"]
    problems = []
    if digest(inst.model) != ref["model_sha256"]:
        problems.append("generated model differs from the pinned one")
    if code != ref["exit"]:
        problems.append(f"exit code {code}, pinned {ref['exit']}")
    prob = probability_of(text)
    if prob != ref["probability"]:
        problems.append(f"probability {prob}, pinned {ref['probability']}")
    if digest(text) != ref["report_sha256"]:
        problems.append("report bytes differ from the pinned digest")
    sim_digest = None if sim_text is None else digest(sim_text)
    if sim_digest != ref["simulate_sha256"]:
        problems.append("simulation dump differs from the pinned digest")
    problems = [f"{inst.key}: {p}" for p in problems]
    if inst.chain:
        problems += check_ruin(inst, prob, float_ref)
    return problems


def check_ruin(inst, prob, float_ref) -> list:
    """A gambler's-ruin probability against the float value iteration, or
    against exactly 1 on the reflecting line."""
    if prob is None:
        return [f"{inst.key}: no probability in the report"]
    value = Fraction(prob)
    if inst.chain[2]:
        ok = value == 1
    else:
        ok = abs(float(value) - float_ref) <= RUIN_TOLERANCE
    if ok:
        return []
    return [f"{inst.key}: probability {prob}, value iteration {float_ref!r}"]


def calibration_slice(iterations: int = SLICE_ITERATIONS) -> float:
    """Time of a fixed pure-Python Fraction loop, the host-speed probe."""
    start = time.perf_counter()
    x = Fraction(0)
    for i in range(1, iterations):
        x += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
    return time.perf_counter() - start


def calibrate() -> float:
    """A long calibration loop, recorded to recognise slow hosts."""
    return calibration_slice(20_000)


def to_reference(before: float, after: float) -> float:
    """Factor from wall seconds to seconds at the reference speed, from the
    calibration slices just before and just after the timed work."""
    return REFERENCE_SLICE_S / ((before + after) / 2)


def source_digest() -> str:
    """Digest of the program and of the input generators, which together
    fix every exact count."""
    h = hashlib.sha256()
    for path in sorted((SRC / "freqsynth").glob("*.py")) + [BENCH / "workloads.py"]:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_repeats(counts_by_key: dict) -> list:
    """Exact counts must repeat within a run and across runs of the same
    source tree; differences are nondeterminism."""
    problems = []
    path = OUT / f"counts-{source_digest()}.json"
    seen = json.loads(path.read_text()) if path.is_file() else {}
    for key, runs in sorted(counts_by_key.items()):
        for counts in runs:
            if seen.setdefault(key, counts) != counts:
                problems.append(
                    f"{key}: nondeterministic counts {counts} vs {seen[key]}"
                )
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(seen, sort_keys=True, indent=1))
    os.replace(tmp, path)
    return problems


class Runner:
    """One workload run: set-up, warm-up, the closed loop, the checks."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.refs = json.loads((BENCH / "refs.json").read_text())
        self.attempted = 0
        self.passed = 0
        self.nondeterministic = 0
        self.problems: list = []
        self.float_refs: dict = {}

    def op(self, inst, tracer=None):
        """One synth call; returns its seconds and (exit code, stdout,
        stderr, report), or (None, None) when it raised."""
        self.attempted += 1
        path = model_path(self.workload, self.seed, inst)
        self.capture.report = None
        start = time.perf_counter()
        try:
            if tracer is None:
                code, text, err = synth_once(self.cli, path, inst)
            else:
                code, text, err = tracer.run("cli.synth", synth_once, self.cli, path, inst)
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            self.problems.append(f"{inst.key}: {type(exc).__name__}: {exc}")
            return None, None
        elapsed = time.perf_counter() - start
        report = self.capture.report
        return elapsed, (code, text, err, report)

    def verify(self, inst, outcome, sim) -> bool:
        """Check one call; failures are recorded, not raised."""
        code, text, err, _ = outcome
        if code == 2:
            self.problems.append(f"{inst.key}: exit 2: {err.strip()}")
            return False
        sim_text = None if sim is None else sim.to_text()
        found = check(inst, self.refs.get(inst.key), code, text, sim_text,
                      self.float_refs.get(inst.key))
        self.problems.extend(found)
        self.passed += not found
        return not found

    def run(self) -> dict:
        calls = workloads.calls(self.workload, self.seconds * PLAN[self.workload])
        if self.trace:  # each call runs twice, so half the passes
            cells = len(workloads.WORKLOADS[self.workload][0]())
            calls = cells * max(1, calls // cells // 2)
        setups, raw_setups = [], []
        before = calibration_slice()
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            self.cli, plan = setup(self.workload, self.seed, calls)
            elapsed = time.perf_counter() - start
            after = calibration_slice()
            setups.append(elapsed * to_reference(before, after))
            raw_setups.append(elapsed)
            before = after
        self.capture = Capture(self.cli)
        for inst in plan:
            if inst.chain and inst.key not in self.float_refs:
                self.float_refs[inst.key] = workloads.ruin_reference(*inst.chain)

        # Warm-up: the smallest model of every formula fills the formula
        # caches a long-lived caller would have, whatever the seed's order.
        warm = {}
        for inst in plan:
            best = warm.get(inst.formula)
            if best is None or len(inst.model) < len(best.model):
                warm[inst.formula] = inst
        for inst in warm.values():
            _, outcome = self.op(inst)
            if outcome is not None:
                self.verify(inst, outcome, simulate(outcome[3], inst))

        deadline = STARTED + DEADLINE_S
        if self.trace:
            result = self.loop_traced(plan, deadline)
        else:
            result = self.loop(plan, deadline)
        result["setup_runs_s"] = setups
        result["raw_setup_runs_s"] = raw_setups
        return result

    def loop(self, plan, deadline) -> dict:
        """The timed closed loop.  Each call and its simulation are scaled
        to the reference speed by the calibration slices around them."""
        times, raw, calls, sim_rates, raw_sim_rates = [], [], [], [], []
        before = calibration_slice()
        for n, inst in enumerate(plan):
            if time.perf_counter() > deadline:
                self.attempted += len(plan) - n
                self.problems.append(f"deadline reached after {n} of {len(plan)} calls")
                break
            elapsed, outcome = self.op(inst)
            sim, sim_elapsed = None, None
            if outcome is not None:
                start = time.perf_counter()
                sim = simulate(outcome[3], inst)
                sim_elapsed = time.perf_counter() - start
            after = calibration_slice()
            scale = to_reference(before, after)
            before = after
            if outcome is not None and self.verify(inst, outcome, sim):
                times.append(elapsed * scale)
                raw.append(elapsed)
                calls.append((inst.key, round(start - STARTED - elapsed, 4), elapsed, scale))
                if sim is not None:
                    sim_rates.append(SIM_STEPS / (sim_elapsed * scale))
                    raw_sim_rates.append(SIM_STEPS / sim_elapsed)
        return {"times": times, "raw_times": raw, "calls": calls,
                "sim_rates": sim_rates, "raw_sim_rates": raw_sim_rates}

    def loop_traced(self, plan, deadline) -> dict:
        tracer = spans.Tracer()
        plain, traced, sim_steps = [], [], 0
        keys = {}
        for n, inst in enumerate(plan):
            if time.perf_counter() > deadline:
                self.attempted += 2 * (len(plan) - n)
                self.problems.append(f"deadline reached after {n} of {len(plan)} pairs")
                break
            elapsed, outcome = self.op(inst)
            if outcome is not None and self.verify(inst, outcome, simulate(outcome[3], inst)):
                plain.append(elapsed)
            tracer.op = n
            tracer.install()
            try:
                elapsed, outcome = self.op(inst, tracer)
                sim = None
                if outcome is not None:
                    sim = tracer.run("synthesis.simulate", simulate, outcome[3], inst)
            finally:
                tracer.uninstall()
                tracer.op = None
            if outcome is not None and self.verify(inst, outcome, sim):
                traced.append(elapsed)
                keys[n] = inst.key
                if sim is not None:
                    sim_steps += SIM_STEPS
        counts = spans.op_counts(tracer.spans)
        by_key: dict = {}
        for n, key in keys.items():
            exact = {m: counts[n][m] for m in spans.EXACT_COUNTS}
            by_key.setdefault(key, []).append(exact)
        repeats = check_repeats(by_key)
        self.nondeterministic = len(repeats)
        self.problems.extend(repeats)
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.dump(OUT / f"spans-{self.workload}-seed{self.seed}.json")
        return {"times": traced, "plain": plain, "spans": tracer.spans,
                "sim_steps": sim_steps}


def tail(times):
    """Highest percentile with at least TAIL_BEYOND samples above it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return None, None
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(result, raw: bool = False) -> dict:
    """The end-to-end metrics at the reference speed, or in wall time."""
    times = result["raw_times" if raw else "times"]
    rates = result["raw_sim_rates" if raw else "sim_rates"]
    setups = result["raw_setup_runs_s" if raw else "setup_runs_s"]
    tail_value, _ = tail(times)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values = {
        "synth_p50_s": statistics.median(times) if times else None,
        "synth_tail_s": tail_value,
        "synth_throughput_ips": len(times) / sum(times) if times else None,
        "simulate_steps_per_s": statistics.median(rates) if rates else None,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_mb,
    }
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END}


def per_layer(result) -> dict:
    traced, plain = result["times"], result["plain"]
    ops = max(len(traced), 1)
    metrics = spans.layer_metrics(result["spans"], ops, result["sim_steps"])
    traced_p50 = statistics.median(traced) if traced else 0.0
    plain_p50 = statistics.median(plain) if plain else 0.0
    metrics["trace.synth_p50_s"] = (traced_p50, "s")
    metrics["trace.untraced_p50_s"] = (plain_p50, "s")
    metrics["trace.overhead_s"] = (traced_p50 - plain_p50, "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


# Layers that are direct children of the synth call, for the attribution check.
TOP_LAYERS = (
    "dgrma.translate_s", "mdp.product_s", "synthesis.lift_s",
    "synthesis.winning_union_s", "synthesis.reach_s", "synthesis.assemble_s",
    "synthesis.self_s", "cli.self_s",
)


def attribution(workload: str, metrics: dict) -> dict:
    """The predicted share of time per layer, checked on the spans."""
    value = {k: v["value"] for k, v in metrics.items()}
    synth = value["trace.synth_s"] or 1.0
    largest = max(TOP_LAYERS, key=lambda k: value[k])
    out = {
        "reach_share": value["synthesis.reach_s"] / synth,
        "solve_share": value["simplex.solve_s"] / synth,
        "largest_layer": largest,
        "self_sum_share": value["trace.self_sum_share"],
    }
    predicted = {
        "reach_ruin": ("reach_share >= 0.90", out["reach_share"] >= 0.90),
        "lp_mec": ("solve_share > 0.50", out["solve_share"] > 0.50),
        "translate_wide": (
            "largest_layer == dgrma.translate_s", largest == "dgrma.translate_s"
        ),
    }[workload]
    out["prediction"] = predicted[0]
    out["prediction_met"] = predicted[1]
    return out


def environment(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "seed": seed,
        "calibration_s": calibrate(),
    }


def fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def run_workload(args) -> int:
    env = environment(args.seed)
    runner = Runner(args.workload, args.seed, args.seconds, bool(args.trace))
    result = runner.run()
    env["calibration_end_s"] = calibrate()
    failed_ops = min(
        runner.attempted, runner.attempted - runner.passed + runner.nondeterministic
    )
    metrics = per_layer(result) if args.trace else end_to_end(result)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "env": env,
        "attempted": runner.attempted,
        "failed": failed_ops,
        "failed_share": failed_ops / max(runner.attempted, 1),
        "problems": runner.problems,
        "setup_runs_s": result["setup_runs_s"],
        "metrics": metrics,
        "calls": result.get("calls"),
    }
    for line in runner.problems[:20]:
        print(f"FAIL {line}")
    if args.trace:
        record["attribution"] = attribution(args.workload, metrics)
        a = record["attribution"]
        print(f"{args.workload} attribution: reach {a['reach_share']:.3f}, "
              f"simplex {a['solve_share']:.3f}, largest {a['largest_layer']}, "
              f"self times sum to {a['self_sum_share']:.6f} of synth; "
              f"predicted {a['prediction']}: {'met' if a['prediction_met'] else 'NOT met'}")
    else:
        value, pct = tail(result["times"])
        record["tail"] = {"percentile": pct, "samples": len(result["times"])}
        if pct is not None:
            print(f"{args.workload} synth_tail_s is p{pct:.1f} of "
                  f"{len(result['times'])} samples")
        wall = end_to_end(result, raw=True)
        record["wall_metrics"] = wall
        if result["calls"]:
            record["median_scale"] = statistics.median(c[3] for c in result["calls"])
        row = "  ".join(f"{k}={fmt(m['value'])} {m['unit']}" for k, m in wall.items())
        print(f"{args.workload} wall time: {row}")
    print(f"env: nproc={env['nproc']} python={env['python']} seed={args.seed} "
          f"calibration_s={env['calibration_s']:.4f} (end {env['calibration_end_s']:.4f})")
    row = "  ".join(f"{k}={fmt(m['value'])} {m['unit']}" for k, m in metrics.items())
    print(f"{args.workload}: {row}  failed_share={record['failed_share']:.6g}")
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    missing = [k for k, m in metrics.items() if m["value"] is None]
    correct = not failed_ops and not runner.problems and not missing
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": failed_ops,
        "metrics": {k: m for k, m in metrics.items() if m["value"] is not None},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process; one row of metrics per workload."""
    status = 0
    rows = []
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
            sys.stdout.write(proc.stdout)
        if lines and lines[-1].startswith("{"):
            rows.append((workload, json.loads(lines[-1])))
    for workload, res in rows:
        share = res["failed"] / max(res["attempted"], 1)
        cells = "  ".join(
            f"{k}={fmt(m['value'])} {m['unit']}" for k, m in res["metrics"].items()
        )
        print(f"{workload:15s} {cells}  failed_share={share:.6g}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        if args.workload is None:
            return run_all(args)
        return run_workload(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
