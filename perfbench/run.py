"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fig5-quick --seed 7 \\
        --seconds 32 --trace 0

A workload is split into parts that share no program state; every
measured run of a part is a fresh interpreter (``worker.py``) with its
own working directory, ``HOME`` and ``TMPDIR`` under
``.perfbench-out/``, so no in-memory memo or on-disk store can warm a
later run, and every simulated cell starts with empty modelled caches.
The parts are run round-robin until ``--seconds`` are used up; a
workload's time is the sum over its parts of their median times.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every
part both untraced and traced and prints the per-layer split (see
``layers.py``).  Both check every unit against ``reference/``.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--write-reference`` regenerates ``reference/<workload>[.tiny].json``
from one untraced run of each part at the reference seed.

Exit codes: 0 when every unit is correct, 1 when some unit failed
(the result is still printed), 2 when the program cannot be run at all
and 3 when the traced run's attribution guard fails (no result).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
REFERENCE_DIR = HERE / "reference"
OUT_DIR = ROOT / ".perfbench-out"

WORKLOAD_NAMES = ("fig5-quick", "fig1-sdarc", "a6-library")
REFERENCE_SEED = 7
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}
#: A run may overshoot ``--seconds`` by this share to finish a round.
OVERSHOOT = 0.1
#: Every run must end within this many seconds of starting.
DEADLINE_S = 170.0


class ProgramError(Exception):
    """The program under test cannot be started at all."""


class Runner:
    """Starts isolated worker processes for one workload."""

    def __init__(self, workload: str, seed: int, size: str) -> None:
        self.workload = workload
        self.seed = seed
        self.size = size
        self.started = time.monotonic()
        self.scratch = OUT_DIR / f"tmp-{os.getpid()}"
        self._count = 0

    def _call(self, argv: list[str]) -> subprocess.CompletedProcess:
        self._count += 1
        run_dir = self.scratch / str(self._count)
        for sub in ("work", "home", "tmp"):
            (run_dir / sub).mkdir(parents=True)
        env = {
            key: value
            for key, value in os.environ.items()
            if not key.startswith(("REPRO_", "PYTHON"))
        }
        env.update(
            HOME=str(run_dir / "home"),
            TMPDIR=str(run_dir / "tmp"),
            PYTHONPATH=str(SRC),
            PYTHONHASHSEED="0",
        )
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        try:
            return subprocess.run(
                [sys.executable, *argv],
                cwd=run_dir / "work",
                env=env,
                capture_output=True,
                text=True,
                timeout=max(remaining, 1.0),
            )
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)

    def warm_up(self) -> None:
        """Import the program once (compiling its bytecode) so set-up
        is timed as a warm-disk import, as of an installed package."""
        if not (SRC / "repro" / "__init__.py").is_file():
            raise ProgramError(f"program source not found under {SRC}")
        done = self._call(["-c", "import repro"])
        if done.returncode != 0:
            raise ProgramError(
                "cannot import repro:\n" + done.stderr[-2000:]
            )

    def parts(self) -> list[str]:
        done = self._call([
            str(WORKER), "--workload", self.workload,
            "--size", self.size, "--list-parts",
        ])
        if done.returncode != 0:
            raise ProgramError(done.stderr[-2000:])
        return json.loads(done.stdout)

    def worker(self, part: str, trace: int = 0) -> dict:
        """One cold run of ``part``; adds ``part``, ``trace`` and the
        ``elapsed`` seconds including process start."""
        artifact = OUT_DIR / self.workload / f"{part}.txt"
        artifact.parent.mkdir(parents=True, exist_ok=True)
        start = time.monotonic()
        argv = [
            str(WORKER), "--workload", self.workload, "--part", part,
            "--seed", str(self.seed), "--size", self.size,
            "--trace", str(trace), "--artifact", str(artifact),
            "--t0", repr(start),
        ]
        try:
            done = self._call(argv)
        except subprocess.TimeoutExpired:
            rep = {"crash": "worker exceeded the run deadline"}
        else:
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                rep = {
                    "crash": f"worker exited {done.returncode}: "
                    + done.stderr[-2000:]
                }
            else:
                rep = json.loads(lines[-1])
        rep.update(
            part=part, trace=trace, elapsed=time.monotonic() - start
        )
        return rep

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def _comparable(record: dict) -> dict:
    return {
        key: value
        for key, value in record.items()
        if key not in ("seeded", "invalid")
    }


def evaluate(
    samples: list[dict], reference: dict, seed: int
) -> tuple[int, int, list[str]]:
    """``(attempted, failed, problems)`` over every unit of every run.

    A unit fails when it raised, broke an invariant, is missing or
    unknown, differs between runs, or — when its inputs do not depend
    on the seed, or the seed is the reference seed — differs from the
    committed reference.
    """
    parts = {entry["part"]: entry["units"] for entry in reference["parts"]}
    exact = seed == reference["seed"]
    attempted = failed = 0
    problems: list[str] = []
    first: dict[str, dict] = {}
    for index, rep in enumerate(samples):
        expected = parts.get(rep["part"], {})
        if "crash" in rep:
            attempted += len(expected) or 1
            failed += len(expected) or 1
            problems.append(f"run {index}: {rep['crash']}")
            continue
        units = rep["units"]
        for unit in sorted(set(units) | set(expected)):
            attempted += 1
            problem = _unit_problem(
                units.get(unit), expected.get(unit), exact,
                first.get(unit),
            )
            if unit in units and "error" not in units[unit]:
                first.setdefault(unit, _comparable(units[unit]))
            if problem:
                failed += 1
                problems.append(f"run {index}: {unit}: {problem}")
    return attempted, failed, problems


def _unit_problem(record, reference, exact, earlier) -> str | None:
    if record is None:
        return "missing from the run"
    if "error" in record:
        return record["error"]
    if "invalid" in record:
        return record["invalid"]
    if reference is None:
        return "not in the reference"
    comparable = _comparable(record)
    if (exact or not record["seeded"]) and comparable != reference:
        return f"differs from the reference: {comparable} != {reference}"
    if earlier is not None and comparable != earlier:
        return "differs between runs of the same seed"
    return None


def reference_path(workload: str, size: str) -> Path:
    suffix = "" if size == "full" else f".{size}"
    return REFERENCE_DIR / f"{workload}{suffix}.json"


# ----------------------------------------------------------------------
# Measuring
# ----------------------------------------------------------------------
def measure(
    runner: Runner, parts: list[str], seconds: float, trace: int
) -> list[dict]:
    """Cold runs of every part, round-robin, until ``seconds`` are
    used up (every part runs at least once in every mode)."""
    samples: list[dict] = []
    start = time.monotonic()
    step = 0
    while True:
        part = parts[step % len(parts)]
        modes = [0, 1] if trace else [0]
        if (step // len(parts)) % 2:
            modes.reverse()
        for mode in modes:
            samples.append(runner.worker(part, mode))
        step += 1
        if any("crash" in rep for rep in samples):
            break
        if step < len(parts):
            continue
        upcoming = parts[step % len(parts)]
        predicted = statistics.median(
            rep["elapsed"] for rep in samples if rep["part"] == upcoming
        ) * len(modes)
        elapsed = time.monotonic() - start
        if elapsed + predicted > seconds * (1 + OVERSHOOT):
            break
    return samples


def _per_part(samples: list[dict], trace: int) -> dict[str, list[dict]]:
    grouped: dict[str, list[dict]] = {}
    for rep in samples:
        if rep["trace"] == trace and "crash" not in rep:
            grouped.setdefault(rep["part"], []).append(rep)
    return grouped


def _sum_of_medians(grouped: dict[str, list[dict]], key: str) -> float:
    return sum(
        statistics.median(rep[key] for rep in reps)
        for reps in grouped.values()
    )


def end_to_end(samples: list[dict], parts: list[str]) -> dict[str, float]:
    plain = _per_part(samples, 0)
    if set(plain) != set(parts):
        return {}
    return {
        "wall_s": _sum_of_medians(plain, "wall_s"),
        "setup_s": statistics.median(
            rep["setup_s"] for reps in plain.values() for rep in reps
        ),
        "peak_rss_mb": max(
            statistics.median(rep["peak_rss_mb"] for rep in reps)
            for reps in plain.values()
        ),
    }


def per_layer(
    samples: list[dict], parts: list[str], spans_path: Path
) -> tuple[dict[str, float], list[str]]:
    """The per-layer split and the attribution-guard violations."""
    import layers

    plain = _per_part(samples, 0)
    traced = _per_part(samples, 1)
    if set(plain) != set(parts) or set(traced) != set(parts):
        return {}, []
    tracer = layers.Tracer()
    for reps in traced.values():
        tracer.extend(reps[-1]["spans"])
    traced_wall = sum(reps[-1]["wall_s"] for reps in traced.values())
    values = tracer.metrics(
        traced_wall,
        statistics.median(
            rep["load_s"] for reps in traced.values() for rep in reps
        ),
    )
    must_work = next(iter(traced.values()))[-1]["must_work"]
    problems = tracer.check(tuple(must_work), values, traced_wall)
    tracer.write_spans(spans_path)
    wall = _sum_of_medians(plain, "wall_s")
    values["obs.overhead_frac"] = (
        _sum_of_medians(traced, "wall_s") / wall - 1.0
    )
    values["proc.cpu_s"] = _sum_of_medians(plain, "cpu_s")
    values["proc.cpu_util"] = values["proc.cpu_s"] / wall
    return values, problems


def _strip(rep: dict) -> dict:
    """A run's measurements without its unit records and spans."""
    return {
        key: value
        for key, value in rep.items()
        if key not in ("units", "spans")
    }


def write_reference(runner: Runner) -> int:
    entries = []
    for part in runner.parts():
        rep = runner.worker(part)
        if "crash" in rep:
            print(rep["crash"], file=sys.stderr)
            return 1
        bad = {
            unit: record
            for unit, record in rep["units"].items()
            if "error" in record or "invalid" in record
        }
        if bad:
            print(f"refusing to write a failing reference: {bad}",
                  file=sys.stderr)
            return 1
        entries.append({
            "part": part,
            "units": {
                unit: _comparable(record)
                for unit, record in sorted(rep["units"].items())
            },
        })
    path = reference_path(runner.workload, runner.size)
    payload = {
        "workload": runner.workload,
        "size": runner.size,
        "seed": runner.seed,
        "parts": entries,
    }
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    units = sum(len(entry["units"]) for entry in entries)
    print(f"wrote {units} units in {len(entries)} parts to {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a seconds-long smoke run")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    runner = Runner(args.workload, args.seed, args.size)
    try:
        runner.warm_up()
        OUT_DIR.mkdir(exist_ok=True)
        if args.write_reference:
            runner.seed = REFERENCE_SEED
            return write_reference(runner)
        reference = json.loads(
            reference_path(args.workload, args.size).read_text()
        )
        parts = [entry["part"] for entry in reference["parts"]]
        samples = measure(runner, parts, args.seconds, args.trace)
    except (ProgramError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        runner.close()

    (OUT_DIR / f"{args.workload}.samples.json").write_text(
        json.dumps([_strip(rep) for rep in samples], indent=1)
    )
    attempted, failed, problems = evaluate(samples, reference, args.seed)
    for problem in problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    if args.trace:
        from layers import PER_LAYER_METRICS

        units = {name: unit for name, (unit, _) in PER_LAYER_METRICS.items()}
        values, guard = per_layer(
            samples, parts, OUT_DIR / f"{args.workload}.spans.jsonl"
        )
        if guard:
            for problem in guard:
                print(f"attribution guard: {problem}", file=sys.stderr)
            return 3
    else:
        units = dict(END_TO_END)
        values = end_to_end(samples, parts)
        values["ok_frac"] = 1.0 - failed / attempted
    if not values.keys() >= units.keys():
        print("error: a part did not complete", file=sys.stderr)
        return 1
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in units.items()
    }
    print(f"{args.workload}  seed={args.seed}  runs={len(samples)}  "
          f"units={attempted}  failed={failed}")
    for name, metric in metrics.items():
        print(f"  {name:<36s} {metric['value']:>14.6g} {metric['unit']}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
