"""Benchmark of the lamvar command-line tool.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload diminish --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One client drives the CLI in a closed loop: one invocation at a time, each a
fresh ``python -m lamvar.cli`` process with the checkout's ``src`` first on
``PYTHONPATH``, each under the workload's deadline.  A run first times a few
set-up invocations, then repeats whole rounds of the workload's command mix
(see ``workloads.py``) until ``--seconds`` have passed, checks every output,
prints the end-to-end metrics with units and sample counts, and ends with one
JSON result line.

With ``--trace 1`` the run instead replays a fixed number of rounds in this
process through ``lamvar.cli.main(argv)``: once untraced and once with spans
around the public functions of every module (``tracing.py``), and reports the
per-layer metrics and the traced/untraced wall-time ratio.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import tracing
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_runs"

WORKLOADS = ("diminish", "oracle", "converge", "wiener")
SETUP_PROBES = 9
IMPORT_PROBES = 5
TAIL_BEYOND = 10
TAIL_MIN_INVOCATIONS = 20

#: The speed a shared 2-core machine gives a process can drift by 40% over
#: minutes, which moved run medians more than the inputs did.  So a fixed
#: pure-Python loop is timed after every invocation, and the invocation times
#: of a run are rescaled to a machine on which that loop takes
#: CALIBRATION_REFERENCE_S:
#:     scaled = wall * CALIBRATION_REFERENCE_S / median(loop times of the run).
#: The median ignores loops that an interruption slowed.  items_per_s,
#: op_p50_s and op_tail_s use scaled times; raw figures are printed next to
#: them and kept in the run record.
CALIBRATION_LOOPS = 300_000
CALIBRATION_REFERENCE_S = 0.02

#: A set-up probe is mostly process start and imports, which the loop does
#: not track (correlation 0.09 over 40 probes), while the start of a bare
#: interpreter importing numpy does (0.86).  So each set-up probe follows such
#: a reference start, and setup_s is the median of probe / reference, times
#: the reference on a machine where it takes SPAWN_REFERENCE_S.
SPAWN_REFERENCE = ("-c", "import numpy")
SPAWN_REFERENCE_S = 0.17

#: End-to-end metrics and units.  The result line of a single workload holds
#: RESULT_METRICS, the ones that are defined, nonzero and steady from seed to
#: seed on every workload.  The others are printed in the table: op_tail_s
#: needs at least 20 invocations per run, which `converge` does not reach;
#: fail_ratio is 0 on a healthy run; op_p50_s on `converge` is the cost of
#: whichever random inputs of 5 and 6 breakpoints fall mid-distribution, and
#: its quartile spread between seeds reached 0.19.
UNITS = {
    "items_per_s": "items/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "fail_ratio": "ratio",
}
RESULT_METRICS = ("items_per_s", "setup_s", "peak_rss_mb")


@dataclass
class Outcome:
    wall: float
    code: Optional[int]
    stdout: str
    missed: bool = False
    error: Optional[str] = None
    scaled: float = 0.0

    @property
    def failed(self) -> bool:
        return self.missed or self.error is not None


def tail_percentile(times: List[float], beyond: int = TAIL_BEYOND, min_count: int = TAIL_MIN_INVOCATIONS):
    """(value, percentile, n) for the highest percentile of `times` that has
    at least `beyond` samples above it, or None below `min_count` samples."""
    n = len(times)
    if n < min_count:
        return None
    k = n - beyond
    return sorted(times)[k - 1], 100.0 * k / n, n


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop: a probe of the speed the
    machine gives right now."""
    started = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc += i % 7
    return time.perf_counter() - started


def spawn_reference(env: dict) -> float:
    """Wall time of a bare interpreter that imports numpy and exits."""
    started = time.perf_counter()
    subprocess.run([sys.executable, *SPAWN_REFERENCE], env=env, check=True)
    return time.perf_counter() - started


def write_files(inv: wl.Invocation, workdir: Path) -> None:
    for name, text in inv.files.items():
        (workdir / name).write_text(text, encoding="utf-8")


def run_process(inv: wl.Invocation, workdir: Path, deadline: float, env: dict) -> Outcome:
    write_files(inv, workdir)
    cmd = [sys.executable, "-m", "lamvar.cli", *inv.argv]
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=workdir, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=deadline)
        missed = False
    except subprocess.TimeoutExpired:
        proc.kill()
        stdout, _ = proc.communicate()
        missed = True
    except BaseException:  # interrupted: leave no process behind
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - started
    if missed:
        return Outcome(wall, None, "", missed=True)
    return Outcome(wall, proc.returncode, stdout, error=wl.check_output(inv, proc.returncode, stdout))


class DeadlineExceeded(BaseException):
    """Raised by the alarm handler; a BaseException so that no handler in the
    program swallows it."""


def run_in_process(inv: wl.Invocation, cli, deadline: float, tracer: Optional[tracing.Tracer]) -> Outcome:
    def alarm(signum, frame):
        if tracer is not None:
            tracer.record_stall()
        raise DeadlineExceeded()

    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, alarm)
    started = time.perf_counter()
    code: Optional[int] = None
    missed = False
    crash: Optional[str] = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            signal.setitimer(signal.ITIMER_REAL, deadline)
            try:
                code = cli.main(list(inv.argv))
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        missed = True
    except Exception as exc:  # a traceback from the program is a failed operation
        crash = f"raised {type(exc).__name__}: {exc}"
    finally:
        signal.signal(signal.SIGALRM, previous)
        if tracer is not None:
            tracer.end(0)
    wall = time.perf_counter() - started
    if missed:
        return Outcome(wall, None, "", missed=True)
    return Outcome(wall, code, out.getvalue(), error=crash or wl.check_output(inv, code, out.getvalue()))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@contextlib.contextmanager
def work_dir(workload: str, seed: int):
    path = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def _fmt(x: float) -> str:
    return f"{x:.6g}"


# -- untraced run -------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float) -> dict:
    """Closed-loop subprocess run; returns metrics, counts and failures."""
    env = child_env()
    deadline = wl.DEADLINES[workload]
    with work_dir(workload, seed) as workdir:
        loops = [calibrate()]

        def timed(inv: wl.Invocation) -> Outcome:
            outcome = run_process(inv, workdir, deadline, env)
            loops.append(calibrate())
            return outcome

        probe = wl.setup_probe(workload)
        timed(probe)  # compiles bytecode; not counted
        references, setup = [], []
        for _ in range(SETUP_PROBES):
            references.append(spawn_reference(env))
            setup.append(timed(probe))
        done: List[tuple] = []
        started = time.perf_counter()
        rounds = 0
        while time.perf_counter() - started < seconds:
            for inv in wl.round_invocations(workload, seed, rounds):
                done.append((inv, timed(inv)))
            rounds += 1
    scale = CALIBRATION_REFERENCE_S / statistics.median(loops)
    for _, o in done:
        o.scaled = o.wall * scale
    outcomes = [o for _, o in done]
    completed = [o for o in outcomes if not o.failed]
    failures = [(inv, o) for inv, o in done if o.failed]
    walls = [o.wall for o in outcomes]
    scaled = [o.scaled for o in outcomes]
    items = sum(inv.items for inv, o in done if not o.failed)
    metrics = {
        "items_per_s": items / sum(scaled),
        "op_p50_s": statistics.median(o.scaled for o in completed) if completed else float("nan"),
        "setup_s": SPAWN_REFERENCE_S * statistics.median(o.wall / r for o, r in zip(setup, references)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "fail_ratio": len(failures) / len(outcomes),
    }
    tail = tail_percentile(scaled)
    if tail is not None:
        metrics["op_tail_s"] = tail[0]
    raw = {
        "items_per_s": items / sum(walls),
        "op_p50_s": statistics.median(o.wall for o in completed) if completed else float("nan"),
        "setup_s": statistics.median(o.wall for o in setup),
    }
    setup_errors = [o.error or "missed deadline" for o in setup if o.failed]
    result = {
        "workload": workload,
        "seed": seed,
        "rounds": rounds,
        "invocations": len(outcomes),
        "items": items,
        "wall_s": sum(walls),
        "scaled_s": sum(scaled),
        "tail": tail,
        "metrics": metrics,
        "raw": raw,
        "calibration_s": loops,
        "spawn_reference_s": references,
        "missed": sum(o.missed for o in outcomes),
        "trend_verdicts": sum(o.code == 3 for o in completed),
        "errors": [f"{' '.join(inv.argv)}: {o.error}" for inv, o in failures if o.error] + setup_errors,
        "failed": len(failures),
        "setup_n": len(setup),
        "completed_n": len(completed),
        "walls": walls,
    }
    save(f"run-{workload}-{seed}.json", result)
    return result


def save(name: str, obj) -> Path:
    """Write a run's record under OUT_DIR, once, at the end of the run."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / name
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    return path


def print_measure(r: dict) -> None:
    m, raw = r["metrics"], r["raw"]
    print(f"workload {r['workload']}  seed {r['seed']}  rounds {r['rounds']}  invocations {r['invocations']}"
          f"  item: {wl.ITEMS[r['workload']]}  deadline {wl.DEADLINES[r['workload']]:g} s")
    print(f"  times scaled to a {CALIBRATION_REFERENCE_S * 1000:g} ms calibration loop"
          f" (median loop here {_fmt(statistics.median(r['calibration_s']) * 1000)} ms); raw wall clock in brackets")
    print(f"  items_per_s  {_fmt(m['items_per_s'])} items/s  [{_fmt(raw['items_per_s'])}]"
          f"  ({r['items']} items / {_fmt(r['scaled_s'])} s)")
    print(f"  op_p50_s     {_fmt(m['op_p50_s'])} s  [{_fmt(raw['op_p50_s'])}]  (n={r['completed_n']} completed)")
    if r["tail"] is not None:
        value, pct, n = r["tail"]
        print(f"  op_tail_s    {_fmt(value)} s  (p{pct:.1f}, n={n})")
    else:
        print(f"  op_tail_s    n/a  (n={r['invocations']} < {TAIL_MIN_INVOCATIONS} invocations)")
    print(f"  setup_s      {_fmt(m['setup_s'])} s  [{_fmt(raw['setup_s'])}]  (n={r['setup_n']}, scaled to a"
          f" {SPAWN_REFERENCE_S:g} s interpreter start; median start here {_fmt(statistics.median(r['spawn_reference_s']))} s)")
    print(f"  peak_rss_mb  {_fmt(m['peak_rss_mb'])} MB  (max over {r['invocations'] + r['setup_n'] + 1} processes)")
    print(f"  fail_ratio   {_fmt(m['fail_ratio'])} ratio  ({r['failed']}/{r['invocations']};"
          f" missed deadlines {r['missed']})")
    if r["trend_verdicts"]:
        print(f"  converge trend verdicts (exit 3, counted as completed): {r['trend_verdicts']}")
    for line in r["errors"][:10]:
        print(f"  FAILED CHECK {line}")


# -- traced run ---------------------------------------------------------------


def import_time(env: dict) -> float:
    """Median time of `import lamvar.cli` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import lamvar.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        times.append(float(out.stdout))
    return statistics.median(times)


def load_cli():
    sys.path.insert(0, str(SRC))
    import lamvar.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "lamvar":
        raise SystemExit(f"lamvar was imported from {cli.__file__}, not from {SRC}")
    return cli


def replay(invocations: List[wl.Invocation], cli, deadline: float, tracer: Optional[tracing.Tracer]) -> List[Outcome]:
    outcomes = []
    for i, inv in enumerate(invocations):
        if tracer is not None:
            tracer.invocation = i
        outcomes.append(run_in_process(inv, cli, deadline, tracer))
    return outcomes


def trace(workload: str, seed: int, seconds: float) -> dict:
    """Untraced then traced in-process replay of the same invocations."""
    import_s = import_time(child_env())
    cli = load_cli()
    deadline = wl.DEADLINES[workload]
    with work_dir(workload, seed) as workdir:
        invocations = [wl.setup_probe(workload)] * SETUP_PROBES
        cwd = os.getcwd()
        os.chdir(workdir)
        try:
            write_files(invocations[0], workdir)
            plain = replay(invocations, cli, deadline, None)
            started = time.perf_counter()
            rounds = 0
            # Fixed rounds keep the counts exact per seed; --seconds only caps
            # a commit slow enough to need more time than that.
            while rounds < wl.TRACE_ROUNDS[workload] and time.perf_counter() - started < seconds:
                batch = wl.round_invocations(workload, seed, rounds)
                for inv in batch:
                    write_files(inv, workdir)
                plain += replay(batch, cli, deadline, None)
                invocations += batch
                rounds += 1
            tracer = tracing.Tracer()
            uninstall = tracing.install(tracer)
            try:
                traced = replay(invocations, cli, deadline, tracer)
            finally:
                uninstall()
        finally:
            os.chdir(cwd)
    overhead = sum(o.wall for o in traced) / sum(o.wall for o in plain)
    metrics = tracing.layer_metrics(tracer, import_s, overhead)
    hot_spots = tracing.hot_spots(tracer)
    spans_path = save(f"trace-{workload}-{seed}.json", {
        "workload": workload,
        "seed": seed,
        "metrics": metrics,
        "hot_spots": hot_spots,
        "missed": sum(o.missed for o in traced),
        "invocations": [inv.argv for inv in invocations],
        "stalled": tracer.stalled,
        "nodes": [node.to_json() for node in tracer.nodes],
    })
    errors = [f"{' '.join(inv.argv)}: {o.error}" for inv, o in zip(invocations, traced) if o.error]
    return {
        "workload": workload,
        "seed": seed,
        "rounds": rounds,
        "invocations": invocations,
        "outcomes": traced,
        "metrics": metrics,
        "hot_spots": hot_spots,
        "errors": errors,
        "spans_path": spans_path,
        "plain_s": sum(o.wall for o in plain),
        "traced_s": sum(o.wall for o in traced),
    }


def print_trace(r: dict) -> None:
    print(f"traced workload {r['workload']}  seed {r['seed']}  rounds {r['rounds']}"
          f"  invocations {len(r['invocations'])} (first {SETUP_PROBES} are set-up probes)")
    print(f"  untraced {_fmt(r['plain_s'])} s, traced {_fmt(r['traced_s'])} s; spans in {r['spans_path']}")
    print("  metric | value | unit | should move | most work -> flat")
    for name, value in r["metrics"].items():
        unit, _, moves, where = tracing.LAYER_METRICS[name]
        print(f"  {name} | {_fmt(value)} | {unit} | {moves} | {where}")
    print("  hot spots by self time: " + ", ".join(f"{n} {_fmt(s)} s" for n, s in r["hot_spots"]))
    missed = sum(o.missed for o in r["outcomes"])
    print(f"  missed deadlines {missed}; failed checks {len(r['errors'])}")
    for line in r["errors"][:10]:
        print(f"  FAILED CHECK {line}")


# -- entry point --------------------------------------------------------------


def result_line(correct: bool, attempted: int, failed: int, metrics: Dict[str, tuple]) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    })


def run_all(seed: int, seconds: float, trace_flag: int) -> int:
    """Every workload, each in its own process so that peak RSS is per
    workload; the result line holds every metric as <workload>.<metric>."""
    metrics: Dict[str, tuple] = {}
    correct, attempted, failed = True, 0, 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace_flag)]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = out.stdout.splitlines()
        if out.returncode != 0 or not lines:
            return out.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        if trace_flag:
            selected = {m: (v["value"], v["unit"]) for m, v in result["metrics"].items()}
        else:
            record = json.loads((OUT_DIR / f"run-{name}-{seed}.json").read_text())
            selected = {m: (v, UNITS[m]) for m, v in record["metrics"].items()}
        metrics.update({f"{name}.{m}": v for m, v in selected.items()})
    print(result_line(correct, attempted, failed, metrics))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "lamvar" / "cli.py").is_file():
        print(f"error: no lamvar sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    if args.trace:
        r = trace(args.workload, args.seed, args.seconds)
        print_trace(r)
        outcomes = r["outcomes"][SETUP_PROBES:]
        attempted, failed = len(outcomes), sum(o.failed for o in outcomes)
        metrics = {m: (v, tracing.LAYER_METRICS[m][0]) for m, v in r["metrics"].items()}
    else:
        r = measure(args.workload, args.seed, args.seconds)
        print_measure(r)
        attempted, failed = r["invocations"], r["failed"]
        metrics = {m: (r["metrics"][m], UNITS[m]) for m in RESULT_METRICS}
    print(result_line(not r["errors"], attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
