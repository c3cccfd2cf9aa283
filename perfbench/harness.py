"""Closed-loop, single-client runner: set-up, timed passes, checks, metrics.

One client calls `convex_chroma.cli.main(argv)` in-process, one command at a
time; the next command starts when the previous one has returned.  Each
command's wall time is one sample.  Every output is re-checked by the
benchmark's own oracle, and report bytes are compared with pinned digests.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import platform
import resource
import signal
import subprocess
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle
import tracer as tracing
from workloads import DEFAULT_SEED, TAIL_PERCENTILE, WORKLOADS, Command, build_family, \
    interleave, resolve_args, warmups

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
PINS = Path(__file__).resolve().parent / "pinned_digests.json"
DEADLINE_S = 7.0
SETUP_REPEATS = 3
RUN_BUDGET_S = 150.0
OK_EXITS = (0, 3)                     # 3 is the documented "capped" exit

E2E_UNITS = {
    "op_p50_s": "s", "op_tail_s": "s", "ops_per_s": "1/s", "members_per_s": "1/s",
    "color_p50_s": "s", "partition_p50_s": "s", "verify_p50_s": "s", "generate_p50_s": "s",
    "ok_ratio": "ratio", "identical_ratio": "ratio", "setup_s": "s", "peak_rss_mb": "MB",
}


class DeadlineExceeded(BaseException):
    """Raised by SIGALRM inside a command that ran past its deadline.  A
    BaseException so that no handler in the program swallows it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def import_program():
    """Import convex_chroma from this checkout's src/ and return its cli."""
    src = ROOT / "src"
    if not (src / "convex_chroma" / "__init__.py").is_file():
        raise RuntimeError(f"no convex_chroma sources under {src}")
    sys.path.insert(0, str(src))
    import convex_chroma.cli as cli
    if Path(cli.__file__).resolve().parent.parent != src:
        raise RuntimeError(f"convex_chroma was imported from {cli.__file__}, not {src}")
    return cli


@dataclass
class Outcome:
    cmd: Command
    seconds: float
    code: int | None
    error: str | None = None          # "deadline" or the exception
    problems: list[str] = field(default_factory=list)
    digest: str | None = None
    traced: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None and self.code in OK_EXITS and not self.problems

    @property
    def correct(self) -> bool:
        """False when the program crashed or gave a wrong or flagged result;
        a command cut by its deadline is failed but not incorrect."""
        return self.error == "deadline" or self.ok


@dataclass
class Prepared:
    commands: list[Command]
    warmups: list[Command]
    inputs: dict[tuple[str, str], Path]   # ("run" or "warm", family name) -> JSON
    out_dir: Path
    _adjacency: dict[Path, np.ndarray] = field(default_factory=dict)

    def in_path(self, cmd: Command, warm: bool) -> Path | None:
        if cmd.family is None:
            return None
        return self.inputs[("warm" if warm else "run", cmd.family.name)]

    def adjacency(self, path: Path) -> np.ndarray:
        """The oracle's adjacency matrix of an input family, built once."""
        if path not in self._adjacency:
            with open(path) as fh:
                self._adjacency[path] = oracle.adjacency(json.load(fh))
        return self._adjacency[path]

    def out_path(self, cmd: Command) -> Path:
        safe = cmd.label.replace(":", "__").replace("/", "_")
        return self.out_dir / f"{safe}.json"


def prepare(workload: str, seed: int, work_dir: Path) -> Prepared:
    """Generate and write every input family of the mix and of the warm-ups."""
    commands = interleave([resolve_args(c, seed) for c in WORKLOADS[workload]()])
    warm = [resolve_args(c, DEFAULT_SEED) for c in warmups()]
    inputs = {}
    for tag, cmds, fam_seed in (("run", commands, seed), ("warm", warm, DEFAULT_SEED)):
        (work_dir / tag).mkdir(parents=True, exist_ok=True)
        for cmd in cmds:
            if cmd.family is None or (tag, cmd.family.name) in inputs:
                continue
            path = work_dir / tag / f"{cmd.family.name}.json"
            with open(path, "w") as fh:
                json.dump(build_family(cmd.family, fam_seed), fh)
            inputs[(tag, cmd.family.name)] = path
    out_dir = work_dir / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    return Prepared(commands, warm, inputs, out_dir)


def execute(main, cmd: Command, prepared: Prepared, warm: bool = False,
            tracer: tracing.Tracer | None = None) -> Outcome:
    """Run one command in-process under the deadline; time only main(argv)."""
    in_path = prepared.in_path(cmd, warm)
    out_path = prepared.out_path(cmd)
    argv = cmd.argv(None if in_path is None else str(in_path), str(out_path))
    out_path.unlink(missing_ok=True)
    sink = io.StringIO()
    code = error = None
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        with redirect_stdout(sink), redirect_stderr(sink):
            start = tracer.begin_command(cmd.kind) if tracer else time.perf_counter()
            try:
                signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
                try:
                    code = main(argv)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except DeadlineExceeded:
                error = "deadline"
            except Exception as exc:          # a crash is a failed command
                error = f"{type(exc).__name__}: {exc}"
            end = time.perf_counter()
            if tracer is not None:
                tracer.end_command(end)
    finally:
        signal.signal(signal.SIGALRM, previous)
    seconds = DEADLINE_S if error == "deadline" else end - start
    outcome = Outcome(cmd, seconds, code, error=error, traced=tracer is not None)
    if outcome.error is None:
        data = out_path.read_bytes() if out_path.is_file() else b""
        outcome.digest = hashlib.sha256(data).hexdigest()
        adj = None if in_path is None else prepared.adjacency(in_path)
        outcome.problems = check_output(cmd, outcome.code, data, adj)
    return outcome


def check_output(cmd: Command, code: int | None, data: bytes, adj: np.ndarray | None) -> list[str]:
    """Independent re-check of one command's output; returns the problems."""
    if code not in OK_EXITS:
        return [f"exit code {code}"]
    try:
        obj = json.loads(data)
    except ValueError:
        return ["output is not JSON"]
    try:
        return check_report(cmd, obj, adj)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]


def check_report(cmd: Command, obj: dict, adj: np.ndarray | None) -> list[str]:
    if cmd.kind == "generate":
        return check_generated(cmd, obj)
    problems = [] if obj.get("all_passed") else ["report says a check failed"]
    problems += oracle.check_report(obj, adj)
    if cmd.kind == "verify":
        methods = (("translates", "symmetrized") if cmd.family.uniform_scale
                   else ("homothets",))
        expected = {f"{k}_{m}" for m in methods for k in ("coloring", "partition")}
        if set(obj.get("outputs", {})) != expected:
            problems.append(f"verify outputs {sorted(obj.get('outputs', {}))}, "
                            f"expected {sorted(expected)}")
    return problems


def check_generated(cmd: Command, obj: dict) -> list[str]:
    """A random family has the requested size and every pair at least the
    tangency margin away from flipping; a pentagon family has the C5 blow-up
    adjacency, and its disjoint variant k separate 5-cycles."""
    construction = cmd.args[0]
    body, centers, scales = oracle.family_arrays(obj)
    if len(centers) != cmd.members:
        return [f"generated {len(centers)} members, expected {cmd.members}"]
    if construction == "random":
        margins = body.margins(centers, scales, centers, scales)
        np.fill_diagonal(margins, np.inf)
        if (np.abs(margins) < oracle.TANGENCY_MARGIN - oracle.TOL).any():
            return ["generated pair closer to tangency than the margin"]
        return []
    idx = np.arange(cmd.members)
    if construction == "pentagon":
        group, copy = idx // (cmd.members // 5), np.zeros_like(idx)
    else:
        group, copy = idx % 5, idx // 5
    step = (group[:, None] - group[None, :]) % 5
    expected = (copy[:, None] == copy[None, :]) & ((step == 0) | (step == 1) | (step == 4))
    np.fill_diagonal(expected, False)
    if (oracle.adjacency(obj) != expected).any():
        return [f"{construction} adjacency is not the expected pattern"]
    return []


def load_pins(workload: str) -> dict[str, str]:
    """Pinned digests of the warm-ups and, by label, of `workload`'s commands."""
    with open(PINS) as fh:
        pins = json.load(fh)
    return {**pins.get("warmup", {}), **pins.get(workload, {})}


def setup(workload: str, seed: int, work_dir: Path):
    """Import the program, write the inputs, run the warm-ups: the timed set-up."""
    start = time.perf_counter()
    cli = import_program()
    prepared = prepare(workload, seed, work_dir)
    warm = [execute(cli.main, cmd, prepared, warm=True) for cmd in prepared.warmups]
    return cli, prepared, warm, time.perf_counter() - start


def setup_in_child(workload: str, seed: int, work_dir: Path) -> float:
    """Time one more cold set-up in a fresh interpreter."""
    run_py = Path(__file__).resolve().parent / "run.py"
    proc = subprocess.run(
        [sys.executable, str(run_py), "--workload", workload, "--seed", str(seed),
         "--setup-only", str(work_dir)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr[-2000:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def measure(main, prepared: Prepared, seconds: float, trace: bool):
    """Repeat whole passes over the mix until `seconds` have elapsed.

    With tracing, each pass runs the mix untraced and traced, alternating
    which goes first, so the two can be compared command for command.
    """
    outcomes: list[Outcome] = []
    tracer = tracing.Tracer() if trace else None
    start = time.perf_counter()
    passes = 0
    while True:
        pass_start = time.perf_counter()
        modes = [False] if not trace else ([False, True] if passes % 2 == 0 else [True, False])
        for traced in modes:
            if traced:
                with tracer.installed():
                    outcomes += [execute(main, c, prepared, tracer=tracer)
                                 for c in prepared.commands]
            else:
                outcomes += [execute(main, c, prepared) for c in prepared.commands]
        passes += 1
        now = time.perf_counter()
        if now - start >= seconds or now - start + (now - pass_start) > RUN_BUDGET_S:
            return outcomes, passes, tracer


def _percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def end_to_end(workload: str, outcomes: list[Outcome], warm: list[Outcome],
               setup_times: list[float], pins: dict[str, str]) -> tuple[dict, dict]:
    """End-to-end metrics (untraced commands only) and their sample counts."""
    times = [o.seconds for o in outcomes]
    ok = [o for o in outcomes if o.ok]
    wall = sum(times)
    q = TAIL_PERCENTILE[workload]
    tail = _percentile(times, q)
    values = {
        "op_p50_s": _percentile(times, 50),
        "op_tail_s": tail,
        "ops_per_s": len(ok) / wall,
        "members_per_s": sum(o.cmd.members for o in ok) / wall,
    }
    counts = {"op_p50_s": len(times), "op_tail_s": len(times),
              "ops_per_s": len(times), "members_per_s": len(times)}
    for kind in tracing.COMMANDS:
        kind_times = [o.seconds for o in outcomes if o.cmd.kind == kind]
        values[f"{kind}_p50_s"] = _percentile(kind_times, 50)
        counts[f"{kind}_p50_s"] = len(kind_times)
    values["ok_ratio"] = len(ok) / len(outcomes)
    counts["ok_ratio"] = len(outcomes)
    pinned = [o for o in outcomes + warm if o.cmd.label in pins]
    values["identical_ratio"] = sum(o.digest == pins[o.cmd.label] for o in pinned) / len(pinned)
    counts["identical_ratio"] = len(pinned)
    values["setup_s"] = float(np.median(setup_times))
    counts["setup_s"] = len(setup_times)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    counts["peak_rss_mb"] = 1
    extra = {"op_tail_percentile": q,
             "op_tail_samples_beyond": sum(t > tail for t in times)}
    return values, {"samples": counts, **extra}


def per_layer(outcomes: list[Outcome], tracer: tracing.Tracer) -> dict:
    """Per-layer metrics from the traced commands; trace_overhead compares
    traced with untraced wall time over the commands that finished both ways."""
    plain = Counter()
    traced = Counter()
    kinds = Counter()
    for o in outcomes:
        if o.error is not None:
            continue
        (traced if o.traced else plain)[o.cmd.label] += o.seconds
    both = set(plain) & set(traced)
    overhead = sum(traced[k] for k in both) / sum(plain[k] for k in both)
    for o in outcomes:
        if o.traced:
            kinds[o.cmd.kind] += 1
    return tracing.layer_metrics(tracer, kinds, overhead)


def provenance(workload: str, seed: int, trace: bool, passes: int) -> dict:
    import scipy
    return {
        "workload": workload, "seed": seed, "trace": trace, "passes": passes,
        "git_commit": git_commit(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "deadline_s": DEADLINE_S,
        "client": "closed loop, 1 client, in-process",
    }


def git_commit() -> str | None:
    """HEAD of the checkout's own .git, if it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, provenance line)."""
    work_dir = WORK / workload
    cli, prepared, warm, first_setup = setup(workload, seed, work_dir / "main")
    setup_times = [first_setup] + [
        setup_in_child(workload, seed, work_dir / f"setup{k}") for k in range(1, SETUP_REPEATS)
    ]
    pins = load_pins(workload) if seed == DEFAULT_SEED else load_pins("")
    outcomes, passes, tracer = measure(cli.main, prepared, seconds, trace)
    everything = warm + outcomes
    correct = all(o.correct for o in everything)
    if trace:
        mismatched = digest_mismatches(outcomes)
        correct = correct and not mismatched
        metrics = per_layer(outcomes, tracer)
        info = {"traced_commands": tracer.commands, "trace_digest_mismatches": mismatched}
        write_trace(work_dir, tracer, metrics)
    else:
        values, info = end_to_end(workload, outcomes, warm, setup_times, pins)
        metrics = {k: (v, E2E_UNITS[k]) for k, v in values.items()}
    info["failed_commands"] = sorted({o.cmd.label for o in everything if not o.ok})
    info["problems"] = sorted({f"{o.cmd.label}: {p}" for o in everything for p in o.problems}
                              | {f"{o.cmd.label}: {o.error}" for o in everything
                                 if o.error not in (None, "deadline")})
    write_samples(work_dir, everything)
    result = {
        "correct": bool(correct),
        "attempted": len(everything),
        "failed": sum(not o.ok for o in everything),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, {"provenance": {**provenance(workload, seed, trace, passes), **info}}


def digest_mismatches(outcomes: list[Outcome]) -> list[str]:
    """Labels whose traced report bytes differ from their untraced bytes."""
    seen: dict[tuple[str, bool], set] = {}
    for o in outcomes:
        if o.digest is not None:
            seen.setdefault((o.cmd.label, o.traced), set()).add(o.digest)
    return sorted({label for (label, traced), d in seen.items()
                   if (label, not traced) in seen and seen[(label, not traced)] != d})


def write_samples(work_dir: Path, outcomes: list[Outcome]) -> None:
    rows = [{"label": o.cmd.label, "kind": o.cmd.kind, "seconds": o.seconds, "code": o.code,
             "ok": o.ok, "traced": o.traced, "error": o.error} for o in outcomes]
    with open(work_dir / "samples.json", "w") as fh:
        json.dump(rows, fh, indent=1)


def write_trace(work_dir: Path, tracer: tracing.Tracer, metrics: dict) -> None:
    """Per-span totals of the traced run, largest self time first."""
    names = sorted(tracer.self_s, key=lambda n: -tracer.self_s[n])
    table = [{"span": n, "calls": tracer.counts[f"{n}.calls"], "self_s": tracer.self_s[n]}
             for n in names]
    with open(work_dir / "trace.json", "w") as fh:
        json.dump({"traced_commands": tracer.commands, "spans": table,
                   "metrics": {k: v for k, (v, _) in metrics.items()}}, fh, indent=1)
