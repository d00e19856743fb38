"""Benchmark runner for the ``blowfish`` CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Load model: a closed loop with one client. A session is the workload's fixed
sequence of CLI commands; each command is a child process started in a fresh
session directory only after the previous one exited. Sessions repeat while
the next one is expected to end within ``--seconds``. Set-up (input
generation and one warm-up CLI call) is repeated before every round of
sessions and its median reported.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics ``session_s``, ``peak_rss_mb`` and ``setup_s``. With
``--trace 1`` untraced and traced sessions alternate, and the object holds the
per-layer metrics of ``tracer.py`` taken from the traced session with the
median (low) session time; ``trace.overhead_s`` is that time minus the median
untraced session time. ``attempted`` and ``failed`` count commands; a command
fails on an unexpected exit code or an output check.

Children run the checkout's own ``src`` through ``PYTHONPATH`` with a fixed
hash seed and single-threaded BLAS/OpenMP. Scratch directories, span files
and full results go under ``.bench_tmp`` and ``.bench_out`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import tracer
from workloads import WORKLOADS, CheckFailed, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP = ROOT / ".bench_tmp"
OUT = ROOT / ".bench_out"
TRACER = Path(tracer.__file__).resolve()

# Every round of sessions is preceded by this many set-ups, so set-up samples
# are spread over the run like session samples, and their median is reported.
SETUPS_PER_ROUND = 2
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class EnvironmentBroken(Exception):
    """The checkout cannot run the CLI at all, so nothing can be measured."""


def child_env() -> dict[str, str]:
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith(("PYTHON", "BLOWFISH_")) and k not in THREAD_VARIABLES
    }
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    # One client on a small machine: a single BLAS thread never exceeds nproc
    # and keeps the child from competing with itself.
    env.update({name: "1" for name in THREAD_VARIABLES})
    return env


def git_commit() -> str:
    """HEAD of the checkout from ``.git`` files, or ``unknown`` outside git."""
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
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "commit": git_commit(),
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


# ---------------------------------------------------------------------------
# Running commands and sessions


def run_command(argv: list[str], directory: Path, env: dict, stem: str) -> dict:
    """Run one child to completion; wall time, exit code and its rusage."""
    with open(directory / f"{stem}.out", "wb") as out, open(directory / f"{stem}.err", "wb") as err:
        spawned = time.monotonic_ns()
        env = dict(env, BENCH_SPAWN_NS=str(spawned))
        proc = subprocess.Popen(argv, cwd=directory, env=env, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        reaped = time.monotonic_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "spawned_ns": spawned,
        "wall_ns": reaped - spawned,
        "code": proc.returncode,
        "rss_kb": usage.ru_maxrss,
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }


class Bench:
    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.env = child_env()
        self.steps = workload.steps(seed)
        self.inputs: dict[str, str] = {}

    def _fresh_directory(self) -> Path:
        TMP.mkdir(exist_ok=True)
        directory = Path(tempfile.mkdtemp(prefix=f"{self.workload.name}-", dir=TMP))
        for name, text in self.inputs.items():
            (directory / name).write_text(text, encoding="utf-8")
        return directory

    def setup_once(self) -> float:
        """Generate the inputs and make one discarded warm-up CLI call."""
        started = time.perf_counter()
        self.inputs = self.workload.inputs(self.seed)
        directory = self._fresh_directory()
        try:
            warm = run_command(
                [sys.executable, "-m", "blowfish_privacy.cli", "--help"], directory, self.env, "warm"
            )
            if warm["code"] != 0:
                detail = (directory / "warm.err").read_text(errors="replace").strip()
                raise EnvironmentBroken(f"warm-up exited {warm['code']}: {detail[-500:]}")
        finally:
            shutil.rmtree(directory)
        return time.perf_counter() - started

    def session(self, traced: bool) -> dict:
        directory = self._fresh_directory()
        try:
            commands = []
            start = time.monotonic_ns()
            for k, step in enumerate(self.steps):
                env = self.env
                if traced:
                    argv = [sys.executable, str(TRACER), *step.args]
                    env = dict(env, BENCH_SPAN_FILE=str(directory / f"cmd{k}.spans"))
                else:
                    argv = [sys.executable, "-m", "blowfish_privacy.cli", *step.args]
                commands.append(dict(run_command(argv, directory, env, f"cmd{k}"), kind=step.kind))
            wall_ns = time.monotonic_ns() - start
            problems = self._check(directory, commands)
            if traced:
                for k, command in enumerate(commands):
                    command["spans"] = self._read_spans(directory / f"cmd{k}.spans")
        finally:
            shutil.rmtree(directory)
        return {
            "traced": traced,
            "wall_ns": wall_ns,
            "peak_rss_kb": max(c["rss_kb"] for c in commands),
            "attempted": len(commands),
            "failed": len(problems),
            "problems": problems,
            "commands": commands,
        }

    def _check(self, directory: Path, commands: list[dict]) -> list[str]:
        problems = []
        for k, (step, command) in enumerate(zip(self.steps, commands)):
            label = f"command {k} ({step.kind})"
            if command["code"] != 0:
                detail = (directory / f"cmd{k}.err").read_text(errors="replace").strip()
                problems.append(f"{label} exited {command['code']}: {detail[-300:]}")
                continue
            if step.check is None:
                continue
            stdout = (directory / f"cmd{k}.out").read_text(errors="replace")
            try:
                step.check(directory, stdout)
            except (CheckFailed, KeyError, ValueError, OSError) as exc:
                problems.append(f"{label} output check failed: {exc!r}")
        return problems

    @staticmethod
    def _read_spans(path: Path) -> list[dict]:
        if not path.is_file():  # the child died before main; it counts as failed
            return []
        with path.open(encoding="utf-8") as handle:
            return [json.loads(line) for line in handle]


# ---------------------------------------------------------------------------
# One workload


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(workload: Workload, seed: int, seconds: int, trace: bool) -> dict:
    bench = Bench(workload, seed)

    # Start another round only while it is expected to end within the run, so
    # a run lasts about --seconds however long one session takes.
    setups = []
    sessions = []
    rounds = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        setups += [bench.setup_once() for _ in range(SETUPS_PER_ROUND)]
        sessions.append(bench.session(traced=False))
        if trace:
            sessions.append(bench.session(traced=True))
        rounds.append(time.monotonic() - began)
        if time.monotonic() - start + statistics.median(rounds) > seconds:
            break

    plain = [s for s in sessions if not s["traced"]]
    walls = [s["wall_ns"] / 1e9 for s in plain]
    q1, session_s, q3 = quartiles(walls)
    attempted = sum(s["attempted"] for s in sessions)
    failed = sum(s["failed"] for s in sessions)
    summary = {
        "workload": workload.name,
        "trace": int(trace),
        "provenance": provenance(seed),
        "samples": {"sessions": len(plain), "traced_sessions": len(sessions) - len(plain),
                    "setups": len(setups), "commands": attempted},
        "session_s": {"median": session_s, "q1": q1, "q3": q3, "values": walls},
        "setup_s": setups,
        "failed_ratio": failed / attempted,
        "problems": [p for s in sessions for p in s["problems"]],
    }

    if not trace:
        metrics = {
            "session_s": metric(session_s, "s"),
            "peak_rss_mb": metric(
                statistics.median(s["peak_rss_kb"] for s in plain) / 1024, "MB"
            ),
            "setup_s": metric(statistics.median(setups), "s"),
        }
    else:
        traced = sorted((s for s in sessions if s["traced"]), key=lambda s: s["wall_ns"])
        chosen = traced[(len(traced) - 1) // 2]
        layers = tracer.session_layers(chosen["commands"], chosen["wall_ns"])
        layers["trace.overhead_s"] = layers["trace.session_s"] - session_s
        summary["layer_sum_s"] = tracer.layer_sum_s(layers) + layers["trace.unaccounted_s"]
        metrics = {name: metric(value, tracer.unit(name)) for name, value in layers.items()}
        write_spans(workload.name, seed, traced)

    summary["metrics"] = metrics
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "summary": summary,
    }


def write_spans(name: str, seed: int, traced: list[dict]) -> None:
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans-{name}-seed{seed}.jsonl", "w", encoding="utf-8") as handle:
        for session_id, session in enumerate(traced):
            for command_id, command in enumerate(session["commands"]):
                for span in command["spans"]:
                    record = dict(span, session=session_id, command=command_id, kind=command["kind"])
                    handle.write(json.dumps(record) + "\n")


def print_summary(result: dict) -> None:
    summary = result["summary"]
    samples = summary["samples"]
    session = summary["session_s"]
    print(
        f"# {summary['workload']}  seed={summary['provenance']['seed']}  trace={summary['trace']}  "
        f"sessions={samples['sessions']}  traced_sessions={samples['traced_sessions']}"
    )
    print(
        f"session_s = {session['median']:.4f} s  (median of {samples['sessions']}, "
        f"q1 {session['q1']:.4f}, q3 {session['q3']:.4f})"
    )
    for name, value in result["metrics"].items():
        if name != "session_s":
            print(f"{name} = {value['value']:.6g} {value['unit']}")
    print(
        f"failed_ratio = {summary['failed_ratio']:.6g} ratio  "
        f"({result['failed']}/{result['attempted']} commands)"
    )
    if "layer_sum_s" in summary:
        print(
            f"layer self times + trace.unaccounted_s = {summary['layer_sum_s']:.6f} s "
            f"(trace.session_s {result['metrics']['trace.session_s']['value']:.6f} s)"
        )
    for problem in summary["problems"]:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(json.dumps({"provenance": summary["provenance"], "samples": samples}))


def save(result: dict, seed: int) -> None:
    summary = result["summary"]
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{summary['workload']}-seed{seed}-trace{summary['trace']}.json"
    path.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not (SRC / "blowfish_privacy" / "cli.py").is_file():
        print(f"error: no blowfish_privacy sources under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
            save(result, args.seed)
            print_summary(result)
            results[name] = {k: v for k, v in result.items() if k != "summary"}
    except EnvironmentBroken as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if TMP.is_dir() and not any(TMP.iterdir()):
            TMP.rmdir()
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
