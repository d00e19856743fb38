"""The four benchmark workloads: seeded inputs, CLI sessions and output checks.

A session is a fixed sequence of ``blowfish`` commands run one after another
in a fresh directory. Every command is checked by meaning after the session,
against values computed here from first principles and never with the
library, at the library's own tolerances (1e-9 for bounds and row sums,
1e-12 for privacy levels).
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BOUND_TOLERANCE = 1e-9
EPSILON_TOLERANCE = 1e-12
LOG2E = math.log2(math.e)

# Distance-threshold secret graph shared by the first two workloads: values
# 1..4 with theta = 1 form a path of diameter 3.
VALUES = (1, 2, 3, 4)
LABELS = tuple(str(v) for v in VALUES)
PATH_EDGES = 3
PATH_DIAMETER = 3
RECORDS = 5
EPSILON = 0.1
CONSTRAINED_DATABASES = 160

TIGHTNESS_NS = tuple(2**k for k in range(1, 10))
TIGHTNESS_DELTAS = (1.0, 0.1, 0.01, 0.001)
FIGURE_THETAS = (1.0, 2.0, 3.0)
FIGURE_N_MAX = 8
FIGURE_EPSILON = 0.1


class CheckFailed(Exception):
    """A command's output does not mean what the paper says it must."""


def read_kv(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


def read_csv_rows(path: Path) -> list[dict[str, str]]:
    """Rows keyed by column name, so added or dropped columns do not matter."""
    with path.open(newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def expect_close(actual: float, expected: float, what: str) -> None:
    expect(
        abs(actual - expected) <= BOUND_TOLERANCE,
        f"{what} is {actual!r}, expected {expected!r}",
    )


@dataclass(frozen=True)
class Step:
    """One CLI command: its kind (``policy build``...), arguments and check.

    ``check`` receives the session directory and the command's stdout and
    raises :class:`CheckFailed` when the output is wrong.
    """

    kind: str
    args: tuple[str, ...]
    check: Callable[[Path, str], None] | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # Files written into every session directory, made from the seed alone.
    inputs: Callable[[int], dict[str, str]]
    steps: Callable[[int], list[Step]]


def _cmd(kind: str, *args: str, check=None) -> Step:
    return Step(kind, tuple(kind.split()) + args, check)


# ---------------------------------------------------------------------------
# unconstrained-pipeline


def _check_validate(directory: Path, stdout: str) -> None:
    expect(
        stdout.strip()
        == f"valid: {len(VALUES)} tuples, {PATH_EDGES} secret edges, n={RECORDS}, permissible=all",
        f"unexpected validate output {stdout.strip()!r}",
    )


def _check_unconstrained_graph(directory: Path, stdout: str) -> None:
    doc = json.loads((directory / "graph.json").read_text(encoding="utf-8"))
    databases = len(VALUES) ** RECORDS
    expect(len(doc["vertices"]) == databases, f"{len(doc['vertices'])} vertices")
    # One record changes along one secret edge: n * |E| * m^(n-1) edges.
    edges = RECORDS * PATH_EDGES * len(VALUES) ** (RECORDS - 1)
    expect(len(doc["edges"]) == edges, f"{len(doc['edges'])} edges, expected {edges}")


def _unconstrained_upper_bits() -> float:
    # Connected graph: leakage <= epsilon * diameter * log2(e).
    return RECORDS * PATH_DIAMETER * EPSILON * LOG2E


def _check_unconstrained_bound(report: dict[str, str]) -> None:
    expect(report["input_count"] == str(len(VALUES) ** RECORDS), "input_count")
    expect(report["component_count"] == "1", f"component_count {report['component_count']}")
    expect(
        report["max_diameter"] == str(RECORDS * PATH_DIAMETER),
        f"max_diameter {report['max_diameter']}",
    )
    expect_close(
        float(report["leakage_upper_bits"]), _unconstrained_upper_bits(), "leakage_upper_bits"
    )


def _check_unconstrained_verify(directory: Path, stdout: str) -> None:
    report = read_kv(directory / "verify.txt")
    databases = str(len(VALUES) ** RECORDS)
    expect(report["rows"] == databases and report["columns"] == databases, "channel shape")
    expect(report["violations"] == "0", f"violations {report['violations']}")
    expect(report["private_at_target"] == "true", "private_at_target")
    expect(float(report["minimal_epsilon"]) <= EPSILON + EPSILON_TOLERANCE, "minimal_epsilon")


def _check_unconstrained_leakage(directory: Path, stdout: str) -> None:
    leak = float(read_kv(directory / "leakage.txt")["leakage_bits"])
    expect(0.0 < leak <= _unconstrained_upper_bits() + BOUND_TOLERANCE, f"leakage_bits {leak}")


def _check_unconstrained_audit(directory: Path, stdout: str) -> None:
    report = read_kv(directory / "audit.txt")
    _check_unconstrained_bound(report)
    expect(report["bounds_hold"] == "true", "bounds_hold")
    leak = float(read_kv(directory / "leakage.txt")["leakage_bits"])
    expect_close(float(report["measured_leakage_bits"]), leak, "measured_leakage_bits")


def _unconstrained_steps(seed: int) -> list[Step]:
    eps = repr(EPSILON)
    return [
        _cmd(
            "policy build",
            "--kind", "distance-threshold", "--values", ",".join(LABELS), "--theta", "1",
            "--n", str(RECORDS), "--out", "policy.json",
        ),
        _cmd("policy validate", "policy.json", check=_check_validate),
        _cmd("adjacency induce", "policy.json", "--out", "graph.json",
             check=_check_unconstrained_graph),
        _cmd("bound compute", "policy.json", "--epsilon", eps, "--out", "bound.txt",
             check=lambda d, _: _check_unconstrained_bound(read_kv(d / "bound.txt"))),
        _cmd("channel generate", "--policy", "policy.json", "--epsilon", eps, "--out", "k.csv"),
        _cmd("channel verify", "k.csv", "--graph", "graph.json", "--epsilon", eps,
             "--out", "verify.txt", check=_check_unconstrained_verify),
        _cmd("channel leakage", "k.csv", "--out", "leakage.txt",
             check=_check_unconstrained_leakage),
        _cmd("bound compute", "policy.json", "--epsilon", eps, "--channel", "k.csv",
             "--out", "audit.txt", check=_check_unconstrained_audit),
    ]


# ---------------------------------------------------------------------------
# constrained-scan


def sample_permissible(seed: int) -> list[list[str]]:
    """``CONSTRAINED_DATABASES`` distinct databases drawn from all m^n by ``seed``."""
    universe = list(itertools.product(LABELS, repeat=RECORDS))
    return [list(db) for db in random.Random(seed).sample(universe, CONSTRAINED_DATABASES)]


def _constrained_inputs(seed: int) -> dict[str, str]:
    return {"permissible.json": json.dumps(sample_permissible(seed))}


def _check_constrained_graph(directory: Path, stdout: str) -> None:
    doc = json.loads((directory / "graph.json").read_text(encoding="utf-8"))
    given = json.loads((directory / "permissible.json").read_text(encoding="utf-8"))
    expect(sorted(doc["vertices"]) == sorted(given), "graph vertices differ from the permissible list")


def _check_constrained_verify(directory: Path, stdout: str) -> None:
    report = read_kv(directory / "verify.txt")
    size = str(CONSTRAINED_DATABASES)
    expect(report["rows"] == size and report["columns"] == size, "channel shape")
    expect(report["violations"] == "0", f"violations {report['violations']}")
    expect(report["private_at_target"] == "true", "private_at_target")


def _check_constrained_audit(directory: Path, stdout: str) -> None:
    report = read_kv(directory / "audit.txt")
    expect(report["input_count"] == str(CONSTRAINED_DATABASES), "input_count")
    expect(report["bounds_hold"] == "true", "bounds_hold")


def _constrained_steps(seed: int) -> list[Step]:
    eps = repr(EPSILON)
    return [
        _cmd(
            "policy build",
            "--kind", "distance-threshold", "--values", ",".join(LABELS), "--theta", "1",
            "--n", str(RECORDS), "--permissible", "permissible.json", "--out", "policy.json",
        ),
        _cmd("adjacency induce", "policy.json", "--out", "graph.json",
             check=_check_constrained_graph),
        _cmd("channel generate", "--graph", "graph.json", "--epsilon", eps, "--out", "k.csv"),
        _cmd("channel verify", "k.csv", "--graph", "graph.json", "--epsilon", eps,
             "--out", "verify.txt", check=_check_constrained_verify),
        # Induces the graph a second time from the policy.
        _cmd("bound compute", "policy.json", "--epsilon", eps, "--channel", "k.csv",
             "--out", "audit.txt", check=_check_constrained_audit),
    ]


# ---------------------------------------------------------------------------
# symmetrise-lifted

SYMMETRISE_EPSILON = "0.5"


def _wreath_order(m: int, n: int) -> int:
    """Order of S_m wr S_n: per-record permutations of K_m, then record swaps.

    It is both the lifted group of ``complete --m m --n n`` and the full
    automorphism group of its adjacency graph, the Hamming graph H(n, m).
    """
    return math.factorial(m) ** n * math.factorial(n)


def _check_symmetrised(report_name: str, order: int) -> Callable[[Path, str], None]:
    def check(directory: Path, stdout: str) -> None:
        report = read_kv(directory / report_name)
        expect(report["all_passed"] == "true", f"{report_name}: all_passed is false")
        expect(report["group_order"] == str(order), f"{report_name}: group_order {report['group_order']}")

    return check


def _check_averaged(directory: Path, stdout: str) -> None:
    _check_symmetrised("sym-full.txt", _wreath_order(3, 4))(directory, stdout)
    with (directory / "averaged.csv").open(newline="", encoding="utf-8") as handle:
        rows = [[float(x) for x in row] for row in csv.reader(handle) if row]
    size = 3**4
    expect(len(rows) == size and all(len(r) == size for r in rows), "averaged shape")
    for row in rows:
        expect(abs(math.fsum(row) - 1.0) <= BOUND_TOLERANCE, "averaged row sum")
        expect(min(row) >= 0.0, "averaged entry below 0")


def _symmetrise_steps(seed: int) -> list[Step]:
    shuffle = ("--shuffle-outputs", "--seed", str(seed))
    return [
        _cmd("policy build", "--kind", "complete", "--m", "3", "--n", "4", "--out", "p3.json"),
        _cmd("channel generate", "--policy", "p3.json", "--epsilon", SYMMETRISE_EPSILON,
             *shuffle, "--out", "k3.csv"),
        _cmd("symmetrise run", "k3.csv", "--policy", "p3.json", "--group", "lifted",
             "--strategy", "full", "--out-averaged", "averaged.csv", "--out", "sym-full.txt",
             check=_check_averaged),
        _cmd("symmetrise run", "k3.csv", "--policy", "p3.json", "--group", "lifted",
             "--strategy", "orbit", "--out", "sym-orbit.txt",
             check=_check_symmetrised("sym-orbit.txt", _wreath_order(3, 4))),
        _cmd("policy build", "--kind", "complete", "--m", "4", "--n", "2", "--out", "p4.json"),
        _cmd("channel generate", "--policy", "p4.json", "--epsilon", SYMMETRISE_EPSILON,
             *shuffle, "--out", "k4.csv"),
        _cmd("symmetrise run", "k4.csv", "--policy", "p4.json", "--group", "full",
             "--out", "sym-aut.txt",
             check=_check_symmetrised("sym-aut.txt", _wreath_order(4, 2))),
    ]


# ---------------------------------------------------------------------------
# paper-figures


def _check_sweep(directory: Path, stdout: str) -> None:
    rows = read_csv_rows(directory / "sweep.csv")
    expect(len(rows) == len(TIGHTNESS_NS) * len(TIGHTNESS_DELTAS), f"{len(rows)} sweep rows")
    for row in rows:
        n, delta = int(row["n"]), float(row["delta"])
        expect(float(row["closed_form_gap"]) <= BOUND_TOLERANCE, f"closed_form_gap n={n}")
        expect(float(row["ratio"]) >= 1.0, f"ratio below 1 at n={n}, delta={delta}")
        # n components of diameter 1 at epsilon = ln(1 + delta).
        expect_close(float(row["bound_bits"]), math.log2(n * (1.0 + delta)), "bound_bits")


def _check_figure(directory: Path, stdout: str) -> None:
    rows = read_csv_rows(directory / "figure.csv")
    expect(len(rows) == len(FIGURE_THETAS) * FIGURE_N_MAX, f"{len(rows)} figure rows")
    span = VALUES[-1] - VALUES[0]
    for row in rows:
        n, theta, eps = int(row["n"]), float(row["theta_or_kind"]), float(row["epsilon"])
        # Threshold theta on 1..4: the value path has diameter ceil(3 / theta).
        expected = n * math.ceil(span / theta) * eps * LOG2E
        expect_close(float(row["bound_bits"]), expected, f"bound_bits n={n}, theta={theta}")


def _figures_steps(seed: int) -> list[Step]:
    return [
        _cmd("tightness sweep", "--n", ",".join(map(str, TIGHTNESS_NS)),
             "--delta", ",".join(map(repr, TIGHTNESS_DELTAS)), "--out", "sweep.csv",
             check=_check_sweep),
        _cmd("figure bound-sweep", "--n-max", str(FIGURE_N_MAX),
             "--thetas", ",".join(map(repr, FIGURE_THETAS)),
             "--epsilon", repr(FIGURE_EPSILON), "--out", "figure.csv", check=_check_figure),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "unconstrained-pipeline",
            "1,024-database threshold policy through every audit command: channel numerics, "
            "all-pairs BFS and CSV I/O dominate; induction takes the fast path",
            lambda seed: {},
            _unconstrained_steps,
        ),
        Workload(
            "constrained-scan",
            "160 seeded permissible databases: two definition-path inductions do most of "
            "the work, channels are only 160x160",
            _constrained_inputs,
            _constrained_steps,
        ),
        Workload(
            "symmetrise-lifted",
            "complete m=3 n=4 lifted group of order 31,104 plus a 16-vertex automorphism "
            "search: group closure and averaging dominate",
            lambda seed: {},
            _symmetrise_steps,
        ),
        Workload(
            "paper-figures",
            "tightness sweep of 36 in-memory channels up to 1026x1026 plus the bound "
            "figure: channel validation with no CSV reads",
            lambda seed: {},
            _figures_steps,
        ),
    )
}
