import errno
import io
import json
import math
import os
import random
import stat
import subprocess
import sys
import tempfile
import time
import tokenize
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from blowfish_privacy import channel as channel_mod
from blowfish_privacy import symmetrise as symmetrise_mod
from blowfish_privacy import (
    custom_policy,
    cycle_policy,
    distance_threshold_policy,
    graphcore,
    induce_adjacency_graph,
    policy_to_json,
)
from blowfish_privacy.adjacency import (
    AdjacencyAsymmetryWarning,
    adjacency_from_json,
    adjacency_to_json,
)
from blowfish_privacy.channel import channel_to_csv
from blowfish_privacy.cli import build_parser, main

from helpers import (
    oracle_distances,
    randomized_response,
    run_cli_with_address_limit,
    small_policies,
    sparse_graphs,
)

LOG2E = math.log2(math.e)


def run(*argv):
    return main(list(argv))


def build_path_policy(tmp_path, n=2, theta=1):
    path = tmp_path / f"policy_t{theta}_n{n}.json"
    code = run(
        "policy", "build",
        "--kind", "distance-threshold",
        "--values", "1,2,3,4",
        "--theta", str(theta),
        "--n", str(n),
        "--out", str(path),
    )
    assert code == 0
    return path


def parse_report(text):
    out = {}
    for line in text.strip().splitlines():
        key, _, value = line.partition(": ")
        out[key] = value
    return out


def test_policy_build_writes_expected_document(tmp_path):
    path = build_path_policy(tmp_path)
    doc = json.loads(path.read_text())
    assert doc["tuples"] == ["1", "2", "3", "4"]
    assert doc["values"] == [1, 2, 3, 4]
    assert doc["secret_edges"] == [["1", "2"], ["2", "3"], ["3", "4"]]
    assert doc["n"] == 2
    assert doc["permissible"] == "all"


def test_policy_validate_accepts_good_document(tmp_path, capsys):
    path = build_path_policy(tmp_path)
    assert run("policy", "validate", str(path)) == 0
    assert "valid" in capsys.readouterr().out


def test_policy_validate_semantic_failure_exits_one(tmp_path):
    doc = {
        "tuples": ["1", "2"],
        "secret_edges": [["2", "2"]],
        "n": 1,
        "permissible": "all",
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run("policy", "validate", str(path)) == 1


def test_policy_validate_refuses_non_finite_values(tmp_path, capsys):
    """A document whose values overflow to inf or hold NaN is not valid:
    policy_to_json would write them as Infinity and NaN, which are not JSON."""
    path = tmp_path / "nonfinite.json"
    path.write_text(
        '{"tuples":["a","b"],"values":[1e400,NaN],"secret_edges":[["a","b"]],'
        '"n":1,"permissible":"all"}'
    )
    assert run("policy", "validate", str(path)) == 1
    assert capsys.readouterr().out == "invalid: tuple values must be finite, got inf\n"


def test_policy_validate_malformed_exits_two(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    assert run("policy", "validate", str(path)) == 2


def test_policy_build_rejects_missing_parameters(tmp_path):
    code = run(
        "policy", "build", "--kind", "cycle", "--n", "1",
        "--out", str(tmp_path / "x.json"),
    )
    assert code == 2


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as err:
        run("nonsense")
    assert err.value.code == 2


def test_adjacency_induce(tmp_path):
    policy = build_path_policy(tmp_path)
    out = tmp_path / "graph.json"
    assert run("adjacency", "induce", str(policy), "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert len(doc["vertices"]) == 16
    assert len(doc["edges"]) == 24


def test_adjacency_cap_exceeded_exits_three(tmp_path):
    policy = build_path_policy(tmp_path, n=20)
    code = run(
        "adjacency", "induce", str(policy),
        "--max-databases", "1000000",
        "--out", str(tmp_path / "never.json"),
    )
    assert code == 3
    assert not (tmp_path / "never.json").exists()


@pytest.mark.parametrize("n, count", [
    (20, str(4**20)), (31, str(4**31)), (32, "4^32"), (7142, "4^7142"),
])
def test_a_cap_error_names_a_count_past_maxsize_as_a_power(
    tmp_path, capsys, digit_limit, n, count
):
    """Counts up to ``sys.maxsize`` (2^63 - 1 on a 64-bit build, above
    4^31) are written out, larger ones as ``m^n``: at n = 7,142 the error
    is one short line, not 4,300 digits."""
    policy = build_path_policy(tmp_path, n=n)
    capsys.readouterr()
    out = tmp_path / "never.json"
    code = run("adjacency", "induce", str(policy), "--max-databases", "1000000",
               "--out", str(out))
    assert code == 3
    assert not out.exists()
    assert capsys.readouterr().err == (
        f"error: permissible set has {count} databases, exceeding the cap of 1000000\n"
    )


def test_explicit_permissible_set_is_capped(tmp_path):
    permissible = tmp_path / "permissible.json"
    permissible.write_text(json.dumps([[a, b] for a in "1234" for b in "1234"]))
    policy = tmp_path / "policy.json"
    code = run(
        "policy", "build",
        "--kind", "distance-threshold",
        "--values", "1,2,3,4",
        "--theta", "1",
        "--n", "2",
        "--permissible", str(permissible),
        "--out", str(policy),
    )
    assert code == 0
    code = run(
        "adjacency", "induce", str(policy),
        "--max-databases", "10",
        "--out", str(tmp_path / "never.json"),
    )
    assert code == 3
    assert not (tmp_path / "never.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("channel", "generate", "--epsilon", "1"),
        ("channel", "verify", "k.csv"),
        ("symmetrise", "run", "k.csv"),
    ],
    ids=["generate", "verify", "symmetrise"],
)
def test_loaded_graph_is_capped(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    policy = build_path_policy(tmp_path)
    assert run("adjacency", "induce", str(policy), "--out", "graph.json") == 0
    assert run("channel", "generate", "--policy", str(policy), "--epsilon", "1",
               "--out", "k.csv") == 0
    code = run(*argv, "--graph", "graph.json", "--max-databases", "10", "--out", "never")
    assert code == 3
    assert not (tmp_path / "never").exists()


def _hamming_graph(vertices):
    """Graph document joining the vertices that differ in exactly one record."""
    edges = [
        [i, j]
        for i in range(len(vertices))
        for j in range(i + 1, len(vertices))
        if len(vertices[i]) == len(vertices[j])
        and sum(a != b for a, b in zip(vertices[i], vertices[j])) == 1
    ]
    return json.dumps({"vertices": vertices, "edges": edges})


LABELS_3 = ("1", "2", "3")
ALL_PAIRS_3 = [[a, b] for a in LABELS_3 for b in LABELS_3]
BAD_GRAPH_CASES = {  # vertex list, and the n written into the policy
    "duplicate": (ALL_PAIRS_3[:-1] + [ALL_PAIRS_3[0]], 2),
    "unequal_lengths": (ALL_PAIRS_3[:-1] + [["3"]], 2),
    "wrong_record_count": ([[a, "1", b] for a in LABELS_3 for b in LABELS_3], 2),
    "policy_n_far_larger": (ALL_PAIRS_3, 40),
}


@pytest.mark.parametrize("case", sorted(BAD_GRAPH_CASES))
def test_graph_document_that_is_not_the_policy_database_set_exits_two(
    tmp_path, monkeypatch, capsys, case
):
    """Nine vertices against a complete m = 3 policy: each list has the
    count of the n = 2 databases but does not name the policy's databases.
    With n = 40 the 3**40 databases must not be built to find that out."""
    monkeypatch.chdir(tmp_path)
    vertices, n = BAD_GRAPH_CASES[case]
    assert run("policy", "build", "--kind", "complete", "--m", "3", "--n", "2",
               "--out", "p.json") == 0
    doc = json.loads((tmp_path / "p.json").read_text())
    (tmp_path / "p.json").write_text(json.dumps({**doc, "n": n}))
    (tmp_path / "g.json").write_text(_hamming_graph(vertices))
    (tmp_path / "k.csv").write_text("0.5,0.5\n" * 9)
    capsys.readouterr()
    code = run("symmetrise", "run", "k.csv", "--graph", "g.json", "--policy", "p.json",
               "--group", "lifted", "--out", "never")
    assert code == 2
    assert not (tmp_path / "never").exists()
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize("command", ["generate", "verify"])
def test_graph_document_with_boolean_edge_indices_exits_two(
    tmp_path, monkeypatch, capsys, command
):
    """JSON true and false are not vertex indices, though Python's bool is an int."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.json").write_text(
        json.dumps({"vertices": [["1"], ["2"]], "edges": [[True, False]]})
    )
    (tmp_path / "k.csv").write_text("1.0,0.0\n0.0,1.0\n")
    argv = {"generate": ["channel", "generate"], "verify": ["channel", "verify", "k.csv"]}
    capsys.readouterr()
    code = run(*argv[command], "--graph", "g.json", "--epsilon", "1", "--out", "never")
    assert code == 2
    assert not (tmp_path / "never").exists()
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


def test_graph_document_with_an_edge_beyond_the_vertices_names_the_range(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.json").write_text(json.dumps({"vertices": [["1"], ["2"]], "edges": [[0, 5]]}))
    (tmp_path / "k.csv").write_text("1.0,0.0\n0.0,1.0\n")
    capsys.readouterr()
    code = run("channel", "verify", "k.csv", "--graph", "g.json", "--epsilon", "1",
               "--out", "never")
    assert code == 2
    assert not (tmp_path / "never").exists()
    captured = capsys.readouterr()
    assert captured.err == (
        "error: edge (0, 5) is not a sorted pair of distinct vertex indices"
        " in 0..1\n"
    )
    assert captured.out == ""


def test_max_databases_env_mirror(tmp_path, monkeypatch):
    policy = build_path_policy(tmp_path, n=20)
    monkeypatch.setenv("BLOWFISH_MAX_DATABASES", "1000000")
    code = run("adjacency", "induce", str(policy), "--out", str(tmp_path / "x.json"))
    assert code == 3


def test_bound_compute_report(tmp_path, capsys):
    policy = build_path_policy(tmp_path)
    assert run("bound", "compute", str(policy), "--epsilon", "0.1") == 0
    report = parse_report(capsys.readouterr().out)
    assert report["component_count"] == "1"
    assert report["max_diameter"] == "6"
    assert float(report["leakage_upper_bits"]) == pytest.approx(0.6 * LOG2E, abs=1e-9)


def test_bound_compute_unconstrained_uses_closed_form(tmp_path, capsys):
    # 4^20 databases: far past the cap, yet no database is materialised.
    policy = build_path_policy(tmp_path, n=20)
    assert run("bound", "compute", str(policy), "--epsilon", "0.1") == 0
    report = parse_report(capsys.readouterr().out)
    assert report["input_count"] == str(4**20)
    assert report["component_count"] == "1"
    assert report["max_diameter"] == "60"
    assert float(report["leakage_upper_bits"]) == pytest.approx(60 * 0.1 * LOG2E, abs=1e-9)


def test_a_count_past_the_digit_limit_exits_three(tmp_path, capsys, digit_limit):
    """4^7142 has 4,300 digits, as many as Python writes out: the closed form
    reports it. 4^7143 and 4^(10^8) exit 3 within a second with one
    ``error:`` line naming the count as a power, and no output."""
    policies = {n: build_path_policy(tmp_path, n=n) for n in (7142, 7143, 10**8)}
    capsys.readouterr()
    assert run("bound", "compute", str(policies[7142]), "--epsilon", "0.1") == 0
    assert parse_report(capsys.readouterr().out)["input_count"] == str(4**7142)
    for n in (7143, 10**8):
        start = time.perf_counter()
        assert run("bound", "compute", str(policies[n]), "--epsilon", "0.1") == 3
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: permissible set has 4^{n} databases, a count of more than 4300 digits\n"
        )
    out = tmp_path / "g.json"
    assert run("adjacency", "induce", str(policies[7143]), "--out", str(out)) == 3
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: permissible set has 4^7143 databases")


def test_bound_compute_channel_over_cap_exits_three(tmp_path):
    policy = build_path_policy(tmp_path, n=20)
    channel = tmp_path / "k.csv"
    channel.write_text("1.0,0.0\n0.0,1.0\n")
    code = run(
        "bound", "compute", str(policy), "--epsilon", "0.1",
        "--channel", str(channel), "--out", str(tmp_path / "never.txt"),
    )
    assert code == 3
    assert not (tmp_path / "never.txt").exists()


def test_output_files_follow_umask(tmp_path):
    for umask, mode in [(0o022, 0o644), (0o027, 0o640)]:
        previous = os.umask(umask)
        try:
            path = build_path_policy(tmp_path)
        finally:
            os.umask(previous)
        assert stat.S_IMODE(path.stat().st_mode) == mode


def test_figure_slopes_via_round_trip(tmp_path, capsys):
    # bound for theta in {1,2,3} at n=2 comes out as n * diam * eps * log2(e)
    eps = 0.1
    bounds = {}
    for theta, diam in [(1, 3), (2, 2), (3, 1)]:
        policy = build_path_policy(tmp_path, theta=theta)
        graph_out = tmp_path / f"graph{theta}.json"
        assert run("adjacency", "induce", str(policy), "--out", str(graph_out)) == 0
        assert run("bound", "compute", str(policy), "--epsilon", str(eps)) == 0
        report = parse_report(capsys.readouterr().out)
        bound = float(report["leakage_upper_bits"])
        assert bound == pytest.approx(2 * diam * eps * LOG2E, abs=1e-9)
        bounds[theta] = bound
    assert bounds[1] > bounds[2] > bounds[3]


def test_channel_generate_verify_leakage_symmetrise(tmp_path, capsys):
    policy = build_path_policy(tmp_path)
    channel_out = tmp_path / "k.csv"
    assert run(
        "channel", "generate", "--policy", str(policy),
        "--epsilon", "0.4", "--out", str(channel_out),
    ) == 0

    assert run(
        "channel", "verify", str(channel_out),
        "--policy", str(policy), "--epsilon", "0.4",
    ) == 0
    report = parse_report(capsys.readouterr().out)
    assert report["private_at_target"] == "true"
    assert float(report["minimal_epsilon"]) <= 0.4 + 1e-12

    assert run("channel", "leakage", str(channel_out)) == 0
    report = parse_report(capsys.readouterr().out)
    assert float(report["leakage_bits"]) >= 0

    assert run(
        "channel", "verify", str(channel_out),
        "--policy", str(policy), "--epsilon", "0.0001",
    ) == 1

    grouped_out = tmp_path / "kp.csv"
    averaged_out = tmp_path / "kpp.csv"
    report_out = tmp_path / "sym.txt"
    assert run(
        "symmetrise", "run", str(channel_out),
        "--policy", str(policy), "--group", "lifted", "--cross-check",
        "--out-grouped", str(grouped_out),
        "--out-averaged", str(averaged_out),
        "--out", str(report_out),
    ) == 0
    report = parse_report(report_out.read_text())
    assert report["all_passed"] == "true"
    assert report["group_order"] == "8"
    assert grouped_out.exists() and averaged_out.exists()


def test_symmetrise_run_defaults_to_the_orbit_strategy():
    args = build_parser().parse_args(["symmetrise", "run", "k.csv"])
    assert args.strategy == "orbit"


def test_channel_generate_shuffle_outputs_is_seeded(tmp_path):
    policy = build_path_policy(tmp_path)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    c = tmp_path / "c.csv"
    base = tmp_path / "base.csv"
    for out, seed in [(a, "5"), (b, "5"), (c, "6")]:
        assert run(
            "channel", "generate", "--policy", str(policy),
            "--epsilon", "0.4", "--shuffle-outputs", "--seed", seed,
            "--out", str(out),
        ) == 0
    assert run(
        "channel", "generate", "--policy", str(policy),
        "--epsilon", "0.4", "--out", str(base),
    ) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()
    assert a.read_bytes() != base.read_bytes()


def test_channel_generate_refuses_a_negative_seed(tmp_path, capsys):
    policy = build_path_policy(tmp_path)
    out = tmp_path / "k.csv"
    assert exit_code(
        "channel", "generate", "--policy", str(policy), "--epsilon", "0.4",
        "--shuffle-outputs", "--seed", "-5", "--out", str(out),
    ) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("usage: blowfish channel generate")
    assert err.endswith("error: argument --seed: invalid non-negative integer value: '-5'\n")


def csv_rows(path):
    return [line.split(",") for line in path.read_text().splitlines()]


@pytest.mark.parametrize("source", ["--policy", "--graph"])
def test_shuffled_channel_is_the_channel_with_its_columns_permuted(tmp_path, source):
    """Each seed writes the unshuffled channel's entries, as text, with one
    permutation of its columns; the unshuffled channel is the one the plain
    int64 BFS distances give."""
    policy, graph = build_path_policy(tmp_path, n=3), tmp_path / "graph.json"
    assert run("adjacency", "induce", str(policy), "--out", str(graph)) == 0
    target = {"--policy": policy, "--graph": graph}[source]
    base = tmp_path / "base.csv"
    assert run("channel", "generate", source, str(target), "--epsilon", "0.4",
               "--out", str(base)) == 0
    adjacency = adjacency_from_json(graph.read_text())
    unpacked = randomized_response(np.array(oracle_distances(adjacency.to_graph())), 0.4)
    assert base.read_text() == "".join(channel_to_csv(unpacked))
    base_rows = csv_rows(base)
    base_columns = sorted(zip(*base_rows))
    for seed in ("0", "5", "424242"):
        out = tmp_path / f"shuffled-{seed}.csv"
        assert run("channel", "generate", source, str(target), "--epsilon", "0.4",
                   "--shuffle-outputs", "--seed", seed, "--out", str(out)) == 0
        rows = csv_rows(out)
        assert len(rows) == len(base_rows) and rows != base_rows
        # A bijection pi with rows[i][j] == base_rows[i][pi(j)] for every row i
        # exists exactly when the two channels have the same multiset of columns.
        assert sorted(zip(*rows)) == base_columns


@pytest.mark.parametrize("source,channels", [("--policy", 1.5), ("--graph", 1.75)])
def test_shuffled_generate_holds_one_channel(tmp_path, source, channels):
    """n = 5: 1,024 databases, an 8 MiB channel. The shuffle permutes the
    distances, so the only dense float array is the channel itself."""
    policy, graph = build_path_policy(tmp_path, n=5), tmp_path / "graph.json"
    assert run("adjacency", "induce", str(policy), "--out", str(graph)) == 0
    target = {"--policy": policy, "--graph": graph}[source]
    out = tmp_path / "k.csv"
    tracemalloc.start()
    try:
        assert run("channel", "generate", source, str(target), "--epsilon", "0.5",
                   "--shuffle-outputs", "--seed", "3", "--out", str(out)) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(out.read_text().splitlines()) == 1024
    assert peak < channels * 1024**2 * 8


def test_tightness_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run(
        "tightness", "sweep", "--n", "2,4,8",
        "--delta", "1,0.1,0.01,0.001", "--out", str(out),
    ) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 13
    header = lines[0].split(",")
    ratio_col = header.index("ratio")
    n_col = header.index("n")
    by_n = {}
    for line in lines[1:]:
        cells = line.split(",")
        by_n.setdefault(cells[n_col], []).append(float(cells[ratio_col]))
    for ratios in by_n.values():
        assert ratios == sorted(ratios, reverse=True)
        assert ratios[-1] < ratios[0]


def test_figure_bound_sweep_csv(tmp_path):
    out = tmp_path / "figure.csv"
    assert run("figure", "bound-sweep", "--epsilon", "0.1", "--out", str(out)) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "n,theta_or_kind,epsilon,q,max_diameter,bound_bits"
    assert len(lines) == 1 + 3 * 8
    row = lines[1].split(",")
    assert row[0] == "1" and row[1] == "1.0"
    assert float(row[5]) == pytest.approx(3 * 0.1 * LOG2E, abs=1e-9)


def test_outputs_byte_identical_across_runs(tmp_path):
    first = tmp_path / "one.csv"
    second = tmp_path / "two.csv"
    for out in (first, second):
        assert run(
            "figure", "bound-sweep", "--epsilon", "0.25", "--out", str(out)
        ) == 0
    assert first.read_bytes() == second.read_bytes()

    s1 = tmp_path / "s1.csv"
    s2 = tmp_path / "s2.csv"
    for out in (s1, s2):
        assert run(
            "tightness", "sweep", "--n", "2,4", "--delta", "0.5,0.1",
            "--out", str(out),
        ) == 0
    assert s1.read_bytes() == s2.read_bytes()


def test_bound_compute_with_channel_audit(tmp_path, capsys):
    policy = build_path_policy(tmp_path)
    channel_out = tmp_path / "k.csv"
    assert run(
        "channel", "generate", "--policy", str(policy),
        "--epsilon", "0.2", "--out", str(channel_out),
    ) == 0
    assert run(
        "bound", "compute", str(policy), "--epsilon", "0.2",
        "--channel", str(channel_out),
    ) == 0
    report = parse_report(capsys.readouterr().out)
    assert report["bounds_hold"] == "true"
    assert float(report["leakage_margin_bits"]) > 0


def exit_code(*argv):
    """Exit status of one CLI call, including argparse's SystemExit."""
    try:
        return run(*argv)
    except SystemExit as exc:
        return exc.code


NON_FINITE_CALLS = {
    "prior_nan": ("channel", "leakage", "{k}", "--prior", "{prior}"),
    "bound_epsilon_nan": ("bound", "compute", "{policy}", "--epsilon", "nan"),
    "figure_epsilon_nan": ("figure", "bound-sweep", "--n-max", "2", "--epsilon", "nan"),
    "verify_epsilon_nan": ("channel", "verify", "{k}", "--policy", "{policy}", "--epsilon", "nan"),
    "theta_nan": ("policy", "build", "--kind", "distance-threshold", "--values", "1,2,3",
                  "--theta", "nan", "--n", "1"),
    "values_nan": ("policy", "build", "--kind", "distance-threshold", "--values", "1,nan,3",
                   "--theta", "1", "--n", "1"),
    "delta_inf": ("tightness", "sweep", "--n", "2", "--delta", "inf"),
    "thetas_inf": ("figure", "bound-sweep", "--thetas", "1,inf", "--n-max", "2"),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_CALLS))
def test_non_finite_numbers_exit_two_without_output(tmp_path, case):
    policy = build_path_policy(tmp_path, n=1)
    k = tmp_path / "k.csv"
    assert run("channel", "generate", "--policy", str(policy), "--epsilon", "1", "--out", str(k)) == 0
    prior = tmp_path / "prior.json"
    prior.write_text("[0.5, NaN, 0.25, 0.25]")
    out = tmp_path / "out.txt"
    argv = [a.format(k=k, prior=prior, policy=policy) for a in NON_FINITE_CALLS[case]]
    assert exit_code(*argv, "--out", str(out)) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "text",
    ["a,b\n1.0,0.0\n0.0,1.0\n", "inf,-inf\n0.0,1.0\n"],
    ids=["unmarked_header", "inf_minus_inf"],
)
def test_bad_channel_csv_exits_two_without_output(tmp_path, capsys, text):
    channel = tmp_path / "k.csv"
    channel.write_text(text)
    assert run("channel", "leakage", str(channel)) == 2
    assert capsys.readouterr().out == ""


def test_channel_verify_rejects_bad_row_sum_without_output(tmp_path, capsys):
    policy = build_path_policy(tmp_path, n=1)
    channel = tmp_path / "k.csv"
    channel.write_text("1.0,0.0\n0.0,1.0\n0.5,0.4\n0.0,1.0\n")
    out = tmp_path / "verify.txt"
    code = run(
        "channel", "verify", str(channel), "--policy", str(policy), "--out", str(out)
    )
    assert code == 2
    assert not out.exists()
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("tightness", "sweep", "--n", "2", "--delta", "1", "--seed", "1"),
        ("figure", "bound-sweep", "--max-group", "10"),
        ("channel", "leakage", "k.csv", "--max-databases", "10"),
        ("channel", "verify", "k.csv", "--graph", "g.json", "--max-cells", "10"),
    ],
    ids=["tightness_seed", "figure_max_group", "leakage_max_databases", "verify_max_cells"],
)
def test_flags_are_refused_where_not_read(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "k.csv").write_text("1.0,0.0\n0.0,1.0\n")
    assert exit_code(*argv) == 2


ABBREVIATED_FLAGS = {
    "policy_build": (("policy", "build", "--kind", "cycle", "--m", "4", "--n", "2",
                      "{flag}", "all", "--out", "{out}"), "--permiss", "--permissible"),
    "policy_validate": (("policy", "validate", "{policy}", "{flag}"), "--hel", "--help"),
    "adjacency_induce": (("adjacency", "induce", "{policy}", "{flag}", "100", "--out", "{out}"),
                         "--max-d", "--max-databases"),
    "bound_compute": (("bound", "compute", "{policy}", "{flag}", "0.5", "--out", "{out}"),
                      "--eps", "--epsilon"),
    "channel_verify": (("channel", "verify", "{k}", "--graph", "{graph}", "{flag}", "0.5",
                        "--out", "{out}"), "--eps", "--epsilon"),
    "channel_leakage": (("channel", "leakage", "{k}", "{flag}", "{prior}", "--out", "{out}"),
                        "--pri", "--prior"),
    "channel_generate": (("channel", "generate", "--policy", "{policy}", "--epsilon", "0.5",
                          "{flag}", "--out", "{out}"), "--shuffle", "--shuffle-outputs"),
    "symmetrise_run": (("symmetrise", "run", "{k}", "--graph", "{graph}", "--group", "trivial",
                        "{flag}", "{out}"), "--out-g", "--out-grouped"),
    "tightness_sweep": (("tightness", "sweep", "--n", "2", "{flag}", "0.5", "--out", "{out}"),
                        "--del", "--delta"),
    "figure_bound_sweep": (("figure", "bound-sweep", "--n-max", "2", "{flag}", "0.5",
                            "--out", "{out}"), "--eps", "--epsilon"),
}


@pytest.mark.parametrize("case", sorted(ABBREVIATED_FLAGS))
def test_abbreviated_flags_exit_two_without_output(tmp_path, capsys, case):
    """Every subcommand refuses an unambiguous prefix of one of its long
    flags with a usage line and writes nothing; the same call with the flag
    spelled in full succeeds."""
    policy = build_path_policy(tmp_path)
    graph, k, prior = tmp_path / "g.json", tmp_path / "k.csv", tmp_path / "prior.json"
    assert run("adjacency", "induce", str(policy), "--out", str(graph)) == 0
    assert run("channel", "generate", "--graph", str(graph), "--epsilon", "0.5",
               "--out", str(k)) == 0
    prior.write_text(json.dumps([1 / 16] * 16))
    template, prefix, flag = ABBREVIATED_FLAGS[case]
    out = tmp_path / "out.txt"
    paths = {"policy": policy, "graph": graph, "k": k, "prior": prior, "out": out}
    capsys.readouterr()
    for spelled, code in ((prefix, 2), (flag, 0)):
        argv = [part.format(flag=spelled, **paths) for part in template]
        assert exit_code(*argv) == code, spelled
        seen = capsys.readouterr()
        if code == 2:
            assert seen.err.startswith("usage: blowfish ") and "blowfish" in seen.err
            assert seen.out == "" and not out.exists()
    assert out.exists() or case == "policy_validate"


def underflow_limit(tmp_path, argv):
    """The largest epsilon that ``channel generate`` admits, read from its
    refusal of epsilon = 1000, which leaves no file."""
    out = tmp_path / "refused.csv"
    stderr = io.StringIO()
    with mock.patch.object(sys, "stderr", stderr):
        assert run("channel", "generate", *argv, "--epsilon", "1000", "--out", str(out)) == 2
    assert not out.exists()
    (line,) = stderr.getvalue().splitlines()
    assert line.startswith("error: epsilon 1000.0 would underflow channel entries at distance ")
    return line, float(line.rpartition(" ")[2])


@pytest.mark.parametrize(
    "route, cells, longest, width",
    [("product", math.inf, 9, 64), ("python", math.inf, 6, 16), ("numpy", 0, 6, 16)],
)
def test_generate_refuses_an_epsilon_that_underflows_an_entry(tmp_path, route, cells, longest,
                                                              width):
    """A finite epsilon at which exp(-epsilon/2 * d) / width could leave
    float64's normal range at the longest finite distance d exits 2 with no
    file and names the largest epsilon admitted, on the n = 3 product and on
    the 16-vertex n = 2 graph by both one-record routes. That limit writes a
    channel whose entries are all normal and which verifies at it; the next
    float up is refused; epsilon = inf still writes the identity channel."""
    source = ("--policy", str(build_path_policy(tmp_path, n=3)))
    if route != "product":
        graph = tmp_path / "g.json"
        assert run("adjacency", "induce", str(build_path_policy(tmp_path, n=2)),
                   "--out", str(graph)) == 0
        source = ("--graph", str(graph))
    out = tmp_path / "k.csv"
    with mock.patch.object(channel_mod, "PYTHON_CELLS", cells):
        line, limit = underflow_limit(tmp_path, source)
        assert line.startswith(f"error: epsilon 1000.0 would underflow channel entries at "
                               f"distance {longest}: this graph admits epsilon up to ")
        tiny = sys.float_info.min
        assert math.isclose(limit, 2 * (-math.log(tiny) - math.log(width)) / longest)
        over = math.nextafter(limit, math.inf)
        assert run("channel", "generate", *source, "--epsilon", repr(over),
                   "--out", str(out)) == 2
        assert not out.exists()
        for epsilon in (limit, math.inf):
            assert run("channel", "generate", *source, "--epsilon", repr(epsilon),
                       "--out", str(out)) == 0
            entries = [float(x) for row in csv_rows(out) for x in row]
            if epsilon == math.inf:
                assert sorted(set(entries)) == [0.0, 1.0]
                continue
            assert min(entries) >= tiny
            assert run("channel", "verify", str(out), *source, "--epsilon", repr(limit),
                       "--out", str(tmp_path / "verify.txt")) == 0


def test_generate_names_one_limit_on_both_one_record_routes(tmp_path):
    """The Python and the numpy route refuse an underflowing epsilon on a
    graph with the same line, which names the graph's longest distance
    even when the numpy route meets it in a later block of rows: on a path
    of 40 vertices with vertex 0 in its middle, one row per block, row 0
    reaches 20 hops and the path is 39 long."""
    graph = tmp_path / "path.json"
    edges = [[v, v + 1] for v in range(19)] + [[0, 20]] + [[v, v + 1] for v in range(20, 39)]
    graph.write_text(json.dumps({"vertices": [[str(v)] for v in range(40)], "edges": edges}))
    lines = set()
    for cells in (math.inf, 0):
        with mock.patch.object(channel_mod, "PYTHON_CELLS", cells), \
                mock.patch.object(channel_mod, "BLOCK_CELLS", 40):
            lines.add(underflow_limit(tmp_path, ("--graph", str(graph)))[0])
    (line,) = lines
    assert " at distance 39: " in line


def test_numpy_route_refuses_before_its_first_row(tmp_path, capsys):
    """Written to stdout, the numpy route refuses an underflowing epsilon
    before any row, although its first blocks of rows stay in range: on the
    40-vertex path with vertex 0 in its middle, row 0 reaches 20 hops and
    the path is 39 long."""
    graph = tmp_path / "path.json"
    edges = [[v, v + 1] for v in range(19)] + [[0, 20]] + [[v, v + 1] for v in range(20, 39)]
    graph.write_text(json.dumps({"vertices": [[str(v)] for v in range(40)], "edges": edges}))
    with mock.patch.object(channel_mod, "PYTHON_CELLS", 0), \
            mock.patch.object(channel_mod, "BLOCK_CELLS", 40):
        assert run("channel", "generate", "--graph", str(graph), "--epsilon", "50") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error: epsilon 50.0 would underflow channel entries at distance 39: "
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    small_policies(max_n=3),
    st.sampled_from(["--policy", "--graph"]),
    st.sampled_from([1e-3, 0.5, 1.0, "next", 2.0]),
    st.booleans(),
)
@example(custom_policy(["1", "2", "3"], [("1", "2"), ("2", "3")], n=3), "--policy", "next", False)
@example(custom_policy(["1", "2", "3"], [("1", "2"), ("2", "3")], n=1), "--graph", 1.0, True)
def test_a_generated_channel_verifies_at_its_epsilon(policy, source, share, numpy_route):
    """channel generate by --policy and by --graph, on numpy or in Python
    floats, at a share of the epsilon the adjacency graph admits (the limit
    of its longest distance d, -2 ln(2^-1022 V) / d), the limit itself or
    the float past it: an admitted epsilon writes a channel that channel
    verify finds private at that epsilon, and a refused one exits 2 with
    no file."""
    with warnings.catch_warnings():  # the CLI warns too, on its stderr
        warnings.simplefilter("ignore", AdjacencyAsymmetryWarning)
        graph = induce_adjacency_graph(policy)
    vertices = len(graph.vertices)
    longest = max(map(max, oracle_distances(graph.to_graph())))
    limit = -2 * math.log(sys.float_info.min * vertices) / longest if longest else math.inf
    epsilon = math.nextafter(limit, math.inf) if share == "next" else share * limit
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
        channel_mod, "PYTHON_CELLS", 0 if numpy_route else math.inf
    ), mock.patch.object(sys, "stderr", io.StringIO()):
        directory = Path(tmp)
        (directory / "policy.json").write_text(policy_to_json(policy))
        (directory / "graph.json").write_text(adjacency_to_json(graph))
        argv = [source, str(directory / f"{source[2:]}.json"), "--epsilon", repr(epsilon)]
        out, report = directory / "k.csv", directory / "verify.txt"
        code = run("channel", "generate", *argv, "--out", str(out))
        if math.inf > epsilon > limit:
            assert code == 2 and not out.exists()
            return
        assert code == 0 and len(out.read_text().splitlines()) == vertices
        assert run("channel", "verify", str(out), *argv, "--out", str(report)) == 0
        assert parse_report(report.read_text())["private_at_target"] == "true"


def test_channel_verify_refuses_a_negative_epsilon(tmp_path, capsys):
    """As bound compute does, before the channel is read (here it is not
    even a file) and with no output; 0 and -0.0 are targets like any other."""
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps({"vertices": [["a"], ["b"]], "edges": [[0, 1]]}))
    channel, out = tmp_path / "k.csv", tmp_path / "verify.txt"
    argv = ["--graph", str(graph), "--out", str(out)]
    capsys.readouterr()
    assert run("channel", "verify", str(tmp_path / "missing.csv"), *argv, "--epsilon", "-1") == 2
    assert capsys.readouterr() == ("", "error: epsilon must be non-negative, got -1.0\n")
    assert not out.exists()
    channel.write_text("0.5,0.5\n0.5,0.5\n")
    for epsilon in ("0", "-0.0"):
        assert run("channel", "verify", str(channel), *argv, "--epsilon", epsilon) == 0
        assert parse_report(out.read_text())["private_at_target"] == "true"


def test_infinite_epsilon_is_unbounded(tmp_path, capsys):
    policy = build_path_policy(tmp_path, n=1)
    assert run("bound", "compute", str(policy), "--epsilon", "inf") == 0
    assert parse_report(capsys.readouterr().out)["leakage_upper_bits"] == "unbounded"


NOT_UTF8 = b"\xff\xfe not UTF-8 \xc3\x28\n"

UNDECODABLE_INPUTS = {
    "channel": ("channel", "leakage", "{bad}", "--out", "{out}"),
    "policy": ("policy", "validate", "{bad}"),
    "induce_policy": ("adjacency", "induce", "{bad}", "--out", "{out}"),
    "graph": ("channel", "generate", "--graph", "{bad}", "--epsilon", "1", "--out", "{out}"),
    "prior": ("channel", "leakage", "{k}", "--prior", "{bad}", "--out", "{out}"),
}


@pytest.mark.parametrize("case", sorted(UNDECODABLE_INPUTS))
def test_input_that_is_not_utf8_exits_two_without_output(tmp_path, capsys, case):
    policy = build_path_policy(tmp_path, n=1)
    k = tmp_path / "k.csv"
    assert run("channel", "generate", "--policy", str(policy), "--epsilon", "1", "--out", str(k)) == 0
    bad = tmp_path / "bad.input"
    bad.write_bytes(NOT_UTF8)
    out = tmp_path / "out.txt"
    argv = [a.format(k=k, bad=bad, out=out) for a in UNDECODABLE_INPUTS[case]]
    assert run(*argv) == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert "codec can't decode" in captured.err
    assert captured.out == ""


def test_allocation_beyond_memory_exits_three_without_output(tmp_path):
    """``channel generate`` streams its rows, so the allocation that fails
    here is a dense read: ``symmetrise run`` on a 16,384-vertex graph, with
    the cells cap lifted, sizes its channel from the first row's width and
    asks for 16,384 x 16,384 float64 cells (2 GiB) before parsing a number.
    Under a 1 GiB address-space limit that fails in the child alone."""
    vertices = 2**14
    graph, channel = tmp_path / "g.json", tmp_path / "k.csv"
    graph.write_text(json.dumps({"vertices": [[str(v)] for v in range(vertices)], "edges": []}))
    channel.write_text(",".join(["1.0"] + ["0.0"] * (vertices - 1)) + "\n")
    done = run_cli_with_address_limit(
        ["symmetrise", "run", channel.name, "--graph", graph.name, "--group", "trivial",
         "--max-cells", str(vertices**2), "--out-averaged", "a.csv", "--out", "r.txt"],
        cwd=tmp_path,
        limit_bytes=2**30,
    )
    assert done.returncode == 3, done.stderr
    assert done.stderr.startswith("error: out of memory: ")
    assert done.stderr.count("\n") == 1
    assert done.stdout == ""
    assert sorted(tmp_path.iterdir()) == [graph, channel]


def test_sweep_at_large_n_measures_without_the_dense_channel(tmp_path):
    """n = 100000 stands for a 200,002 x 200,002 channel (298 GiB): the sweep
    never builds it, so it finishes within a 1 GiB address space."""
    done = run_cli_with_address_limit(
        ["tightness", "sweep", "--n", "100000", "--delta", "1,0.001", "--out", "sweep.csv"],
        cwd=tmp_path,
        limit_bytes=2**30,
    )
    assert done.returncode == 0, done.stderr
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
    assert [(row["n"], row["delta"]) for row in rows] == [("100000", "1.0"), ("100000", "0.001")]
    assert all(float(row["closed_form_gap"]) <= 1e-12 for row in rows)


def test_full_search_on_a_long_path_exits_zero(tmp_path):
    """A 500-vertex path sends the automorphism search 500 levels deep."""
    graph = tmp_path / "path500.json"
    graph.write_text(json.dumps({
        "vertices": [[str(v)] for v in range(500)],
        "edges": [[v, v + 1] for v in range(499)],
    }))
    assert run("channel", "generate", "--graph", str(graph), "--epsilon", "1",
               "--out", str(tmp_path / "u.csv")) == 0
    out = tmp_path / "report.txt"
    code = run("symmetrise", "run", str(tmp_path / "u.csv"), "--graph", str(graph),
               "--group", "full", "--vertex-cap", "1000", "--out", str(out))
    assert code == 0
    assert parse_report(out.read_text())["group_order"] == "2"


def test_memory_error_without_a_message_still_names_the_failure(tmp_path, capsys, monkeypatch):
    from blowfish_privacy import tightness

    def exhausted(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(tightness, "sharpness_sweep", exhausted)
    out = tmp_path / "sweep.csv"
    assert run("tightness", "sweep", "--n", "4", "--delta", "1", "--out", str(out)) == 3
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.err == "error: out of memory: allocation failed\n"
    assert captured.out == ""


def test_unconstrained_generate_over_cap_exits_three(tmp_path):
    policy = build_path_policy(tmp_path, n=2)  # 16 databases
    out = tmp_path / "never.csv"
    code = run(
        "channel", "generate", "--policy", str(policy), "--epsilon", "0.1",
        "--max-databases", "15", "--out", str(out),
    )
    assert code == 3
    assert not out.exists()


@pytest.mark.parametrize(
    "build",
    [
        ("--kind", "distance-threshold", "--values", "1,2,3,4", "--theta", "1", "--n", "3"),
        ("--kind", "custom", "--tuples", "a,b,c,d", "--edges", "a:b,c:d", "--n", "2"),
        ("--kind", "custom", "--tuples", "a,b,c", "--n", "2"),
        ("--kind", "custom", "--tuples", "a,b,c", "--edges", "a:b,b:c", "--n", "2",
         "--permissible", "{permissible}"),
        # Unreachable pairs at distance sentinel 128, one past int8.
        ("--kind", "custom", "--tuples", ",".join(f"l{i}" for i in range(128)),
         "--edges", ",".join(f"l{i}:l{i + 1}" for i in range(126)), "--n", "1"),
    ],
    ids=["path", "disconnected", "edgeless", "constrained", "128-labels"],
)
def test_generate_from_a_policy_matches_the_induced_graph_path(tmp_path, build):
    """The channel of --policy (product distances when unconstrained) is
    byte-identical to the BFS one over the induced --graph."""
    permissible = tmp_path / "permissible.json"
    permissible.write_text(json.dumps([["a", "a"], ["a", "c"], ["b", "b"], ["c", "a"], ["c", "c"]]))
    policy, graph = tmp_path / "policy.json", tmp_path / "graph.json"
    build = [a.format(permissible=permissible) for a in build]
    assert run("policy", "build", *build, "--out", str(policy)) == 0
    assert run("adjacency", "induce", str(policy), "--out", str(graph)) == 0
    by_policy, by_graph = tmp_path / "by_policy.csv", tmp_path / "by_graph.csv"
    for source, target, out in (("--policy", policy, by_policy), ("--graph", graph, by_graph)):
        assert run("channel", "generate", source, str(target), "--epsilon", "0.3",
                   "--shuffle-outputs", "--seed", "5", "--out", str(out)) == 0
    assert by_policy.read_bytes() == by_graph.read_bytes()


def test_unconstrained_generate_induces_no_graph(tmp_path, monkeypatch):
    """An unconstrained channel's distances are product sums at every size."""
    from blowfish_privacy import adjacency

    def refuse(*args, **kwargs):
        raise AssertionError("the unconstrained path induced the adjacency graph")

    policy = build_path_policy(tmp_path, n=3)
    monkeypatch.setattr(adjacency, "induce_adjacency_graph", refuse)
    out = tmp_path / "k.csv"
    assert run("channel", "generate", "--policy", str(policy), "--epsilon", "0.1",
               "--out", str(out)) == 0
    assert len(out.read_text().splitlines()) == 64


def test_unconstrained_generate_checks_the_database_cap(tmp_path, capsys):
    """81 databases against a cap of 80: exit 3 before any row, no file."""
    policy, out = tmp_path / "p.json", tmp_path / "never.csv"
    assert run("policy", "build", "--kind", "complete", "--m", "3", "--n", "4",
               "--out", str(policy)) == 0
    assert run("channel", "generate", "--policy", str(policy), "--epsilon", "0.5",
               "--max-databases", "80", "--out", str(out)) == 3
    assert "81 databases" in capsys.readouterr().err
    assert not out.exists()


def test_unconstrained_generate_refuses_a_bad_epsilon(tmp_path, capsys):
    policy = build_path_policy(tmp_path, n=3)
    out = tmp_path / "never.csv"
    assert run("channel", "generate", "--policy", str(policy), "--epsilon", "0",
               "--out", str(out)) == 2
    assert "epsilon must be positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("source", ["--policy", "--graph"])
def test_generate_at_infinite_epsilon_is_the_identity_channel(tmp_path, capsys, source):
    """epsilon = inf is the epsilon -> inf limit of the weights: the identity
    channel, which verify reports private at that level."""
    policy, graph = build_path_policy(tmp_path), tmp_path / "graph.json"
    assert run("adjacency", "induce", str(policy), "--out", str(graph)) == 0
    target = {"--policy": policy, "--graph": graph}[source]
    out = tmp_path / "k.csv"
    assert run("channel", "generate", source, str(target), "--epsilon", "inf",
               "--out", str(out)) == 0
    rows = [[float(x) for x in line.split(",")] for line in out.read_text().splitlines()]
    assert rows == np.eye(16).tolist()
    assert run("channel", "verify", str(out), source, str(target), "--epsilon", "inf") == 0
    report = parse_report(capsys.readouterr().out)
    assert report["minimal_epsilon"] == "inf"
    assert report["private_at_target"] == "true"


def test_streamed_output_that_fails_midway_leaves_no_file(tmp_path):
    from blowfish_privacy.cli import _write_output

    def rows():
        yield "0.5,0.5\n"
        yield "0.25,0.75\n"
        raise RuntimeError("row formatting failed")

    out = tmp_path / "k.csv"
    with pytest.raises(RuntimeError, match="row formatting failed"):
        _write_output(str(out), rows())
    assert not out.exists()
    assert not list(tmp_path.glob(".blowfish-*"))
    out.write_text("previous\n")
    with pytest.raises(RuntimeError):
        _write_output(str(out), rows())
    assert out.read_text() == "previous\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["k.csv"]


@pytest.mark.parametrize(
    "code, expected", [(errno.ENOSPC, 3), (errno.EDQUOT, 3), (errno.EIO, 2)],
    ids=["disk-full", "quota-exceeded", "io-error"],
)
def test_a_full_disk_exits_three_without_output(tmp_path, capsys, code, expected):
    """A write that fails for want of space (ENOSPC, or EDQUOT over a quota)
    is a resource running out, not bad input: exit 3 with its error line,
    and neither the output file nor its temporary file is left. Any other
    OS error still exits 2."""
    real_fdopen = os.fdopen

    class FillingUp:
        """An output file whose disk fills up after the first chunk."""

        def __init__(self, handle):
            self.handle = handle

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.handle.close()

        def writelines(self, chunks):
            self.handle.write(next(iter(chunks)))
            raise OSError(code, os.strerror(code))

    policy = build_path_policy(tmp_path)
    out = tmp_path / "k.csv"
    opened = lambda fd, *args, **kwargs: FillingUp(real_fdopen(fd, *args, **kwargs))  # noqa: E731
    with mock.patch.object(os, "fdopen", opened):
        assert run("channel", "generate", "--policy", str(policy), "--epsilon", "0.5",
                   "--out", str(out)) == expected
    assert capsys.readouterr().err == f"error: [Errno {code}] {os.strerror(code)}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [policy.name]


def test_library_warnings_are_one_stable_stderr_line(tmp_path, capsys):
    # Path secrets 1-2-3 over {(1,1), (2,2), (3,2)}: the relation disagrees by
    # direction on one pair, which adjacency induce reports as a warning.
    policy = tmp_path / "policy.json"
    policy.write_text(json.dumps({
        "tuples": ["1", "2", "3"],
        "secret_edges": [["1", "2"], ["2", "3"]],
        "n": 2,
        "permissible": [["1", "1"], ["2", "2"], ["3", "2"]],
    }))
    assert run("adjacency", "induce", str(policy), "--out", str(tmp_path / "g.json")) == 0
    assert capsys.readouterr().err == (
        "warning: adjacency disagreed by direction on 1 pair(s); "
        "edges were kept when either direction held\n"
    )


@pytest.mark.parametrize(
    "prior",
    ['["a", "b"]', "[[0.5], [0.5, 0.5]]", "[true, false]", "[1" + "0" * 400 + ", 0.5]"],
    ids=["strings", "ragged", "bools", "integer-beyond-float"],
)
def test_malformed_prior_exits_two_without_output(tmp_path, capsys, prior):
    channel, bad = tmp_path / "k.csv", tmp_path / "prior.json"
    channel.write_text("1.0,0.0\n0.0,1.0\n")
    bad.write_text(prior)
    out = tmp_path / "leakage.txt"
    assert run("channel", "leakage", str(channel), "--prior", str(bad), "--out", str(out)) == 2
    assert "prior file must hold a JSON list of probabilities" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "permissible",
    ['[["1", "2"], 5]', '[{"1": 0}]', '{"1": 0}'],
    ids=["number", "object_in_list", "object"],
)
def test_malformed_permissible_file_exits_two_without_output(tmp_path, capsys, permissible):
    bad = tmp_path / "permissible.json"
    bad.write_text(permissible)
    out = tmp_path / "policy.json"
    code = run(
        "policy", "build", "--kind", "distance-threshold", "--values", "1,2",
        "--theta", "1", "--n", "1", "--permissible", str(bad), "--out", str(out),
    )
    assert code == 2
    assert "permissible file must hold a JSON list of label lists" in capsys.readouterr().err
    assert not out.exists()


def test_policy_value_beyond_the_float_range_exits_two_without_output(tmp_path, capsys):
    policy = tmp_path / "p.json"
    policy.write_text(
        '{"tuples": ["1", "2"], "values": [1' + "0" * 400 + ', 1], '
        '"secret_edges": [["1", "2"]], "n": 1, "permissible": "all"}'
    )
    out = tmp_path / "g.json"
    assert run("policy", "validate", str(policy)) == 2
    assert run("adjacency", "induce", str(policy), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.count("'values' must be a list of numbers: an integer is too large") == 2
    assert not out.exists()


DEFERRAL_SCRIPT = """
import contextlib, io, json, sys
from blowfish_privacy.cli import main
seen = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # --help
            code = exc.code
    loaded = ("numpy", "numpy.random", "dataclasses", "fractions")
    seen.append([code] + [name in sys.modules for name in loaded])
print(json.dumps(seen))
"""


def test_numpy_is_imported_only_by_commands_that_build_arrays(tmp_path):
    """Commands with no array never import numpy, the sweep included, which
    measures its kernel in Python floats, and so do the channel commands on
    a channel small enough for their Python path: leakage, generate by
    policy and by graph, verify and bound compute --channel, on an
    unconstrained and on a constrained policy. An unconstrained generate
    of two or more records works in Python floats at every size, so n = 5's
    1,024 databases, past ``PYTHON_CELLS``, load no numpy either. A channel read just past
    ``PYTHON_CELLS`` (one 725-wide row: 725 x 725 cells) does load numpy.
    No command imports numpy.random (not even a shuffled generate) or
    dataclasses, and only the sweep imports fractions. The commands run in
    one process, so the one that loads numpy runs last. A leakage weighed by
    a --prior loads no numpy either."""
    (tmp_path / "k.csv").write_text("1.0,0.0\n0.0,1.0\n")
    (tmp_path / "prior.json").write_text("[0.25, 0.75]")
    (tmp_path / "wide.csv").write_text(",".join(["1.0"] + ["0.0"] * 724) + "\n")
    (tmp_path / "perm.json").write_text(json.dumps(
        [["1", "1", "1"], ["1", "2", "1"], ["2", "2", "1"], ["2", "2", "3"], ["4", "4", "4"]]
    ))
    (tmp_path / "p5.json").write_text(policy_to_json(distance_threshold_policy([1, 2, 3, 4], 1, 5)))
    assert 724**2 <= channel_mod.PYTHON_CELLS < 725**2
    calls = [
        ["--help"],
        ["policy", "build", "--kind", "distance-threshold", "--values", "1,2,3,4",
         "--theta", "1", "--n", "3", "--out", "p.json"],
        ["policy", "validate", "p.json"],
        ["adjacency", "induce", "p.json", "--out", "g.json"],
        ["bound", "compute", "p.json", "--epsilon", "0.5"],
        ["figure", "bound-sweep", "--n-max", "3"],
        ["tightness", "sweep", "--n", "2", "--delta", "0.5"],
        ["channel", "leakage", "k.csv"],
        ["channel", "leakage", "k.csv", "--prior", "prior.json"],
        ["channel", "generate", "--policy", "p.json", "--epsilon", "0.5",
         "--shuffle-outputs", "--seed", "1", "--out", "pk.csv"],
        ["channel", "verify", "pk.csv", "--policy", "p.json"],
        ["channel", "generate", "--policy", "p5.json", "--epsilon", "0.5", "--out", "p5k.csv"],
        ["policy", "build", "--kind", "distance-threshold", "--values", "1,2,3,4",
         "--theta", "1", "--n", "3", "--permissible", "perm.json", "--out", "c.json"],
        ["adjacency", "induce", "c.json", "--out", "cg.json"],
        ["channel", "generate", "--graph", "cg.json", "--epsilon", "0.5", "--out", "ck.csv"],
        ["channel", "verify", "ck.csv", "--graph", "cg.json", "--epsilon", "0.5"],
        ["bound", "compute", "c.json", "--epsilon", "0.5", "--channel", "ck.csv"],
        ["channel", "leakage", "wide.csv"],
    ]
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-c", DEFERRAL_SCRIPT, json.dumps(calls)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    seen = json.loads(done.stdout.splitlines()[-1])
    assert seen == [[0, False, False, False, False]] * 6 + [
        [0, False, False, False, True]
    ] * (len(calls) - 7) + [[0, True, False, False, True]]


def test_constrained_induction_and_bound_import_no_numpy(tmp_path):
    """An explicit permissible set is induced over Python-int bitsets, so
    neither adjacency induce nor bound compute without --channel builds an
    array."""
    (tmp_path / "perm.json").write_text(json.dumps(
        [["1", "1", "1"], ["1", "2", "1"], ["2", "2", "3"], ["3", "1", "4"], ["4", "4", "4"]]
    ))
    calls = [
        ["policy", "build", "--kind", "distance-threshold", "--values", "1,2,3,4",
         "--theta", "1", "--n", "3", "--permissible", "perm.json", "--out", "p.json"],
        ["adjacency", "induce", "p.json", "--out", "g.json"],
        ["bound", "compute", "p.json", "--epsilon", "0.5"],
    ]
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", DEFERRAL_SCRIPT, json.dumps(calls)],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120, check=True,
    )
    seen = json.loads(done.stdout.splitlines()[-1])
    assert seen == [[0, False, False, False, False]] * len(calls)
    graph = json.loads((tmp_path / "g.json").read_text())
    assert len(graph["vertices"]) == 5


@pytest.mark.parametrize(
    "n, permissible",
    [(3, None), (4, None), (3, [["1", "1", "1"], ["1", "2", "1"], ["2", "2", "1"],
                                 ["2", "2", "3"], ["3", "2", "3"], ["4", "4", "4"]])],
    ids=["unconstrained-64", "unconstrained-256", "constrained-6"],
)
def test_channel_commands_write_the_same_bytes_on_both_paths(tmp_path, capsys, n, permissible):
    """generate (by policy, shuffled, and by graph), verify, leakage and
    bound compute --channel write the same files in Python floats as with
    numpy, whichever path ``PYTHON_CELLS`` sends them down.

    Bad channels (a malformed field, a NaN row, a row sum off by 2e-9, one
    row too many or too few) read by verify, bound compute --channel and
    symmetrise run, on either path of ``PYTHON_CELLS`` and
    ``PYTHON_AVERAGE_CELLS``, give one exit code and one error line per
    case. leakage, read against no graph, gives the same on the first
    three and has no row count to refuse on the last two."""
    policy = tmp_path / "p.json"
    extra = ()
    if permissible is not None:
        (tmp_path / "perm.json").write_text(json.dumps(permissible))
        extra = ("--permissible", str(tmp_path / "perm.json"))
    assert run("policy", "build", "--kind", "distance-threshold", "--values", "1,2,3,4",
               "--theta", "1", "--n", str(n), *extra, "--out", str(policy)) == 0
    graph = tmp_path / "g.json"
    assert run("adjacency", "induce", str(policy), "--out", str(graph)) == 0
    assert run("channel", "generate", "--graph", str(graph), "--epsilon", "0.5",
               "--out", str(tmp_path / "good.csv")) == 0
    lines = (tmp_path / "good.csv").read_text().splitlines(keepends=True)
    off = [float(x) for x in lines[1].split(",")]
    off[0] += 2e-9
    bad = {
        "malformed-field": [lines[0], "x" + lines[1], *lines[2:]],
        "nan-row": [lines[0], ",".join(["nan"] * len(off)) + "\n", *lines[2:]],
        "row-sum-off": [lines[0], ",".join(map(repr, off)) + "\n", *lines[2:]],
        "row-too-many": [*lines, lines[0]],
        "row-too-few": lines[:-1],
    }
    for name, text in bad.items():
        bad[name] = tmp_path / f"{name}.csv"
        bad[name].write_text("".join(text))
    refused = tmp_path / "refused.txt"
    outcomes = {name: {} for name in bad}
    written = {}
    for path, cells in (("python", math.inf), ("numpy", 0)):
        out = tmp_path / path
        out.mkdir()
        with mock.patch.object(channel_mod, "PYTHON_CELLS", cells), \
                mock.patch.object(symmetrise_mod, "PYTHON_AVERAGE_CELLS", cells):
            capsys.readouterr()
            for name, channel in bad.items():
                for command in (
                    ("channel", "verify", str(channel), "--graph", str(graph), "--out", str(refused)),
                    ("bound", "compute", str(policy), "--epsilon", "0.5", "--channel", str(channel),
                     "--out", str(refused)),
                    ("symmetrise", "run", str(channel), "--graph", str(graph), "--group", "trivial",
                     "--out", str(refused)),
                    ("channel", "leakage", str(channel)),
                ):
                    code = run(*command)
                    # bound compute induces a constrained graph, which may warn first.
                    err = capsys.readouterr().err.splitlines()
                    errors = tuple(line for line in err if not line.startswith("warning: "))
                    outcomes[name][path, command[:2]] = code, errors
            codes = [
                run("channel", "generate", "--policy", str(policy), "--epsilon", "0.3",
                    "--shuffle-outputs", "--seed", "3", "--out", str(out / "ks.csv")),
                run("channel", "generate", "--graph", str(graph), "--epsilon", "0.5",
                    "--out", str(out / "k.csv")),
                run("channel", "verify", str(out / "k.csv"), "--graph", str(graph),
                    "--epsilon", "0.5", "--out", str(out / "verify.txt")),
                run("channel", "verify", str(out / "ks.csv"), "--policy", str(policy),
                    "--out", str(out / "verify-shuffled.txt")),
                run("channel", "leakage", str(out / "ks.csv"), "--out", str(out / "leakage.txt")),
                run("bound", "compute", str(policy), "--epsilon", "0.5", "--channel",
                    str(out / "k.csv"), "--out", str(out / "audit.txt")),
            ]
        assert codes == [0] * len(codes)
        written[path] = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
    assert len(written["python"]) == 6
    assert written["python"] == written["numpy"]
    assert not refused.exists()
    for name, seen in outcomes.items():
        leaked = {seen.pop((path, ("channel", "leakage"))) for path in ("python", "numpy")}
        (outcome,) = set(seen.values())
        code, (error,) = outcome
        assert code == 2 and error.startswith("error: "), name
        assert leaked == {(0, ()) if name.startswith("row-too") else outcome}, name


def test_generate_from_disconnected_and_one_vertex_graphs_on_both_paths(tmp_path):
    """channel generate writes the same file in Python floats (the graph as
    its own one-record product) as with numpy, shuffled and not, on a graph
    of three components, on a one-vertex graph and on an unconstrained
    one-record policy (cycle m = 8): ``product_lines`` takes the numpy
    route (``distance_blocks``) only when ``PYTHON_CELLS`` refuses the
    channel."""
    sources = {
        "disconnected": ("--graph", 6, json.dumps({"vertices": [[str(v)] for v in range(6)],
                                                   "edges": [[0, 1], [1, 2], [3, 4]]})),
        "one-vertex": ("--graph", 1, json.dumps({"vertices": [["a"]], "edges": []})),
        "cycle-policy": ("--policy", 8, policy_to_json(cycle_policy(8, 1))),
    }
    for name, (flag, rows, doc) in sources.items():
        source = tmp_path / f"{name}.json"
        source.write_text(doc)
        for shuffle in ((), ("--shuffle-outputs", "--seed", "3")):
            written = set()
            for cells in (math.inf, 0):
                out = tmp_path / f"{name}-{cells}.csv"
                with mock.patch.object(channel_mod, "PYTHON_CELLS", cells), mock.patch.object(
                    channel_mod, "distance_blocks", wraps=graphcore.distance_blocks
                ) as numpy_route:
                    assert run("channel", "generate", flag, str(source), "--epsilon",
                               "0.5", *shuffle, "--out", str(out)) == 0
                assert numpy_route.called == (cells == 0), (name, cells)
                written.add(out.read_bytes())
            (text,) = written
            assert len(text.splitlines()) == rows, (name, shuffle)


def test_symmetrise_on_a_small_channel_imports_no_numpy(tmp_path):
    """symmetrise run on a channel within ``PYTHON_AVERAGE_CELLS`` works in
    Python floats: the lifted group of complete m = 3, n = 4 by both
    strategies, cross-checked and writing both channels, and the full
    automorphism group of complete m = 4, n = 2 leave numpy unloaded, and
    so does a one-vertex channel of exactly that many cells. One cell more
    loads numpy; that command runs last."""
    edge = symmetrise_mod.PYTHON_AVERAGE_CELLS
    for name, width in (("at.csv", edge), ("past.csv", edge + 1)):
        (tmp_path / name).write_text(",".join(["1.0"] + ["0.0"] * (width - 1)) + "\n")
    lifted = ["--policy", "p3.json", "--group", "lifted"]
    calls = [
        ["policy", "build", "--kind", "complete", "--m", "3", "--n", "4", "--out", "p3.json"],
        ["channel", "generate", "--policy", "p3.json", "--epsilon", "0.5",
         "--shuffle-outputs", "--out", "k3.csv"],
        ["symmetrise", "run", "k3.csv", *lifted, "--strategy", "full", "--cross-check",
         "--out-grouped", "g.csv", "--out-averaged", "a.csv", "--out", "full.txt"],
        ["symmetrise", "run", "k3.csv", *lifted, "--strategy", "orbit", "--out", "orbit.txt"],
        ["policy", "build", "--kind", "complete", "--m", "4", "--n", "2", "--out", "p4.json"],
        ["channel", "generate", "--policy", "p4.json", "--epsilon", "0.5", "--out", "k4.csv"],
        ["symmetrise", "run", "k4.csv", "--policy", "p4.json", "--group", "full",
         "--out", "aut.txt"],
        ["policy", "build", "--kind", "custom", "--tuples", "a", "--n", "1", "--out", "p1.json"],
        ["symmetrise", "run", "at.csv", "--policy", "p1.json", "--out", "at.txt"],
        ["symmetrise", "run", "past.csv", "--policy", "p1.json", "--out", "past.txt"],
    ]
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", DEFERRAL_SCRIPT, json.dumps(calls)],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120, check=True,
    )
    seen = json.loads(done.stdout.splitlines()[-1])
    assert seen == [[0, False, False, False, False]] * (len(calls) - 1) + [
        [0, True, False, False, False]
    ]
    for name in ("full.txt", "orbit.txt", "aut.txt", "at.txt", "past.txt"):
        assert parse_report((tmp_path / name).read_text())["all_passed"] == "true"


SYMMETRISE_CASES = {
    "complete-81-lifted": (["--kind", "complete", "--m", "3", "--n", "4"], "lifted"),
    "threshold-64-lifted": (
        ["--kind", "distance-threshold", "--values", "1,2,3,4", "--theta", "1", "--n", "3"],
        "lifted",
    ),
    "complete-16-full": (["--kind", "complete", "--m", "4", "--n", "2"], "full"),
}


@pytest.mark.parametrize("case", SYMMETRISE_CASES)
def test_symmetrise_writes_the_same_bytes_on_both_routes(tmp_path, case, capsys):
    """symmetrise run in Python floats and with numpy, whichever route
    ``PYTHON_AVERAGE_CELLS`` sends it down: the orbit strategy's report,
    grouped and averaged channels and a cross-checked report are the same
    bytes; the full strategy's averaged channel and report numbers agree
    within 1e-12. On each route, --cross-check trips when that route's pair
    labels put every pair alone in its orbit: it exits 1 with an error line
    (a requested check failed) and no file is written. The
    channel is randomized response with each entry scaled by a seeded
    factor in [1, 2) and its rows renormalised, so that grouping does not
    give back a channel the group already fixes."""
    kind, group = SYMMETRISE_CASES[case]
    policy, channel = tmp_path / "p.json", tmp_path / "k.csv"
    assert run("policy", "build", *kind, "--out", str(policy)) == 0
    assert run("channel", "generate", "--policy", str(policy), "--epsilon", "0.5",
               "--shuffle-outputs", "--seed", "2", "--out", str(channel)) == 0
    rng, lines = random.Random(7), []
    for line in channel.read_text().splitlines():
        row = [float(x) * (1 + rng.random()) for x in line.split(",")]
        lines.append(",".join(repr(x / math.fsum(row)) for x in row) + "\n")
    channel.write_text("".join(lines))
    common = ["symmetrise", "run", str(channel), "--policy", str(policy), "--group", group]
    labels = {"python": "pair_orbits", "numpy": "orbit_labels"}
    written = {}
    for route, cells in (("python", math.inf), ("numpy", -1)):
        out = tmp_path / route
        out.mkdir()
        with mock.patch.object(symmetrise_mod, "PYTHON_AVERAGE_CELLS", cells):
            codes = [
                run(*common, "--out-grouped", str(out / "grouped.csv"),
                    "--out-averaged", str(out / "orbit.csv"), "--out", str(out / "orbit.txt")),
                run(*common, "--cross-check", "--out", str(out / "cross-checked.txt")),
                run(*common, "--strategy", "full", "--out-averaged", str(out / "full.csv"),
                    "--out", str(out / "full.txt")),
            ]
            alone = lambda perms, degree, arity=1: np.arange(degree**arity)  # noqa: E731
            if route == "python":
                alone = lambda perms, degree: [[divmod(p, degree)] for p in range(degree**2)]  # noqa: E731
            capsys.readouterr()
            with mock.patch.object(symmetrise_mod, labels[route], alone):
                assert run(*common, "--cross-check", "--out", str(tmp_path / "sabotaged.txt")) == 1
            assert capsys.readouterr().err.startswith("error: group-average strategies disagree")
        assert codes == [0] * len(codes)
        assert not (tmp_path / "sabotaged.txt").exists()
        written[route] = {f.name: f.read_text() for f in sorted(out.iterdir())}
    python, numpy_ = written["python"], written["numpy"]
    assert len(python) == 6
    for name in ("grouped.csv", "orbit.csv", "orbit.txt", "cross-checked.txt"):
        assert python[name] == numpy_[name], name
    full = [np.loadtxt(io.StringIO(w["full.csv"]), delimiter=",") for w in (python, numpy_)]
    assert np.max(np.abs(full[0] - full[1])) <= 1e-12
    reports = [parse_report(w["full.txt"]) for w in (python, numpy_)]
    assert reports[0].keys() == reports[1].keys()
    for key, value in reports[0].items():
        if value in ("pass", "fail", "true", "false"):
            assert reports[1][key] == value, key
        else:
            assert float(value) == pytest.approx(float(reports[1][key]), abs=1e-12), key


# ---------------------------------------------------------------------------
# Streamed channel generation and the cells cap


def expected_channel_text(dist, epsilon, seed=None):
    """The CSV text of the channel over an oracle distance table, its columns
    permuted as ``--shuffle-outputs --seed seed`` permutes them."""
    if seed is not None:
        order = list(range(len(dist)))
        random.Random(seed).shuffle(order)
        dist = [[row[j] for j in order] for row in dist]
    return "".join(channel_to_csv(randomized_response(dist, epsilon)))


def generate_text(directory, argv, rows, sources):
    """The text ``channel generate`` writes on its numpy path, with blocks of
    ``rows`` channel rows and traversals of ``sources`` sources."""
    vertices = len(json.loads((directory / "graph.json").read_text())["vertices"])
    out = directory / "k.csv"
    with mock.patch.object(channel_mod, "BLOCK_CELLS", rows * vertices), \
            mock.patch.object(channel_mod, "PYTHON_CELLS", 0), \
            mock.patch.object(graphcore, "_SOURCE_BLOCK", sources):
        assert run("channel", "generate", *argv, "--out", str(out)) == 0
    return out.read_text()


@settings(max_examples=40, deadline=None)
@given(
    small_policies(max_n=3),
    st.integers(1, 9), st.integers(1, 70), st.one_of(st.none(), st.integers(0, 2**32)),
)
@example(custom_policy(["1", "2", "3"], [("1", "2")], n=3), 1, 5, 7)
def test_streamed_policy_channel_equals_the_oracle_channel(policy, rows, sources, seed):
    """Secret graphs with unreachable pairs, constrained sets (streamed from
    the induced graph's traversal), blocks of 1-9 rows and traversals of
    1-70 sources, with and without the seeded shuffle."""
    with warnings.catch_warnings():  # the CLI warns too, on its stderr
        warnings.simplefilter("ignore", AdjacencyAsymmetryWarning)
        graph = induce_adjacency_graph(policy)
    expected = expected_channel_text(oracle_distances(graph.to_graph()), 0.7, seed)
    shuffle = [] if seed is None else ["--shuffle-outputs", "--seed", str(seed)]
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        (directory / "policy.json").write_text(policy_to_json(policy))
        (directory / "graph.json").write_text(adjacency_to_json(graph))
        for source in ("--policy", "--graph"):
            argv = [source, str(directory / f"{source[2:]}.json"), "--epsilon", "0.7", *shuffle]
            assert generate_text(directory, argv, rows, sources) == expected


@settings(max_examples=40, deadline=None)
@given(sparse_graphs(max_vertices=40), st.integers(1, 9), st.integers(1, 50), st.booleans())
def test_streamed_graph_channel_equals_the_oracle_channel(graph, rows, sources, shuffled):
    """Graphs with several components and isolated vertices."""
    seed = 11 if shuffled else None
    expected = expected_channel_text(oracle_distances(graph), 1.3, seed)
    shuffle = ["--shuffle-outputs", "--seed", "11"] if shuffled else []
    document = {
        "vertices": [[str(v)] for v in range(graph.vertex_count)],
        "edges": [list(edge) for edge in sorted(graph.edges)],
    }
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        (directory / "graph.json").write_text(json.dumps(document))
        argv = ["--graph", str(directory / "graph.json"), "--epsilon", "1.3", *shuffle]
        assert generate_text(directory, argv, rows, sources) == expected


@pytest.mark.parametrize("source,limit", [("--policy", 3 * 2**20), ("--graph", 5 * 2**20)])
def test_streamed_generate_holds_a_block_not_the_channel(tmp_path, source, limit):
    """n = 5: 1,024 databases, an 8 MiB channel, written to a file a block of
    rows at a time; building the whole channel took about 9.25 MiB for
    --policy, and 11 MiB for --graph. --graph also holds the loaded graph
    and one traversal's distances, from up to 2,048 sources: here all
    1,024, 1 MiB of int8 (the smallest signed dtype that holds the graph's
    hop bound, 30)."""
    policy, graph = build_path_policy(tmp_path, n=5), tmp_path / "graph.json"
    assert run("adjacency", "induce", str(policy), "--out", str(graph)) == 0
    target = {"--policy": policy, "--graph": graph}[source]
    out = tmp_path / "k.csv"
    tracemalloc.start()
    try:
        assert run("channel", "generate", source, str(target), "--epsilon", "0.5",
                   "--out", str(out)) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(out.read_text().splitlines()) == 1024
    assert peak < limit


@pytest.mark.parametrize("source", ["--policy", "--graph"])
def test_channel_over_the_cells_cap_exits_three_without_output(
    tmp_path, monkeypatch, capsys, source
):
    """n = 2: 16 databases, 256 cells. The cap admits 256 and refuses 255,
    by flag or by environment variable, the flag taking precedence."""
    policy, graph = build_path_policy(tmp_path), tmp_path / "graph.json"
    assert run("adjacency", "induce", str(policy), "--out", str(graph)) == 0
    argv = ["channel", "generate", source, str({"--policy": policy, "--graph": graph}[source]),
            "--epsilon", "0.5", "--out", str(tmp_path / "k.csv")]
    capsys.readouterr()
    assert run(*argv, "--max-cells", "255") == 3
    assert not (tmp_path / "k.csv").exists()
    captured = capsys.readouterr()
    assert captured.err == (
        "error: channel has 16 x 16 = 256 cells, exceeding the cap of 255\n"
    )
    assert captured.out == ""
    monkeypatch.setenv("BLOWFISH_MAX_CELLS", "255")
    assert run(*argv) == 3
    assert not (tmp_path / "k.csv").exists()
    assert run(*argv, "--max-cells", "256") == 0
    monkeypatch.setenv("BLOWFISH_MAX_CELLS", "256")
    assert run(*argv) == 0
    assert len((tmp_path / "k.csv").read_text().splitlines()) == 16


def test_symmetrise_over_the_cells_cap_exits_three_without_output(
    tmp_path, monkeypatch, capsys
):
    """n = 2: a 16 x 16 channel CSV. The cap admits 256 cells and refuses
    255, by flag or by environment variable, before any data row is parsed
    (so before the channel's array is allocated, on either route) and
    before any output is written."""
    policy, channel = build_path_policy(tmp_path), tmp_path / "k.csv"
    assert run("channel", "generate", "--policy", str(policy), "--epsilon", "0.5",
               "--out", str(channel)) == 0
    outs = [tmp_path / name for name in ("report.txt", "grouped.csv", "averaged.csv")]
    argv = ["symmetrise", "run", str(channel), "--policy", str(policy), "--group", "lifted",
            "--out", str(outs[0]), "--out-grouped", str(outs[1]), "--out-averaged", str(outs[2])]
    capsys.readouterr()
    parsed = mock.patch.object(channel_mod, "_field_number", side_effect=AssertionError("parsed"))
    with parsed, mock.patch.object(
        channel_mod.np, "empty", side_effect=AssertionError("allocated")
    ):
        assert run(*argv, "--max-cells", "255") == 3
        captured = capsys.readouterr()
        assert captured.err == (
            "error: channel has 16 x 16 = 256 cells, exceeding the cap of 255\n"
        )
        assert captured.out == ""
        monkeypatch.setenv("BLOWFISH_MAX_CELLS", "255")
        assert run(*argv) == 3
    assert not any(out.exists() for out in outs)
    assert run(*argv, "--max-cells", "256") == 0
    monkeypatch.setenv("BLOWFISH_MAX_CELLS", "256")
    assert run(*argv) == 0
    assert all(out.exists() for out in outs)


@pytest.mark.parametrize("rows", [15, 17])
def test_symmetrise_refuses_a_channel_of_another_height_after_validation(
    tmp_path, capsys, rows
):
    """n = 2: 16 databases. The channel's array is sized by the graph, so
    a 17-row channel within the cap of 16 x 16 cells is refused for its
    rows, not the cap; an invalid row is reported first."""
    policy, channel = build_path_policy(tmp_path), tmp_path / "k.csv"
    outs = [tmp_path / name for name in ("report.txt", "grouped.csv", "averaged.csv")]
    argv = ["symmetrise", "run", str(channel), "--policy", str(policy), "--max-cells", "256",
            "--out", str(outs[0]), "--out-grouped", str(outs[1]), "--out-averaged", str(outs[2])]
    row = ",".join(["0.0625"] * 16) + "\n"
    channel.write_text(row * rows)
    capsys.readouterr()
    assert run(*argv) == 2
    assert capsys.readouterr().err == f"error: graph has 16 vertices but channel has {rows} rows\n"
    channel.write_text(row * (rows - 1) + row.replace("0.0625", "0.5", 1))
    assert run(*argv) == 2
    assert capsys.readouterr().err == (
        f"error: invalid channel matrix (1 violation(s): row_sum@row {rows - 1})\n"
    )
    assert not any(out.exists() for out in outs)


BAD_CELL_CAPS = {
    "flag_text": (["--max-cells", "many"], None),
    "flag_negative": (["--max-cells", "-1"], None),
    "env_text": ([], "many"),
    "env_negative": ([], "-1"),
}


@pytest.mark.parametrize("case", sorted(BAD_CELL_CAPS))
def test_bad_cells_cap_exits_two_without_output(tmp_path, monkeypatch, case):
    flags, env = BAD_CELL_CAPS[case]
    if env is not None:
        monkeypatch.setenv("BLOWFISH_MAX_CELLS", env)
    policy, out = build_path_policy(tmp_path), tmp_path / "k.csv"
    assert exit_code("channel", "generate", "--policy", str(policy), "--epsilon", "0.5",
                     *flags, "--out", str(out)) == 2
    assert not out.exists()


def test_default_cells_cap_refuses_n8_before_any_distance(tmp_path):
    """n = 8: a 65,536 x 65,536 channel, over the default cap of 2**25
    cells. The cap refuses it from the database count, with no output file
    and a small child. The 4 GiB address limit is only a guard: a tree
    without the cap would ask for 4 GiB of distances and fail there, with
    an out-of-memory line, not this one."""
    policy = build_path_policy(tmp_path, n=8)
    done = run_cli_with_address_limit(
        ["channel", "generate", "--policy", policy.name, "--epsilon", "1", "--out", "k8.csv"],
        cwd=tmp_path,
        limit_bytes=4 * 2**30,
    )
    assert done.returncode == 3, done.stderr
    assert done.stderr == (
        "error: channel has 65536 x 65536 = 4294967296 cells, exceeding the cap of 33554432\n"
    )
    assert done.stdout == ""
    assert list(tmp_path.iterdir()) == [policy]
    assert done.peak_rss_bytes < 100 * 2**20


BAD_DATABASE_CAPS = {
    "flag_negative": (("adjacency", "induce", "{policy}", "--max-databases", "-5"), None),
    "flag_text": (("channel", "generate", "--policy", "{policy}", "--epsilon", "0.5",
                   "--max-databases", "many"), None),
    "env_negative": (("bound", "compute", "{policy}", "--epsilon", "0.1"), "-1"),
    "env_text": (("adjacency", "induce", "{policy}"), "many"),
}


@pytest.mark.parametrize("case", sorted(BAD_DATABASE_CAPS))
def test_bad_database_cap_exits_two_without_output(tmp_path, monkeypatch, capsys, case):
    """A negative cap used to be exceeded by every policy (exit 3), or
    ignored by a closed-form bound (exit 0)."""
    argv, env = BAD_DATABASE_CAPS[case]
    policy, out = build_path_policy(tmp_path), tmp_path / "out.txt"
    if env is not None:
        monkeypatch.setenv("BLOWFISH_MAX_DATABASES", env)
    assert exit_code(*[a.format(policy=policy) for a in argv], "--out", str(out)) == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    if env is not None:
        assert captured.err == (
            f"error: BLOWFISH_MAX_DATABASES must be a non-negative integer, got {env!r}\n"
        )


@pytest.mark.parametrize("flag, group", [("--max-group", "lifted"), ("--vertex-cap", "full")])
def test_bad_group_cap_exits_two_without_output(tmp_path, capsys, flag, group):
    """A negative group cap used to be exceeded by every group (exit 3)."""
    policy, channel = build_path_policy(tmp_path), tmp_path / "k.csv"
    assert run("channel", "generate", "--policy", str(policy), "--epsilon", "0.5",
               "--out", str(channel)) == 0
    outs = [tmp_path / name for name in ("report.txt", "grouped.csv", "averaged.csv")]
    capsys.readouterr()
    assert exit_code(
        "symmetrise", "run", str(channel), "--policy", str(policy), "--group", group,
        flag, "-1", "--out", str(outs[0]), "--out-grouped", str(outs[1]),
        "--out-averaged", str(outs[2]),
    ) == 2
    assert not any(out.exists() for out in outs)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        f"error: argument {flag}: invalid non-negative integer value: '-1'\n"
    )


@pytest.fixture(scope="module")
def n5_inputs(tmp_path_factory):
    """n = 5: the 1,024-database threshold policy, its graph and its channel."""
    directory = tmp_path_factory.mktemp("n5")
    policy = build_path_policy(directory, n=5)
    assert run("adjacency", "induce", str(policy), "--out", str(directory / "graph.json")) == 0
    assert run("channel", "generate", "--policy", str(policy), "--epsilon", "0.1",
               "--out", str(directory / "k.csv")) == 0
    return directory, policy.name


STREAMED_READS = {
    "verify": ("channel", "verify", "{k}", "--graph", "graph.json", "--epsilon", "0.1"),
    "audit": ("bound", "compute", "{policy}", "--epsilon", "0.1", "--channel", "{k}"),
    "leakage": ("channel", "leakage", "{k}"),
}


@pytest.mark.parametrize("case", sorted(STREAMED_READS))
def test_streamed_reads_hold_no_dense_channel(n5_inputs, case):
    """The n = 5 channel is 8 MiB dense; reading it whole grew a child by
    about 9 MiB over one that only imports numpy. verify and bound compute
    hold a ring of 320 rows, 2.5 MiB: a block of 64 rows and the 256-row
    bandwidth of the canonical database order. leakage holds one block."""
    directory, policy = n5_inputs
    limit = {"leakage": 1.5 * 2**20}.get(case, 5 * 2**20)
    argv = [a.format(k="k.csv", policy=policy) for a in STREAMED_READS[case]]
    base = run_cli_with_address_limit(["--help"], directory, 2**30, prelude="import numpy")
    done = run_cli_with_address_limit([*argv, "--out", "out.txt"], directory, 2**30)
    assert done.returncode == 0, done.stderr
    assert done.peak_rss_bytes - base.peak_rss_bytes < limit


@pytest.mark.parametrize("case", sorted(STREAMED_READS))
def test_an_invalid_last_row_of_a_streamed_channel_exits_two_without_output(
    n5_inputs, monkeypatch, capsys, case
):
    """Row 1,023 is in the last of 16 blocks of 64 rows."""
    directory, policy = n5_inputs
    monkeypatch.chdir(directory)
    lines = Path("k.csv").read_text().splitlines(keepends=True)
    lines[-1] = "2.0" + lines[-1][lines[-1].index(","):]
    Path("bad.csv").write_text("".join(lines))
    argv = [a.format(k="bad.csv", policy=policy) for a in STREAMED_READS[case]]
    assert run(*argv, "--out", "refused.txt") == 2
    assert not Path("refused.txt").exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: invalid channel matrix (2 violation(s): range@row 1023 col 0, row_sum@row 1023)\n"
    )


def test_output_to_a_closed_pipe_is_not_an_error(n5_inputs):
    """stdout's read end is closed before the command writes: the n = 5
    generator stops at its first full buffer and exits 0, and a verify whose
    target fails still exits 1 after its short report fails to flush, as
    does policy validate's one line with 0; none prints to stderr."""
    directory, policy = n5_inputs
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    for argv, code in (
        (["policy", "validate", policy], 0),
        (["channel", "generate", "--policy", policy, "--epsilon", "0.1"], 0),
        (["channel", "verify", "k.csv", "--policy", policy, "--epsilon", "0.01"], 1),
    ):
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "wb") as pipe:
            done = subprocess.run(
                [sys.executable, "-m", "blowfish_privacy.cli", *argv], cwd=directory, env=env,
                stdout=pipe, stderr=subprocess.PIPE, text=True, timeout=120,
            )
        assert (done.returncode, done.stderr) == (code, "")


def test_lifted_group_searches_the_secret_graph_under_the_vertex_cap(tmp_path, capsys):
    """The 17-cycle policy with one record: its secret graph is its adjacency
    graph, which --group full searches under --vertex-cap; --group lifted
    searches the secret graph under the same cap."""
    policy, channel = tmp_path / "p.json", tmp_path / "k.csv"
    assert run("policy", "build", "--kind", "cycle", "--m", "17", "--n", "1",
               "--out", str(policy)) == 0
    assert run("channel", "generate", "--policy", str(policy), "--epsilon", "0.5",
               "--out", str(channel)) == 0
    out = tmp_path / "report.txt"
    argv = ("symmetrise", "run", str(channel), "--policy", str(policy), "--group", "lifted")
    capsys.readouterr()
    assert run(*argv, "--out", str(out)) == 3
    assert not out.exists()
    assert capsys.readouterr().err == "error: automorphism search limited to 16 vertices, got 17\n"
    assert run(*argv, "--vertex-cap", "17", "--out", str(out)) == 0
    assert parse_report(out.read_text())["group_order"] == "34"


def test_channel_rows_are_checked_against_the_graph_after_validation(tmp_path, capsys):
    """n = 1: four databases. A three-row channel is refused for its size,
    unless a row is invalid: that is reported first."""
    policy = build_path_policy(tmp_path, n=1)
    channel, out = tmp_path / "k.csv", tmp_path / "o.txt"
    argv = ("channel", "verify", str(channel), "--policy", str(policy), "--out", str(out))
    channel.write_text("1.0,0.0\n0.0,1.0\n0.5,0.5\n")
    assert run(*argv) == 2
    assert capsys.readouterr().err == "error: graph has 4 vertices but channel has 3 rows\n"
    channel.write_text("1.0,0.0\n0.0,1.0\n0.5,0.6\n")
    assert run(*argv) == 2
    assert capsys.readouterr().err == (
        "error: invalid channel matrix (1 violation(s): row_sum@row 2)\n"
    )
    assert not out.exists()


def test_audit_induces_before_it_reads_the_channel(tmp_path, capsys):
    """Over the database cap and with a malformed channel, bound compute
    exits 3 for the cap: the channel is streamed only against an induced
    graph."""
    policy = build_path_policy(tmp_path, n=20)
    channel, out = tmp_path / "k.csv", tmp_path / "o.txt"
    channel.write_text("x,y\n")
    assert run("bound", "compute", str(policy), "--epsilon", "0.1",
               "--channel", str(channel), "--out", str(out)) == 3
    assert "exceeding the cap" in capsys.readouterr().err
    assert not out.exists()


def test_leakage_reads_the_prior_before_the_channel(tmp_path, capsys):
    """With a malformed prior and a malformed channel, the prior is
    reported: the channel is weighed by it as it streams."""
    channel, prior, out = tmp_path / "k.csv", tmp_path / "p.json", tmp_path / "o.txt"
    channel.write_text("x,y\n")
    prior.write_text("[0.5, 0.6]")
    assert run("channel", "leakage", str(channel), "--prior", str(prior), "--out", str(out)) == 2
    assert "invalid prior" in capsys.readouterr().err
    assert not out.exists()


def test_cli_module_holds_fewer_than_4096_tokens():
    """Every command compiles ``cli.py`` when no bytecode is cached, and
    CPython's parser grows its token array by doubling: past 4,096 tokens
    (comments and NL left out, as ``tokenize`` counts them) that compile
    raises every command's peak RSS by about 0.23 MiB."""
    import blowfish_privacy.cli as cli

    with open(cli.__file__, encoding="utf-8") as handle:
        kinds = [token.type for token in tokenize.generate_tokens(handle.readline)]
    assert sum(kind not in (tokenize.COMMENT, tokenize.NL) for kind in kinds) < 4096
