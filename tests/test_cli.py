import json
import math
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from blowfish_privacy.cli import build_parser, main

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
    ],
    ids=["tightness_seed", "figure_max_group", "leakage_max_databases"],
)
def test_flags_are_refused_where_not_read(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "k.csv").write_text("1.0,0.0\n0.0,1.0\n")
    assert exit_code(*argv) == 2


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
    from blowfish_privacy import adjacency

    def refuse(*args, **kwargs):
        raise AssertionError("the unconstrained path induced the adjacency graph")

    policy = build_path_policy(tmp_path, n=3)
    monkeypatch.setattr(adjacency, "induce_adjacency_graph", refuse)
    out = tmp_path / "k.csv"
    assert run("channel", "generate", "--policy", str(policy), "--epsilon", "0.1",
               "--out", str(out)) == 0
    assert len(out.read_text().splitlines()) == 64


def test_unconstrained_generate_refuses_a_bad_epsilon(tmp_path, capsys):
    policy = build_path_policy(tmp_path, n=3)
    out = tmp_path / "never.csv"
    assert run("channel", "generate", "--policy", str(policy), "--epsilon", "0",
               "--out", str(out)) == 2
    assert "epsilon must be positive" in capsys.readouterr().err
    assert not out.exists()


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
    seen.append([code, "numpy" in sys.modules])
print(json.dumps(seen))
"""


def test_numpy_is_imported_only_by_commands_that_build_arrays(tmp_path):
    """Commands with no array never import numpy; channel leakage does."""
    (tmp_path / "k.csv").write_text("1.0,0.0\n0.0,1.0\n")
    calls = [
        ["--help"],
        ["policy", "build", "--kind", "distance-threshold", "--values", "1,2,3,4",
         "--theta", "1", "--n", "3", "--out", "p.json"],
        ["policy", "validate", "p.json"],
        ["adjacency", "induce", "p.json", "--out", "g.json"],
        ["bound", "compute", "p.json", "--epsilon", "0.5"],
        ["figure", "bound-sweep", "--n-max", "3"],
        ["channel", "leakage", "k.csv"],
    ]
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-c", DEFERRAL_SCRIPT, json.dumps(calls)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    seen = json.loads(done.stdout.splitlines()[-1])
    assert seen == [[0, False]] * (len(calls) - 1) + [[0, True]]
