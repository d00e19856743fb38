"""Command-line interface.

Subcommands: ``policy build|validate``, ``adjacency induce``,
``bound compute``, ``channel verify|leakage|generate``, ``symmetrise run``,
``tightness sweep``, ``figure bound-sweep``.

Exit codes: 0 success, 1 a requested check failed, 2 bad input, 3 a
resource cap was exceeded, memory ran out or the disk filled up; output
to a stdout pipe whose reader has left is dropped, not an error. Output
files are written atomically after all computation succeeds, so a non-zero
exit never leaves partial files; all outputs are deterministic for fixed
inputs and ``--seed``.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import random
import sys
import tempfile
import warnings
from contextlib import contextmanager, nullcontext
from typing import Iterable, Iterator, TextIO

from . import adjacency as adjacency_mod
from . import bounds as bounds_mod
from . import channel as channel_mod
from . import graphcore
from . import policy as policy_mod
from . import symmetrise as symmetrise_mod
from . import tightness as tightness_mod
from .errors import BlowfishError, CapExceededError, InputError, SchemaError
from .reporting import render_csv, render_kv, render_report

ENV_MAX_DATABASES = "BLOWFISH_MAX_DATABASES"
ENV_MAX_CELLS = "BLOWFISH_MAX_CELLS"
# Admits n = 6's 4,096 x 4,096 channel and refuses n = 7's 16,384 x 16,384.
DEFAULT_CELL_CAP = 2**25
EPSILON_SLACK = 1e-12

FIGURE_COLUMNS = (
    "n",
    "theta_or_kind",
    "epsilon",
    "q",
    "max_diameter",
    "bound_bits",
)


def _write_output(path: str | None, content: str | Iterable[str]) -> None:
    """Write ``content`` to ``path`` atomically, or to stdout when no path is given.

    ``content`` is a string or an iterable of strings (a channel's CSV rows),
    which is written chunk by chunk as it is produced, never joined. The
    chunks go to a temporary file beside ``path`` that replaces it only once
    all are written; if producing or writing one raises, the temporary file
    is removed and ``path`` is left as it was. When stdout's reader has
    left (a closed pipe), no more chunks are produced and nothing is raised.
    """
    chunks = [content] if isinstance(content, str) else content
    if path is None:
        try:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
        except BrokenPipeError:
            # The interpreter flushes stdout once more at exit: send that nowhere.
            os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".blowfish-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(chunks)
        # mkstemp creates the file as 0600; give it the mode open() would.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@contextmanager
def _opened(path: str) -> Iterator[TextIO]:
    """``path`` open as UTF-8 text; unreadable or undecodable input is a SchemaError."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            yield handle
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from None


def _read_text(path: str) -> str:
    with _opened(path) as handle:
        return handle.read()


def _cap(flag: int | None, env: str, default: int) -> int:
    """A cap's value: its flag's, else its environment variable's (a
    non-negative integer), else ``default``."""
    if flag is not None:
        return flag
    text = os.environ.get(env)
    if text is None:
        return default
    try:
        return _non_negative_int(text)
    except argparse.ArgumentTypeError:
        raise InputError(f"{env} must be a non-negative integer, got {text!r}") from None


def _max_databases(args) -> int:
    return _cap(args.max_databases, ENV_MAX_DATABASES, policy_mod.DEFAULT_DATABASE_CAP)


def _max_cells(args) -> int:
    return _cap(args.max_cells, ENV_MAX_CELLS, DEFAULT_CELL_CAP)


def _parse_floats(text: str, what: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part != ""]
    except ValueError:
        values = [math.nan]  # reported below, with the non-finite entries
    if not all(math.isfinite(v) for v in values):
        raise InputError(f"{what} must be a comma-separated list of finite numbers: {text!r}")
    return values


def _float_arg(text: str) -> float:
    """argparse type of --epsilon and --theta: a float other than NaN (inf is valid)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if math.isnan(value):
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    return value


def _non_negative_int(text: str) -> int:
    """argparse type of --seed and the caps: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"invalid non-negative integer value: {text!r}")
    return value


def _parse_ints(text: str, what: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise InputError(f"{what} must be a comma-separated list of integers: {text!r}") from None


def _parse_edges(text: str) -> list[tuple[str, str]]:
    edges = []
    for part in text.split(","):
        if not part:
            continue
        pieces = part.split(":")
        if len(pieces) != 2:
            raise InputError(f"edges must look like 'a:b,c:d', got {part!r}")
        edges.append((pieces[0], pieces[1]))
    return edges


def _load_policy(path: str) -> policy_mod.BlowfishPolicy:
    return policy_mod.policy_from_json(_read_text(path))


def _resolve_source(
    args, cap: int
) -> adjacency_mod.AdjacencyGraph | policy_mod.BlowfishPolicy:
    """The --graph adjacency graph (at most ``cap`` vertices), or the --policy
    policy, not yet induced."""
    if args.graph:
        adjacency = adjacency_mod.adjacency_from_json(_read_text(args.graph))
        if len(adjacency.vertices) > cap:
            raise CapExceededError(
                f"graph has {len(adjacency.vertices)} vertices, exceeding the cap of {cap}"
            )
        return adjacency
    if args.policy:
        return _load_policy(args.policy)
    raise InputError("either --graph or --policy is required")


def _induced(source, cap: int) -> adjacency_mod.AdjacencyGraph:
    """``source`` as an adjacency graph: a policy is induced (at most ``cap``
    databases), a graph is kept."""
    if isinstance(source, policy_mod.BlowfishPolicy):
        return adjacency_mod.induce_adjacency_graph(source, cap=cap)
    return source


# ---------------------------------------------------------------------------
# Handlers


def _cmd_policy_build(args) -> int:
    permissible = "all"
    if args.permissible != "all":
        permissible = policy_mod.label_lists(
            json.loads(_read_text(args.permissible)),
            "permissible file must hold a JSON list of label lists",
        )

    kind = args.kind.replace("-", "_")
    params: dict = {}
    if kind == "distance_threshold":
        if args.values is None or args.theta is None:
            raise InputError("distance-threshold policies need --values and --theta")
        params = {"values": _parse_floats(args.values, "--values"), "theta": args.theta}
    elif kind in ("cycle", "complete"):
        if args.m is None:
            raise InputError(f"{args.kind} policies need --m")
        params = {"m": args.m}
    else:  # custom: argparse's choices refuse any other kind
        if args.tuples is None:
            raise InputError("custom policies need --tuples")
        params = {
            "labels": [t for t in args.tuples.split(",") if t],
            "edges": _parse_edges(args.edges or ""),
        }
        if args.values is not None:
            params["values"] = _parse_floats(args.values, "--values")

    built = policy_mod.build_policy(kind, n=args.n, permissible=permissible, **params)
    _write_output(args.out, policy_mod.policy_to_json(built))
    return 0


def _cmd_policy_validate(args) -> int:
    text = _read_text(args.document)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        print(f"invalid: not a JSON document ({exc})", file=sys.stderr)
        return 2
    try:
        built = policy_mod.policy_from_document(doc)
    except SchemaError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 2
    except InputError as exc:
        _write_output(None, f"invalid: {exc}\n")
        return 1
    _write_output(
        None,
        f"valid: {len(built.universe)} tuples, "
        f"{built.secret_graph.edge_count} secret edges, n={built.n}, "
        f"permissible={'all' if built.unconstrained else len(built.permissible)}\n",
    )
    return 0


def _cmd_adjacency_induce(args) -> int:
    built = _load_policy(args.policy)
    graph = adjacency_mod.induce_adjacency_graph(built, cap=_max_databases(args))
    _write_output(args.out, adjacency_mod.adjacency_to_json(graph))
    return 0


def _cmd_bound_compute(args) -> int:
    built = _load_policy(args.policy)
    # The channel is streamed once audit has induced the graph.
    with _opened(args.channel) if args.channel else nullcontext() as handle:
        report = bounds_mod.audit(built, args.epsilon, channel=handle, cap=_max_databases(args))
    _write_output(args.out, render_report(report))
    return 0 if report.bounds_hold in (None, True) else 1


def _cmd_channel_verify(args) -> int:
    cap = _max_databases(args)
    graph = _induced(_resolve_source(args, cap), cap).to_graph()
    with _opened(args.channel) as handle:
        found = channel_mod.measure(handle, graph, leak=False)
    epsilon_star = found.minimal_epsilon
    items = [
        ("rows", found.rows),
        ("columns", found.cols),
        # Reading validated the channel: an invalid one has exited 2 already.
        ("violations", 0),
        ("minimal_epsilon", epsilon_star),
    ]
    satisfied = True
    if args.epsilon is not None:
        satisfied = epsilon_star <= args.epsilon + EPSILON_SLACK
        items.append(("target_epsilon", args.epsilon))
        items.append(("private_at_target", satisfied))
    _write_output(args.out, render_kv(items))
    return 0 if satisfied else 1


def _cmd_channel_leakage(args) -> int:
    prior = None
    if args.prior:  # read first: the channel is weighed by it as it streams
        doc = json.loads(_read_text(args.prior))
        prior = channel_mod.Prior(
            policy_mod.numbers(doc, "prior file must hold a JSON list of probabilities")
        )
    with _opened(args.channel) as handle:
        report = channel_mod.measure(handle, prior=prior).leakage
    _write_output(args.out, render_report(report))
    return 0


def _cmd_channel_generate(args) -> int:
    cap = _max_databases(args)
    source = _resolve_source(args, cap)
    by_policy = isinstance(source, policy_mod.BlowfishPolicy)
    size = policy_mod.capped_permissible_size(source, cap) if by_policy else len(source.vertices)
    channel_mod.check_cells(size, size, _max_cells(args))
    columns = None
    if args.shuffle_outputs:
        columns = list(range(size))
        random.Random(args.seed).shuffle(columns)
    if by_policy and source.unconstrained:
        # The adjacency graph is the secret graph's n-fold Cartesian product: none is induced.
        graph, n = source.secret_graph.index_graph, source.n
    else:  # a graph is its own one-record product
        graph, n = _induced(source, cap).to_graph(), 1
    _write_output(args.out, channel_mod.product_lines(graph, n, args.epsilon, columns))
    return 0


def _cmd_symmetrise_run(args) -> int:
    cap = _max_databases(args)
    source = _resolve_source(args, cap)
    adjacency = _induced(source, cap)
    graph = adjacency.to_graph()
    with _opened(args.channel) as handle:
        chan = channel_mod.read_channel(
            handle, graph.vertex_count, _max_cells(args), graph.edge_count,
            symmetrise_mod.PYTHON_AVERAGE_CELLS,
        )

    if args.group == "trivial":
        group = graphcore.PermutationGroup(graph.vertex_count)
    elif args.group == "lifted":
        if not args.policy:
            raise InputError("--group lifted requires --policy")
        built = source  # the policy, parsed once, unless --graph gave the graph
        if not isinstance(built, policy_mod.BlowfishPolicy):
            built = _load_policy(args.policy)
        generators = graphcore.lift_policy_automorphisms(built, adjacency, args.vertex_cap)
        group = graphcore.generate_group(
            generators, cap=args.max_group, degree=graph.vertex_count
        )
    else:
        group = graphcore.automorphism_group(
            graph, vertex_cap=args.vertex_cap, element_cap=args.max_group
        )
    order = group.order  # from the stabiliser chain: a --max-group overflow exits 3 here

    grouped, averaged, report = symmetrise_mod.run(
        chan, graph, group, args.strategy, args.cross_check
    )
    if args.out_grouped:
        _write_output(args.out_grouped, grouped)
    if args.out_averaged:
        _write_output(args.out_averaged, averaged)
    _write_output(args.out, render_kv([("group_order", order)]) + render_report(report))
    return 0 if report.all_passed else 1


def _cmd_tightness_sweep(args) -> int:
    ns = _parse_ints(args.n, "--n")
    deltas = _parse_floats(args.delta, "--delta")
    instances = tightness_mod.sharpness_sweep(ns, deltas)
    _write_output(args.out, tightness_mod.sweep_to_csv(instances))
    return 0


def _cmd_figure_bound_sweep(args) -> int:
    values = _parse_floats(args.values, "--values")
    thetas = _parse_floats(args.thetas, "--thetas")
    if args.n_max < 1:
        raise InputError("--n-max must be at least 1")
    rows = []
    for theta in thetas:
        for n in range(1, args.n_max + 1):
            built = policy_mod.distance_threshold_policy(values, theta, n)
            report = bounds_mod.audit(built, args.epsilon)
            rows.append(
                (
                    n,
                    theta,
                    args.epsilon,
                    report.component_count,
                    report.max_diameter,
                    report.leakage_upper_bits,
                )
            )
    _write_output(args.out, render_csv(FIGURE_COLUMNS, rows))
    return 0


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    capped = argparse.ArgumentParser(add_help=False)
    capped.add_argument(
        "--max-databases",
        type=_non_negative_int,
        help=f"cap on materialised databases (default 100000, env {ENV_MAX_DATABASES})",
    )
    cells = argparse.ArgumentParser(add_help=False)
    cells.add_argument(
        "--max-cells",
        type=_non_negative_int,
        help=f"cap on the channel's rows x columns, checked before it is computed or "
        f"read into memory (default 2**25, env {ENV_MAX_CELLS})",
    )
    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("--policy", help="policy JSON (adjacency graph is induced)")
    source.add_argument("--graph", help="graph JSON path")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="output path (stdout when omitted)")

    parser = argparse.ArgumentParser(
        prog="blowfish",
        description="Blowfish privacy policies, adjacency graphs, and leakage bounds",
        allow_abbrev=False,
    )
    top = parser.add_subparsers(dest="command", required=True)
    groups = {}

    def command(name, handler, parents=(), about=None, **kwargs) -> argparse.ArgumentParser:
        """The parser of ``name`` ("group command"), run by ``handler``, taking no abbreviated
        flag; the group's parser, whose help is ``about``, comes with its first command."""
        group, sub = name.split()
        if group not in groups:
            made = top.add_parser(group, help=about, allow_abbrev=False)
            groups[group] = made.add_subparsers(dest="subcommand", required=True)
        made = groups[group].add_parser(sub, parents=parents, allow_abbrev=False, **kwargs)
        made.set_defaults(handler=handler)
        return made

    build = command("policy build", _cmd_policy_build, [out],
                    "build or validate policy documents", help="construct a policy")
    build.add_argument(
        "--kind",
        required=True,
        choices=["distance-threshold", "cycle", "complete", "custom"],
    )
    build.add_argument("--values", help="comma-separated numeric tuple values")
    build.add_argument("--theta", type=_float_arg, help="distance threshold")
    build.add_argument("--m", type=int, help="universe size for cycle/complete")
    build.add_argument("--tuples", help="comma-separated labels for custom policies")
    build.add_argument("--edges", help="secret edges as 'a:b,c:d' for custom policies")
    build.add_argument("--n", type=int, required=True, help="records per database")
    build.add_argument(
        "--permissible",
        default="all",
        help="'all' or a path to a JSON list of databases",
    )

    validate = command("policy validate", _cmd_policy_validate, help="validate a policy document")
    validate.add_argument("document", help="policy JSON path")

    induce = command("adjacency induce", _cmd_adjacency_induce, [capped, out],
                     "induce adjacency graphs")
    induce.add_argument("policy", help="policy JSON path")

    compute = command("bound compute", _cmd_bound_compute, [capped, out],
                      "evaluate leakage and min-entropy bounds")
    compute.add_argument("policy", help="policy JSON path")
    compute.add_argument("--epsilon", type=_float_arg, required=True)
    compute.add_argument("--channel", help="channel CSV to audit against the bounds")

    verify = command("channel verify", _cmd_channel_verify, [capped, source, out],
                     "verify, measure, or generate channels")
    verify.add_argument("channel", help="channel CSV path")
    verify.add_argument("--epsilon", type=_float_arg, help="target privacy level")

    leak = command("channel leakage", _cmd_channel_leakage, [out])
    leak.add_argument("channel", help="channel CSV path")
    leak.add_argument("--prior", help="JSON list of prior probabilities")

    generate = command("channel generate", _cmd_channel_generate, [capped, cells, source, out])
    generate.add_argument("--epsilon", type=_float_arg, required=True)
    generate.add_argument(
        "--shuffle-outputs",
        action="store_true",
        help="apply a seeded random permutation of output columns",
    )
    generate.add_argument(
        "--seed", type=_non_negative_int, default=0, help="non-negative seed for --shuffle-outputs"
    )

    run = command("symmetrise run", _cmd_symmetrise_run, [capped, cells, source, out],
                  "run the channel symmetrisation pipeline")
    run.add_argument("channel", help="channel CSV path")
    run.add_argument("--group", default="full", choices=["full", "lifted", "trivial"])
    run.add_argument("--vertex-cap", type=_non_negative_int, default=graphcore.DEFAULT_VERTEX_CAP)
    run.add_argument(
        "--max-group",
        type=_non_negative_int,
        default=graphcore.DEFAULT_GROUP_CAP,
        help="cap on the group order, read from the stabiliser chain built from the "
        "generators and checked before any averaging; no group element is enumerated",
    )
    run.add_argument("--strategy", default="orbit", choices=["full", "orbit"],
                     help="orbit (default): one exact sum per pair orbit; "
                     "full: through the stabiliser chain's transversals")
    run.add_argument("--cross-check", action="store_true")
    run.add_argument("--out-grouped", help="CSV path for the column-grouped channel")
    run.add_argument("--out-averaged", help="CSV path for the group-averaged channel")

    sweep = command("tightness sweep", _cmd_tightness_sweep, [out], "sharpness-family sweeps")
    sweep.add_argument("--n", required=True, help="comma-separated component counts (each >= 2)")
    sweep.add_argument("--delta", required=True, help="comma-separated positive deltas")

    bound_sweep = command("figure bound-sweep", _cmd_figure_bound_sweep, [out],
                          "figure-reproduction CSVs")
    bound_sweep.add_argument("--values", default="1,2,3,4")
    bound_sweep.add_argument("--thetas", default="1,2,3")
    bound_sweep.add_argument("--n-max", type=int, default=8)
    bound_sweep.add_argument("--epsilon", type=_float_arg, default=0.1)

    return parser


# warnings.showwarning: the category, file and line go unprinted.
def _print_warning(message, *_) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        # One line per library warning, like the error lines, with no source location.
        warnings.showwarning = _print_warning
        try:
            return args.handler(args)
        except MemoryError as exc:  # numpy's _ArrayMemoryError included
            print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
            return 3
        except json.JSONDecodeError as exc:
            print(f"error: invalid JSON input ({exc})", file=sys.stderr)
            return 2
        except (BlowfishError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            # 3 for a cap or a full disk; 2 for bad input (SchemaError is an
            # InputError) or another OS error; 1 for a requested check that
            # failed, such as --cross-check.
            if isinstance(exc, OSError):
                return 3 if exc.errno in (errno.ENOSPC, errno.EDQUOT) else 2
            return 3 if isinstance(exc, CapExceededError) else 2 if isinstance(exc, InputError) else 1


if __name__ == "__main__":
    sys.exit(main())
