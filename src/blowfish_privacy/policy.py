"""Blowfish policies: tuple universes, secret graphs, permissible databases.

A policy pairs a secret graph over tuple values with a record count and a
permissible-database set, which is either unconstrained (every length-n
tuple sequence) or an explicit finite list. Databases are tuples of labels;
the canonical database order is lexicographic over universe indices, and
every downstream matrix row or vertex index uses that order.
"""

from __future__ import annotations

import json
import math
import sys
from functools import cached_property
from itertools import product
from typing import Iterable, Sequence

from ._frozen import Value
from .errors import CapExceededError, InputError, SchemaError
from .graphcore import Graph

Database = tuple[str, ...]

DEFAULT_DATABASE_CAP = 100_000

_DOCUMENT_KEYS = {"tuples", "values", "secret_edges", "n", "permissible"}


class TupleUniverse(Value):
    """Ordered universe of distinct tuple labels, with optional numeric values."""

    labels: tuple[str, ...]
    values: tuple[float, ...] | None

    def __init__(self, labels: tuple[str, ...], values: tuple[float, ...] | None = None):
        if not labels:
            raise InputError("tuple universe must be non-empty")
        if len(set(labels)) != len(labels):
            raise InputError("duplicate labels in tuple universe")
        if values is not None and len(values) != len(labels):
            raise InputError("values must align one-to-one with labels")
        self._set(labels=labels, values=values)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise InputError(f"unknown label {label!r}") from None

    def __contains__(self, label) -> bool:
        return label in self._index

    def __len__(self) -> int:
        return len(self.labels)


class SecretGraph(Value):
    """Simple graph on universe labels; edges mark value pairs kept secret."""

    universe: TupleUniverse
    edges: frozenset[tuple[str, str]]

    def __init__(self, universe: TupleUniverse, edges: frozenset[tuple[str, str]]):
        for a, b in edges:
            if a == b:
                raise InputError(f"self-loop on label {a!r} is not a valid secret edge")
            ia, ib = universe.index(a), universe.index(b)
            if ia > ib:
                raise InputError("secret edges must be stored in universe order")
        self._set(universe=universe, edges=edges)

    @classmethod
    def from_pairs(
        cls, universe: TupleUniverse, pairs: Iterable[Sequence[str]]
    ) -> "SecretGraph":
        edges = set()
        for a, b in pairs:
            if a == b:
                raise InputError(f"self-loop on label {a!r} is not a valid secret edge")
            ia, ib = universe.index(a), universe.index(b)
            edges.add((a, b) if ia < ib else (b, a))
        return cls(universe, frozenset(edges))

    @cached_property
    def index_graph(self) -> Graph:
        """This graph on universe indices, as used by the graph machinery."""
        index = self.universe.index
        return Graph.from_edges(
            len(self.universe), [(index(a), index(b)) for a, b in self.edges]
        )

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> list[tuple[str, str]]:
        key = self.universe.index
        return sorted(self.edges, key=lambda e: (key(e[0]), key(e[1])))


def database_sort_key(universe: TupleUniverse):
    """Sort key realising the canonical lexicographic-over-indices order."""

    def key(db: Database) -> tuple[int, ...]:
        return tuple(universe.index(lab) for lab in db)

    return key


class BlowfishPolicy(Value):
    """Secret graph + record count + permissible databases (None = all)."""

    secret_graph: SecretGraph
    n: int
    permissible: tuple[Database, ...] | None

    def __init__(
        self,
        secret_graph: SecretGraph,
        n: int,
        permissible: Iterable[Database] | None = None,
    ):
        if n < 1:
            raise InputError("record count n must be at least 1")
        if permissible is not None:
            universe = secret_graph.universe
            seen = set()
            for db in permissible:
                if len(db) != n:
                    raise InputError(
                        f"database {db!r} has {len(db)} records, expected n={n}"
                    )
                for lab in db:
                    universe.index(lab)
                if db in seen:
                    raise InputError(f"duplicate permissible database {db!r}")
                seen.add(db)
            if not seen:
                raise InputError("explicit permissible set must be non-empty")
            permissible = tuple(sorted(seen, key=database_sort_key(universe)))
        self._set(secret_graph=secret_graph, n=n, permissible=permissible)

    @property
    def unconstrained(self) -> bool:
        return self.permissible is None

    @property
    def universe(self) -> TupleUniverse:
        return self.secret_graph.universe


def permissible_size(policy: BlowfishPolicy) -> int:
    """The number of permissible databases: ``m ** n`` for an unconstrained
    policy on ``m`` values with ``n`` records. :class:`CapExceededError`
    names it ``m^n`` when it has more decimal digits than Python writes out
    (``sys.get_int_max_str_digits()``, unless 0), decided before the power
    is taken, so every count derived from it (a component count is at most
    it) can be printed."""
    if not policy.unconstrained:
        return len(policy.permissible)
    m, n = len(policy.universe), policy.n
    limit = sys.get_int_max_str_digits()
    # An int is compared with a float exactly, however large n is; log10
    # errs far less than a digit, so only a count near the limit is computed.
    if limit and ((m > 1 and n > (limit + 1) / math.log10(m)) or m**n >= 10**limit):
        raise CapExceededError(
            f"permissible set has {m}^{n} databases, a count of more than {limit} digits"
        )
    return m**n


def capped_permissible_size(policy: BlowfishPolicy, cap: int) -> int:
    """:func:`permissible_size`, raising :class:`CapExceededError` above
    ``cap``; the error names a count past ``sys.maxsize`` as ``m^n``."""
    total = permissible_size(policy)
    if total > cap:
        count = total if total <= sys.maxsize else f"{len(policy.universe)}^{policy.n}"
        raise CapExceededError(
            f"permissible set has {count} databases, exceeding the cap of {cap}"
        )
    return total


def enumerate_permissible(
    policy: BlowfishPolicy, cap: int = DEFAULT_DATABASE_CAP
) -> tuple[Database, ...]:
    """Materialise the permissible set in canonical order.

    For an unconstrained policy this is the full product of labels in
    lexicographic index order. Either way its size must not exceed ``cap``.
    """
    capped_permissible_size(policy, cap)
    if policy.unconstrained:
        return tuple(product(policy.universe.labels, repeat=policy.n))
    return policy.permissible


def _normalise_permissible(
    permissible: Iterable[Sequence[str]] | None | str,
) -> tuple[Database, ...] | None:
    if permissible is None or permissible == "all":
        return None
    return tuple(tuple(db) for db in permissible)


def _label_for(value: float) -> str:
    v = float(value)
    return str(int(v)) if v.is_integer() else repr(v)


def distance_threshold_policy(
    values: Sequence[float],
    theta: float,
    n: int,
    permissible: Iterable[Sequence[str]] | None | str = None,
) -> BlowfishPolicy:
    """Secrets connect labels whose numeric values differ by at most ``theta``."""
    if not theta >= 0:
        raise InputError(f"distance threshold must be non-negative, got {theta}")
    vals = tuple(float(v) for v in values)
    universe = TupleUniverse(tuple(_label_for(v) for v in vals), vals)
    pairs = []
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            if abs(vals[i] - vals[j]) <= theta:
                pairs.append((universe.labels[i], universe.labels[j]))
    graph = SecretGraph.from_pairs(universe, pairs)
    return BlowfishPolicy(graph, n, _normalise_permissible(permissible))


def cycle_policy(
    m: int,
    n: int,
    permissible: Iterable[Sequence[str]] | None | str = None,
) -> BlowfishPolicy:
    """Secrets form a cycle over labels ``1 .. m``."""
    if m < 3:
        raise InputError(f"a cycle needs at least 3 tuples, got {m}")
    universe = TupleUniverse(tuple(str(i) for i in range(1, m + 1)))
    pairs = [(str(i), str(i % m + 1)) for i in range(1, m + 1)]
    graph = SecretGraph.from_pairs(universe, pairs)
    return BlowfishPolicy(graph, n, _normalise_permissible(permissible))


def complete_policy(
    m: int,
    n: int,
    permissible: Iterable[Sequence[str]] | None | str = None,
) -> BlowfishPolicy:
    """All distinct label pairs over ``1 .. m`` are secret (differential privacy)."""
    if m < 1:
        raise InputError(f"universe size must be positive, got {m}")
    universe = TupleUniverse(tuple(str(i) for i in range(1, m + 1)))
    pairs = [
        (universe.labels[i], universe.labels[j])
        for i in range(m)
        for j in range(i + 1, m)
    ]
    graph = SecretGraph.from_pairs(universe, pairs)
    return BlowfishPolicy(graph, n, _normalise_permissible(permissible))


def custom_policy(
    labels: Sequence[str],
    edges: Iterable[Sequence[str]],
    n: int,
    permissible: Iterable[Sequence[str]] | None | str = None,
    values: Sequence[float] | None = None,
) -> BlowfishPolicy:
    universe = TupleUniverse(
        tuple(labels), tuple(float(v) for v in values) if values is not None else None
    )
    graph = SecretGraph.from_pairs(universe, edges)
    return BlowfishPolicy(graph, n, _normalise_permissible(permissible))


def build_policy(kind: str, n: int, permissible=None, **params) -> BlowfishPolicy:
    """Dispatch to a named policy constructor.

    Kinds: ``distance_threshold`` (values, theta), ``cycle`` (m),
    ``complete`` (m), ``custom`` (labels, edges, optional values).
    """
    normalised = kind.replace("-", "_")
    builders = {
        "distance_threshold": distance_threshold_policy,
        "cycle": cycle_policy,
        "complete": complete_policy,
        "custom": custom_policy,
    }
    if normalised not in builders:
        raise InputError(f"unknown policy kind {kind!r}")
    try:
        return builders[normalised](n=n, permissible=permissible, **params)
    except TypeError as exc:
        raise InputError(f"bad parameters for policy kind {kind!r}: {exc}") from None


# ---------------------------------------------------------------------------
# Policy document format (UTF-8 JSON)


def policy_to_document(policy: BlowfishPolicy) -> dict:
    universe = policy.universe
    doc: dict = {"tuples": list(universe.labels)}
    if universe.values is not None:
        doc["values"] = [
            int(v) if float(v).is_integer() else float(v) for v in universe.values
        ]
    doc["secret_edges"] = [list(edge) for edge in policy.secret_graph.sorted_edges()]
    doc["n"] = policy.n
    doc["permissible"] = (
        "all" if policy.unconstrained else [list(db) for db in policy.permissible]
    )
    return doc


def policy_to_json(policy: BlowfishPolicy) -> str:
    return json.dumps(policy_to_document(policy), indent=2) + "\n"


def numbers(doc, message: str) -> tuple[float, ...]:
    """The floats of a JSON list of numbers (not bools); anything else,
    including an integer beyond the float range, is a :class:`SchemaError`
    carrying ``message``."""
    if not isinstance(doc, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in doc
    ):
        raise SchemaError(message)
    try:
        return tuple(float(v) for v in doc)
    except OverflowError:
        raise SchemaError(f"{message}: an integer is too large for a float") from None


def label_lists(doc, message: str) -> tuple[Database, ...]:
    """The databases of a JSON list of label lists; anything else is a
    :class:`SchemaError` carrying ``message``."""
    if not isinstance(doc, list) or not all(
        isinstance(db, list) and all(isinstance(x, str) for x in db) for db in doc
    ):
        raise SchemaError(message)
    return tuple(tuple(db) for db in doc)


def policy_from_document(doc) -> BlowfishPolicy:
    if not isinstance(doc, dict):
        raise SchemaError("policy document must be a JSON object")
    unknown = set(doc) - _DOCUMENT_KEYS
    if unknown:
        raise SchemaError(f"unknown policy fields: {sorted(unknown)}")
    missing = (_DOCUMENT_KEYS - {"values"}) - set(doc)
    if missing:
        raise SchemaError(f"missing policy fields: {sorted(missing)}")

    tuples = doc["tuples"]
    if not isinstance(tuples, list) or not all(isinstance(t, str) for t in tuples):
        raise SchemaError("'tuples' must be a list of strings")

    values = doc.get("values")
    if values is not None:
        values = numbers(values, "'values' must be a list of numbers")
        if len(values) != len(tuples):
            raise SchemaError("'values' must have one entry per tuple")

    edges = doc["secret_edges"]
    if not isinstance(edges, list) or not all(
        isinstance(e, list) and len(e) == 2 and all(isinstance(x, str) for x in e)
        for e in edges
    ):
        raise SchemaError("'secret_edges' must be a list of label pairs")

    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise SchemaError("'n' must be an integer")

    permissible = doc["permissible"]
    if permissible != "all":
        permissible = label_lists(
            permissible, "'permissible' must be \"all\" or a list of label lists"
        )

    universe = TupleUniverse(tuple(tuples), values)
    graph = SecretGraph.from_pairs(universe, edges)
    return BlowfishPolicy(graph, n, _normalise_permissible(permissible))


def policy_from_json(text: str) -> BlowfishPolicy:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"policy document is not valid JSON: {exc}") from None
    return policy_from_document(doc)
