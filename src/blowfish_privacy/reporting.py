"""Flat key-value reports and CSV documents, rendered from records and rows.

All emitted text uses LF line endings, ``,`` as the CSV delimiter and ``.``
as the decimal mark. Floats are rendered with ``repr`` so output is
byte-reproducible and round-trips exactly.
"""

from __future__ import annotations

import csv
import io
import math
from typing import Iterable, NamedTuple, Sequence

from .symmetrise import PropertyCheck

# Bounds that read ``unbounded`` when not finite; every other float keeps
# ``inf`` and ``-inf``, the measured epsilon and the margins included. A new
# bound field that should read ``unbounded`` joins this set.
_BOUND_FIELDS = frozenset(
    {
        "min_entropy_lower_bits",
        "leakage_upper_bits",
        "min_entropy_lower_bits_at_measured",
        "leakage_upper_bits_at_measured",
    }
)


def format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_kv(items: Sequence[tuple[str, object]]) -> str:
    """Render ``(key, value)`` pairs as a flat ``key: value`` document."""
    return "".join(f"{key}: {format_value(value)}\n" for key, value in items)


def render_report(record: NamedTuple) -> str:
    """``record`` as a ``key: value`` document, one line per field in order.

    A field that is ``None`` is left out, and a non-finite bound
    (``_BOUND_FIELDS``) reads ``unbounded``. A tuple of ``PropertyCheck``
    records renders as ``check_<name>: pass|fail`` and
    ``check_<name>_magnitude`` per check, then the record's ``all_passed``;
    any other tuple (a constrained policy's component diameters) is left out.
    """
    items = []
    for key, value in zip(record._fields, record):
        if value is None:
            continue
        if isinstance(value, tuple):
            if value and all(isinstance(check, PropertyCheck) for check in value):
                for check in value:
                    items.append((f"check_{check.name}", "pass" if check.passed else "fail"))
                    items.append((f"check_{check.name}_magnitude", check.magnitude))
                items.append(("all_passed", record.all_passed))
        elif key in _BOUND_FIELDS and not math.isfinite(value):
            items.append((key, "unbounded"))
        else:
            items.append((key, value))
    return render_kv(items)


def render_csv(header: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([format_value(cell) for cell in row])
    return buf.getvalue()
