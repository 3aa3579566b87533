"""One table of the named pipelines and their DuckDB twins.

Each pipeline ``run(sf_dir)`` is declared once, where it is defined::

    @query("knn", sql=_sql_knn, bench=True, quadratic=True)
    def q_knn(sf_dir: str): ...

``sql`` is a zero-argument callable returning the twin's SQL (a lambda
when the builder takes arguments or is defined further down the module).
``bench`` marks the pipelines bench.py times at sf scale; ``quadratic``
marks twins whose SQL is O(n^2) in the rows, which the sf0.1 oracle
sweep runs rows-only.  The decorator returns the function unchanged.

This module imports no pipeline module at import time:
:func:`entries` imports the registering modules on first use, so the
driver's ``queries()``/``oracle_sql()``, bench.py and the sweep all read
the same table.
"""

from __future__ import annotations

import importlib
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

#: the modules whose import registers every entry
MODULES = ("queries", "relational", "tpch")


@dataclass(frozen=True)
class Entry:
    run: Callable[[str], Any]
    sql: Callable[[], str]
    bench: bool = False
    quadratic: bool = False


_ENTRIES: dict[str, Entry] = {}


def query(
    name: str,
    *,
    sql: Callable[[], str],
    bench: bool = False,
    quadratic: bool = False,
) -> Callable[[Callable[[str], Any]], Callable[[str], Any]]:
    """Register the decorated pipeline under ``name`` with its twin."""

    def register(run: Callable[[str], Any]) -> Callable[[str], Any]:
        if name in _ENTRIES:
            raise ValueError(f"query {name!r} is already registered")
        _ENTRIES[name] = Entry(run, sql, bench, quadratic)
        return run

    return register


def entries() -> dict[str, Entry]:
    """Every registered pipeline by name."""
    for mod in MODULES:
        importlib.import_module(f"{__package__}.{mod}")
    return dict(_ENTRIES)
