"""Adapter interface and execution outcome model.

The paper's "Supporting a new DBMS" implication (Section 9) notes that adding
a DBMS to SQuaLity only requires implementing a handful of interface methods
(connect, set up / tear down a database, execute statements and queries) —
about 33 LOC per system.  :class:`DBMSAdapter` is that interface.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any

from repro.dialects.base import DialectProfile


class ExecutionStatus(enum.Enum):
    """Outcome category of executing one statement."""

    OK = "ok"
    ERROR = "error"
    CRASH = "crash"
    HANG = "hang"

    @property
    def is_abnormal(self) -> bool:
        """Crashes and hangs are never expected outcomes (Section 9)."""
        return self in (ExecutionStatus.CRASH, ExecutionStatus.HANG)


@dataclass
class ExecutionOutcome:
    """What happened when an adapter executed one statement."""

    status: ExecutionStatus
    columns: list[str] = field(default_factory=list)
    rows: list[list[Any]] = field(default_factory=list)
    rendered: list[list[str]] = field(default_factory=list)
    error: str = ""
    error_type: str = ""
    statement: str = ""

    def __getattr__(self, name: str) -> Any:
        # Lazy materialisation backstops.  The result codec stores query rows
        # column-major and the engine adapters defer text rendering; both drop
        # the corresponding field from the instance dict and park compact
        # backing state (``_row_columns``/``_row_count``/``_render_style``)
        # there instead.  Anything that reads the field — comparisons that
        # miss the columnar fast path, canonical serialization, equality —
        # rebuilds it here once; consumers that never look never pay.  The
        # backing state is plain data, so lazy outcomes pickle across process
        # workers and stay lazy on the other side.
        state = self.__dict__
        if name == "rows":
            columns = state.get("_row_columns")
            if columns is not None:
                rows = [list(row) for row in zip(*columns)]
            else:
                count = state.get("_row_count")
                if count is None:
                    raise AttributeError(name)
                rows = [[] for _ in range(count)]
            state["rows"] = rows
            return rows
        if name == "rendered":
            style = state.get("_render_style")
            if style is None:
                raise AttributeError(name)
            from repro.engine.values import render_value

            rendered = [[render_value(value, style) for value in row] for row in self.rows]
            state["rendered"] = rendered
            return rendered
        raise AttributeError(name)

    @property
    def ok(self) -> bool:
        return self.status is ExecutionStatus.OK

    @property
    def is_query_result(self) -> bool:
        return self.ok and bool(self.columns)

    def flat_values(self) -> list[str]:
        """All rendered values in row-major order (SLT value-wise comparison)."""
        return [value for row in self.rendered for value in row]


class DBMSAdapter(ABC):
    """Common interface over every DBMS SQuaLity can execute tests on.

    The lifecycle is explicit: :meth:`setup` opens the connection,
    :meth:`reset` restores a pristine database between test files (and between
    pooled reuses — see :class:`~repro.adapters.pool.AdapterPool`), and
    :meth:`teardown` releases everything.  ``connect``/``close`` remain the
    abstract primitives subclasses implement; ``setup``/``teardown`` are the
    lifecycle entry points callers (and the context-manager protocol) use, so
    an adapter can hook them without touching the connection primitives.
    """

    #: short machine name, e.g. ``"sqlite"``
    name: str = "abstract"
    #: dialect profile describing the system's SQL dialect
    dialect: DialectProfile

    @abstractmethod
    def connect(self) -> None:
        """Open a connection / create the in-process engine instance."""

    @abstractmethod
    def reset(self) -> None:
        """Drop all state so the next test file starts from a clean database."""

    @abstractmethod
    def execute(self, sql: str) -> ExecutionOutcome:
        """Execute one statement and describe the outcome (never raises)."""

    @abstractmethod
    def close(self) -> None:
        """Tear down the connection."""

    # -- lifecycle ----------------------------------------------------------------

    def setup(self) -> None:
        """Bring the adapter to a usable state (default: :meth:`connect`)."""
        self.connect()

    def teardown(self) -> None:
        """Release every resource (default: :meth:`close`)."""
        self.close()

    # -- conveniences shared by all adapters ---------------------------------------

    def fork_config(self) -> tuple[str, dict] | None:
        """Registry name + kwargs with which an equivalent fresh adapter can be
        built in a worker (for sharded execution), or None if it cannot.

        The default is None — sharded runs fall back to serial execution —
        because silently rebuilding an adapter without its constructor state
        could change results.  Adapters opt in by returning their registry
        name plus every kwarg needed to clone themselves (see
        :class:`~repro.adapters.minidb_adapter.MiniDBAdapter`).
        """
        return None

    def execute_many(self, statements: list[str]) -> list[ExecutionOutcome]:
        """Execute statements in order, stopping early only on a crash."""
        outcomes = []
        for statement in statements:
            outcome = self.execute(statement)
            outcomes.append(outcome)
            if outcome.status is ExecutionStatus.CRASH:
                break
        return outcomes

    def __enter__(self) -> "DBMSAdapter":
        self.setup()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.teardown()
