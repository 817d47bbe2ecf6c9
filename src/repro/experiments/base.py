"""Declarative experiment API: registration, matrix needs, and accumulation.

An experiment used to be an ad-hoc ``(EXPERIMENT_ID, TITLE, run)`` module
triple consumed by a hand-maintained dict, which meant no scheduler could know
which matrix cells an experiment needs before running it.  This module closes
that gap the same way :mod:`repro.formats.registry` and
:mod:`repro.adapters.registry` did for parsers and adapters:

* :func:`register_experiment` — a decorator that registers an
  :class:`Experiment` subclass (or a plain ``run(context)`` function) under an
  id, with a human title, a description, and a declarative
  :class:`ExperimentNeeds`.
* :class:`ExperimentNeeds` — which corpora the experiment reads and which
  campaign-matrix cells (suite × host × translate) it consumes.  The streaming
  engine (:mod:`repro.experiments.stream`) unions these declarations and
  executes each unique cell exactly once per pass.
* :class:`Experiment` — the accumulate/finalize protocol: the engine calls
  :meth:`Experiment.consume` once per needed cell as results arrive (in any
  order) and :meth:`Experiment.finalize` once every declared cell has been
  delivered.  Accumulators must compute everything in ``finalize`` so results
  are independent of cell arrival order — that is what keeps streaming output
  byte-identical to the serial batch.

See docs/EXPERIMENTS.md for the third-party registration walkthrough.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

# CellKey lives with the cell executor and is re-exported here, next to the
# needs that declare cells
from repro.core.transplant import DEFAULT_HOSTS, DONOR_OF_SUITE, CellKey
from repro.errors import UnknownExperimentError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.transplant import TransplantResult
    from repro.experiments.context import ExperimentContext, ExperimentResult


def donor_cells(*suites: str) -> tuple[CellKey, ...]:
    """One donor-on-donor cell per suite (the RQ3 diagonal)."""
    return tuple(CellKey(suite, DONOR_OF_SUITE[suite]) for suite in suites)


def matrix_cells(
    suites: tuple[str, ...],
    hosts: tuple[str, ...] = DEFAULT_HOSTS,
    translate: bool = False,
    include_donor: bool = True,
) -> tuple[CellKey, ...]:
    """The suite × host grid in campaign order (suites outer, hosts inner).

    ``include_donor=False`` drops the donor-on-donor diagonal — the shape of
    the paper's off-diagonal RQ4 analyses (Tables 6/7, the translation
    ablation).
    """
    cells = []
    for suite in suites:
        for host in hosts:
            if not include_donor and DONOR_OF_SUITE.get(suite, suite) == host:
                continue
            cells.append(CellKey(suite, host, translate))
    return tuple(cells)


@dataclass(frozen=True)
class ExperimentNeeds:
    """What one experiment consumes, declared up front.

    ``suites`` names the corpora the driver reads (``"slt"``, ``"postgres"``,
    ``"duckdb"``, ``"mysql"``); ``cells`` the campaign-matrix cells it
    accumulates.  Both are declarative: the streaming engine warms the corpora
    once, unions every registered experiment's cells, and executes each unique
    cell exactly once per pass.  An empty declaration (the default) marks a
    pure-analysis experiment, which finalizes before any cell executes.
    """

    cells: tuple[CellKey, ...] = ()
    suites: tuple[str, ...] = ()


class Experiment:
    """Base class for registered experiments (the accumulate/finalize protocol).

    The engine instantiates the class with the shared
    :class:`~repro.experiments.context.ExperimentContext`, delivers each
    declared cell through :meth:`consume` as it completes — in **no guaranteed
    order** — and calls :meth:`finalize` exactly once, after the last declared
    cell has arrived.  Subclasses therefore do all their computation in
    ``finalize``, reading accumulated cells via :meth:`cell` /
    :meth:`iter_cells`; that discipline is what makes streaming output
    byte-identical to the serial batch regardless of completion order.
    """

    #: populated by :func:`register_experiment`
    id: str = ""
    title: str = ""
    description: str = ""
    needs: ExperimentNeeds = ExperimentNeeds()

    def __init__(self, context: "ExperimentContext"):
        self.context = context
        self._cells: dict[CellKey, "TransplantResult"] = {}

    def consume(self, key: CellKey, result: "TransplantResult") -> None:
        """Accept one completed matrix cell (called once per declared key)."""
        self._cells[key] = result

    def cell(self, suite: str, host: str, translate: bool = False) -> "TransplantResult":
        """The accumulated result of one declared cell."""
        return self._cells[CellKey(suite, host, translate)]

    def iter_cells(self) -> "list[tuple[CellKey, TransplantResult]]":
        """Accumulated cells in *declaration* order (stable across arrival orders)."""
        return [(key, self._cells[key]) for key in self.needs.cells if key in self._cells]

    def finalize(self) -> "ExperimentResult":
        """Produce the experiment's result; called once, after every cell arrived."""
        raise NotImplementedError


@dataclass(frozen=True)
class ExperimentEntry:
    """One registry row: identity, metadata, needs, and the experiment factory."""

    id: str
    title: str
    description: str
    needs: ExperimentNeeds
    factory: type[Experiment] = field(repr=False)

    def create(self, context: "ExperimentContext") -> Experiment:
        return self.factory(context)


#: experiment id -> entry, in registration order (the canonical run order)
_REGISTRY: dict[str, ExperimentEntry] = {}


def register_experiment(
    experiment_id: str,
    title: str,
    *,
    needs: ExperimentNeeds | None = None,
    description: str = "",
    replace: bool = False,
):
    """Decorator registering an experiment under ``experiment_id``.

    Accepts either an :class:`Experiment` subclass or a plain
    ``run(context) -> ExperimentResult`` function (wrapped in a needs-less
    accumulator whose ``finalize`` simply calls it — the minimal migration
    path for third-party drivers).  Registering an already-known id raises
    unless ``replace=True`` (test hook; see :func:`unregister_experiment`).
    """

    def decorate(obj):
        if isinstance(obj, type) and issubclass(obj, Experiment):
            cls = obj
        elif callable(obj):
            run_callable: Callable = obj

            class _FunctionExperiment(Experiment):
                def finalize(self) -> "ExperimentResult":
                    return run_callable(self.context)

            _FunctionExperiment.__name__ = f"{run_callable.__name__}_experiment"
            _FunctionExperiment.__qualname__ = _FunctionExperiment.__name__
            cls = _FunctionExperiment
        else:
            raise TypeError(
                f"@register_experiment({experiment_id!r}) expects an Experiment subclass "
                f"or a run(context) callable, got {obj!r}"
            )
        if experiment_id in _REGISTRY and not replace:
            raise ValueError(f"experiment {experiment_id!r} is already registered (pass replace=True to override)")
        cls.id = experiment_id
        cls.title = title
        cls.description = description
        cls.needs = needs if needs is not None else ExperimentNeeds()
        _REGISTRY[experiment_id] = ExperimentEntry(
            id=experiment_id, title=title, description=description, needs=cls.needs, factory=cls
        )
        return obj

    return decorate


def unregister_experiment(experiment_id: str) -> None:
    """Remove one registration (test hook for temporary experiments)."""
    _REGISTRY.pop(experiment_id, None)


def get_experiment_entry(experiment_id: str) -> ExperimentEntry:
    """The registry entry for ``experiment_id``, with near-miss suggestions on miss."""
    try:
        return _REGISTRY[experiment_id]
    except KeyError:
        suggestions = difflib.get_close_matches(experiment_id, _REGISTRY, n=3, cutoff=0.5)
        hint = f" (did you mean {', '.join(repr(s) for s in suggestions)}?)" if suggestions else ""
        raise UnknownExperimentError(
            f"unknown experiment {experiment_id!r}{hint}; known: {sorted(_REGISTRY)}"
        ) from None


def experiment_entries() -> list[ExperimentEntry]:
    """Every registered experiment, in registration order."""
    return list(_REGISTRY.values())


def available_experiments() -> list[str]:
    """Registered experiment ids, in registration order."""
    return list(_REGISTRY)
