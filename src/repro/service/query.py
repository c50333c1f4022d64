"""The canonical advisor query: what every cache layer keys on.

A query's identity is its *resolved* form — MTBF parsed to seconds,
designs/levels normalized to tuples — so ``"4h"`` and ``14400`` are the
same cache entry, and a dict off the wire keys identically to one built
in Python. The two key views split along the service's cache layers:

``group_key``
    The MTBF-independent workload signature
    (app, nprocs, input, nnodes, designs, levels, objective). One
    :class:`~repro.modeling.vector.CellGrid` serves every query that
    shares it; the batch core groups by it.
``cache_key``
    ``group_key`` plus the MTBF — the exact-answer identity the LRU
    keys on.

Model/calibration version is deliberately *not* part of the key: the
service pairs keys with its current calibration version and flushes
wholesale on recalibration (see :mod:`repro.service.core`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ..core.configs import DESIGN_NAMES, NNODES
from ..errors import ConfigurationError
from ..fti.config import VALID_LEVELS
from ..modeling.advisor import OBJECTIVES, parse_mtbf


@dataclass(frozen=True)
class AdviceQuery:
    """One advisor question, in canonical (cache-keyable) form.

    Build via :meth:`make` or :meth:`from_dict` — they normalize and
    validate; the raw constructor trusts its arguments.
    """

    app: str
    nprocs: int
    mtbf_seconds: float
    input_size: str = "small"
    nnodes: int = NNODES
    designs: tuple = tuple(DESIGN_NAMES)
    levels: tuple = tuple(VALID_LEVELS)
    objective: str = "makespan"

    @classmethod
    def make(cls, app: str, nprocs: int, mtbf, *,
             input_size: str = "small", nnodes: int = NNODES,
             designs=DESIGN_NAMES, levels=VALID_LEVELS,
             objective: str = "makespan") -> "AdviceQuery":
        """Normalize and validate one query (MTBF via
        :func:`~repro.modeling.advisor.parse_mtbf`, sequences to
        tuples)."""
        if objective not in OBJECTIVES:
            raise ConfigurationError(
                "unknown objective %r (have %s)"
                % (objective, OBJECTIVES))
        if not (isinstance(designs, (list, tuple))
                and isinstance(levels, (list, tuple))):
            # a bare string would be iterated per character
            raise ConfigurationError(
                "designs and levels must be lists (got %r, %r)"
                % (designs, levels))
        designs = tuple(str(design) for design in designs)
        if not designs or not levels:
            raise ConfigurationError(
                "an advice query needs at least one design and level")
        try:
            levels = tuple(int(level) for level in levels)
            nprocs = int(nprocs)
            nnodes = int(nnodes)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                "levels/nprocs/nnodes must be integers: %s"
                % (exc,)) from exc
        if nprocs < 1 or nnodes < 1:
            raise ConfigurationError(
                "need positive process and node counts")
        query = cls(app=str(app), nprocs=nprocs,
                    mtbf_seconds=parse_mtbf(mtbf),
                    input_size=str(input_size), nnodes=nnodes,
                    designs=designs, levels=levels, objective=objective)
        query.cache_key  # warm both key caches at construction
        return query

    @classmethod
    def from_dict(cls, data: dict) -> "AdviceQuery":
        """A query from a JSON-ish dict (the wire format).

        Required: ``app``, ``nprocs``, ``mtbf``. Optional:
        ``input_size``, ``nnodes``, ``designs``, ``levels``,
        ``objective``. Unknown fields are rejected — a typo'd field
        silently ignored would serve the wrong answer.
        """
        if not isinstance(data, dict):
            raise ConfigurationError(
                "advice query must be an object, got %s"
                % type(data).__name__)
        unknown = set(data) - {"app", "nprocs", "mtbf", "input_size",
                               "nnodes", "designs", "levels",
                               "objective"}
        if unknown:
            raise ConfigurationError(
                "advice query has unknown fields %s" % sorted(unknown))
        missing = {"app", "nprocs", "mtbf"} - set(data)
        if missing:
            raise ConfigurationError(
                "advice query missing required fields %s"
                % sorted(missing))
        return cls.make(
            data["app"], data["nprocs"], data["mtbf"],
            input_size=data.get("input_size", "small"),
            nnodes=data.get("nnodes", NNODES),
            designs=data.get("designs", DESIGN_NAMES),
            levels=data.get("levels", VALID_LEVELS),
            objective=data.get("objective", "makespan"))

    def to_dict(self) -> dict:
        return {"app": self.app, "nprocs": self.nprocs,
                "mtbf": self.mtbf_seconds,
                "input_size": self.input_size, "nnodes": self.nnodes,
                "designs": list(self.designs),
                "levels": list(self.levels),
                "objective": self.objective}

    # key tuples are cached_property, not property: the batch core
    # touches them once per query per layer, and a cached_property
    # writes straight into __dict__ (bypassing the frozen guard), so
    # repeat touches are a dict hit instead of tuple construction
    @cached_property
    def group_key(self) -> tuple:
        """The MTBF-independent workload signature (one cell grid per
        distinct value)."""
        return (self.app, self.nprocs, self.input_size, self.nnodes,
                self.designs, self.levels, self.objective)

    @cached_property
    def cache_key(self) -> tuple:
        """The exact-answer identity (group + MTBF)."""
        return self.group_key + (self.mtbf_seconds,)

    def with_mtbf(self, mtbf_seconds: float) -> "AdviceQuery":
        """The same workload at a different (already-parsed) MTBF."""
        query = AdviceQuery(
            app=self.app, nprocs=self.nprocs,
            mtbf_seconds=float(mtbf_seconds),
            input_size=self.input_size, nnodes=self.nnodes,
            designs=self.designs, levels=self.levels,
            objective=self.objective)
        query.cache_key
        return query


__all__ = ["AdviceQuery"]
