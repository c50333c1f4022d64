"""Spans around each layer's public entry points, recorded from outside.

The traced pass of a workload wraps a fixed table of ``repro`` callables
(:data:`WRAP_TABLE`) in the workload's child interpreter only, and keeps
every span in memory until the pass ends. Nothing inside ``src/repro``
knows it is being traced.

A record is ``(target, span, parent, unit, start, end)``:

* ``target`` indexes :attr:`Tracer.targets` — the ``(layer, name)`` of
  the wrapped callable; ``layer`` is the module the time is charged to.
* ``span`` identifies one call. A plain function makes one record per
  call. A generator function makes one record per *resumption* — a
  segment — and all segments of one call share the span id, so the time
  a simulated rank spends parked in the scheduler between two
  resumptions is charged to the scheduler, not to the rank's code.
* ``parent`` is the index of the record that was open when this one
  began (-1 for a root), ``unit`` the operation it belongs to.

Self time of a record is its duration minus the part of that interval
its child records cover (:func:`self_times`); a layer's self time is
the sum over its records.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

#: (layer, module, qualified name). Generator functions are detected
#: and get per-resumption segments. Module-level functions are replaced
#: in every loaded ``repro`` module that holds the name (apps import
#: their kernels by name), methods on their class.
WRAP_TABLE = (
    ("core.engine", "repro.core.engine", "execute_unit"),
    ("core.harness", "repro.core.harness", "build_cluster"),
    ("core.harness", "repro.core.harness", "make_fault_plan"),
    ("core.designs", "repro.core.designs", "DesignBase.run_job"),
    ("simmpi.runtime", "repro.simmpi.runtime", "Runtime.run"),
    ("apps.proxy", "repro.apps.amg", "Amg.iterate"),
    ("apps.proxy", "repro.apps.comd", "Comd.iterate"),
    ("apps.proxy", "repro.apps.hpccg", "Hpccg.iterate"),
    ("apps.proxy", "repro.apps.lulesh", "Lulesh.iterate"),
    ("apps.proxy", "repro.apps.minife", "Minife.iterate"),
    ("apps.proxy", "repro.apps.minivite", "Minivite.iterate"),
    ("apps.proxy", "repro.apps.amg", "Amg.make_state"),
    ("apps.proxy", "repro.apps.comd", "Comd.make_state"),
    ("apps.proxy", "repro.apps.hpccg", "Hpccg.make_state"),
    ("apps.proxy", "repro.apps.lulesh", "Lulesh.make_state"),
    ("apps.proxy", "repro.apps.minife", "Minife.make_state"),
    ("apps.proxy", "repro.apps.minivite", "Minivite.make_state"),
    ("apps.kernels", "repro.apps.kernels.cg", "cg_step"),
    ("apps.kernels", "repro.apps.kernels.stencil", "apply_27pt"),
    ("apps.kernels", "repro.apps.kernels.stencil", "apply_7pt"),
    ("apps.kernels", "repro.apps.kernels.stencil", "jacobi_smooth"),
    ("apps.kernels", "repro.apps.kernels.stencil", "restrict_full_weight"),
    ("apps.kernels", "repro.apps.kernels.stencil", "prolong_inject"),
    ("apps.kernels", "repro.apps.kernels.stencil", "residual_norm"),
    ("apps.kernels", "repro.apps.kernels.multigrid", "v_cycle"),
    ("apps.kernels", "repro.apps.kernels.graph", "planted_partition"),
    ("apps.kernels", "repro.apps.kernels.graph", "louvain_sweep"),
    ("apps.kernels", "repro.apps.kernels.graph", "modularity"),
    ("apps.kernels", "repro.apps.kernels.hydro", "init_sedov"),
    ("apps.kernels", "repro.apps.kernels.hydro", "stable_dt"),
    ("apps.kernels", "repro.apps.kernels.hydro", "lagrange_step"),
    ("apps.kernels", "repro.apps.kernels.lennard_jones", "init_fcc_lattice"),
    ("apps.kernels", "repro.apps.kernels.lennard_jones", "lj_forces"),
    ("apps.kernels", "repro.apps.kernels.lennard_jones", "velocity_verlet"),
    ("apps.kernels", "repro.apps.kernels.lennard_jones", "kinetic_energy"),
    ("apps.kernels", "repro.apps.kernels.sparse", "assemble_poisson_27pt"),
    ("apps.kernels", "repro.apps.kernels.sparse", "rhs_for"),
    ("fti.api", "repro.fti.api", "Fti.checkpoint"),
    ("fti.api", "repro.fti.api", "Fti.recover"),
    ("fti.serializer", "repro.fti.serializer", "ProtectedSet.serialize"),
    ("fti.serializer", "repro.fti.serializer",
     "ProtectedSet.deserialize_into"),
    ("fti.rs_encoding", "repro.fti.rs_encoding", "ReedSolomonCode.encode"),
    ("fti.rs_encoding", "repro.fti.rs_encoding", "ReedSolomonCode.decode"),
    ("recovery", "repro.recovery.ulfm", "UlfmRecovery.survivor_repair"),
    ("recovery", "repro.recovery.ulfm", "UlfmRecovery.shrinking_repair"),
    ("recovery", "repro.recovery.ulfm", "UlfmRecovery.replacement_join"),
    ("recovery", "repro.recovery.agreement", "agree"),
    ("recovery", "repro.recovery.reinit", "ReinitRecovery.on_global_failure"),
    ("recovery", "repro.recovery.restart", "RestartRecovery.on_abort"),
    ("explore.engine", "repro.explore.engine", "explore"),
    ("core.store", "repro.core.store", "ResultStore.append"),
    ("core.store", "repro.core.store", "ResultStore.load_completed"),
    ("core.breakdown", "repro.core.breakdown", "run_result_to_dict"),
    ("core.breakdown", "repro.core.breakdown", "run_result_from_dict"),
    ("core.configs", "repro.core.configs", "run_key"),
    ("service.http", "repro.service.http", "AdvisorServer.handle_request"),
    ("service.query", "repro.service.query", "AdviceQuery.from_dict"),
    ("service.core", "repro.service.core", "AdvisorService.advise"),
    ("service.core", "repro.service.core", "AdvisorService.advise_batch"),
    ("service.grid", "repro.service.grid", "GridCache.grid"),
    ("service.vector", "repro.service.vector", "advise_batch"),
    ("service.vector", "repro.service.vector", "advise_batch_ranked"),
)

#: byte counts taken at the same boundary as the span, by wrapped name
MEASURES = {
    "ReedSolomonCode.encode":
        lambda code, data_shards: sum(len(s) for s in data_shards),
}

#: the layers the wrap table charges time to, in report order
LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in WRAP_TABLE))

#: names of the wrapped callables. The spans the benchmark opens itself
#: (a pass, a unit, a request, the reply's ``json.dumps``) use other
#: names; only time under these names counts as covered by the table.
WRAPPED_NAMES = frozenset(qualname for _, _, qualname in WRAP_TABLE)

#: layer of the span the benchmark opens around one pass; its self time
#: is the part of a pass that is in no operation
PASS_LAYER = "bench.pass"


class Tracer:
    """In-memory span recorder with a stack of open records.

    Records are kept as six parallel columns (``target``, ``span``,
    ``parent``, ``unit``, ``start``, ``end``) of plain numbers: half a
    million small lists would make every garbage collection of the
    traced program slower, six long lists of numbers do not.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.targets: list = []
        self.target: list = []
        self.span: list = []
        self.parent: list = []
        self.unit: list = []
        self.start: list = []
        self.end: list = []
        #: the operation records opened from now on belong to
        self.current_unit = -1
        #: ``{wrapped name: bytes}`` for the names in :data:`MEASURES`
        self.amounts: dict = {}
        self._stack: list = []
        self._spans = 0

    def __len__(self) -> int:
        return len(self.target)

    def target_index(self, layer: str, name: str) -> int:
        """Index of the ``(layer, name)`` target, registering it."""
        key = (layer, name)
        if key not in self.targets:
            self.targets.append(key)
        return self.targets.index(key)

    def new_span(self) -> int:
        self._spans += 1
        return self._spans

    def _append(self, target: int, span: int, unit: int) -> int:
        index = len(self.target)
        stack = self._stack
        self.target.append(target)
        self.span.append(span or self.new_span())
        self.parent.append(stack[-1] if stack else -1)
        self.unit.append(unit)
        self.end.append(0.0)
        self.start.append(self.clock())
        return index

    def begin(self, target: int, span: int = 0) -> int:
        """Open a record under the innermost open one and make it the
        innermost; returns its index for :meth:`finish`."""
        index = self._append(target, span, self.current_unit)
        self._stack.append(index)
        return index

    def finish(self, index: int) -> None:
        self.end[index] = self.clock()
        # wrappers close in ``finally``, so even an exception unwinding
        # through several of them ends the innermost record first
        if self._stack.pop() != index:
            raise RuntimeError("span %d ended out of order" % index)

    def open(self, target: int, unit: int) -> int:
        """Open a record that may overlap its siblings (one unit of a
        parallel campaign): a child of the innermost open record, but
        never itself a parent."""
        return self._append(target, 0, unit)

    def close(self, index: int) -> None:
        self.end[index] = self.clock()

    def clear(self) -> None:
        """Drop the records (targets and amounts stay)."""
        for column in (self.target, self.span, self.parent, self.unit,
                       self.start, self.end):
            column.clear()


def self_times(parent, start, end) -> list:
    """Self seconds of every record: duration minus the union of the
    intervals its direct children cover.

    Children are recorded in start order, so one forward sweep merges
    each parent's children without sorting; overlapping children (the
    units of a parallel campaign) are counted once.
    """
    covered = [0.0] * len(parent)
    reach = list(start)
    for index, owner in enumerate(parent):
        if owner < 0:
            continue
        begin = max(start[index], reach[owner])
        finish = min(end[index], end[owner])
        if finish > begin:
            covered[owner] += finish - begin
            reach[owner] = finish
    return [end[index] - start[index] - covered[index]
            for index in range(len(parent))]


def target_self_seconds(tracer: Tracer) -> dict:
    """``{(layer, name): self seconds}`` summed over the tracer's
    records."""
    totals = [0.0] * len(tracer.targets)
    seconds = self_times(tracer.parent, tracer.start, tracer.end)
    for target, own in zip(tracer.target, seconds):
        totals[target] += own
    return dict(zip(tracer.targets, totals))


def call_counts(tracer: Tracer) -> dict:
    """``{name: calls}`` — distinct spans per wrapped callable."""
    spans = set(zip(tracer.target, tracer.span))
    counts: dict = {}
    for target, _ in spans:
        name = tracer.targets[target][1]
        counts[name] = counts.get(name, 0) + 1
    return counts


def durations(tracer: Tracer, layer: str, name: str) -> list:
    """``(unit, seconds)`` of every record of one wrapped callable."""
    wanted = tracer.target_index(layer, name)
    return [(tracer.unit[index], tracer.end[index] - tracer.start[index])
            for index, target in enumerate(tracer.target)
            if target == wanted]


# -- wrappers -----------------------------------------------------------------
def wrap_call(tracer: Tracer, target: int, fn, measure=None):
    """``fn`` with one record around every call; ``measure`` maps the
    call's arguments to a byte count added to :attr:`Tracer.amounts`."""
    begin, finish, amounts = tracer.begin, tracer.finish, tracer.amounts
    name = tracer.targets[target][1]

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if measure is not None:
            amounts[name] = amounts.get(name, 0) + measure(*args, **kwargs)
        index = begin(target)
        try:
            return fn(*args, **kwargs)
        finally:
            finish(index)

    return traced


def wrap_generator(tracer: Tracer, target: int, genfn):
    """``genfn`` with one record around every resumption of the
    generator it returns; the segments of one call share a span id.

    Delegates like ``yield from`` does: values sent in, exceptions
    thrown in (the runtime delivers failures that way) and ``close()``
    (a killed rank) all reach the wrapped generator.
    """
    begin, finish, new_span = tracer.begin, tracer.finish, tracer.new_span

    @functools.wraps(genfn)
    def traced(*args, **kwargs):
        gen = genfn(*args, **kwargs)
        span = new_span()
        value = thrown = None
        while True:
            index = begin(target, span)
            try:
                if thrown is None:
                    yielded = gen.send(value)
                else:
                    pending, thrown = thrown, None
                    yielded = gen.throw(pending)
            except StopIteration as stop:
                return stop.value
            finally:
                finish(index)
            try:
                value = yield yielded
            except GeneratorExit:
                index = begin(target, span)
                try:
                    gen.close()
                finally:
                    finish(index)
                raise
            except BaseException as exc:
                thrown = exc

    return traced


def _resolve(module_name: str, qualname: str):
    """``(owner, attribute, function)`` for a table entry."""
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, vars(owner)[attr]


def install(tracer: Tracer, table=WRAP_TABLE):
    """Wrap every callable in ``table``; returns a function that undoes
    the patching."""
    resolved = [(layer, qualname) + _resolve(module_name, qualname)
                for layer, module_name, qualname in table]
    undo = []
    for layer, qualname, owner, attr, fn in resolved:
        target = tracer.target_index(layer, qualname)
        binder = type(fn) if isinstance(fn, (classmethod, staticmethod)) \
            else None
        inner = fn.__func__ if binder else fn
        if inspect.isgeneratorfunction(inner):
            wrapper = wrap_generator(tracer, target, inner)
        else:
            wrapper = wrap_call(tracer, target, inner,
                                MEASURES.get(qualname))
        if binder:
            wrapper = binder(wrapper)
        if inspect.isclass(owner):
            holders = [owner]
        else:
            holders = [module for name, module in list(sys.modules.items())
                       if name.split(".")[0] == "repro" and module is not None
                       and vars(module).get(attr) is fn]
        for holder in holders:
            setattr(holder, attr, wrapper)
            undo.append((holder, attr, fn))

    def uninstall():
        for holder, attr, fn in reversed(undo):
            setattr(holder, attr, fn)

    return uninstall
