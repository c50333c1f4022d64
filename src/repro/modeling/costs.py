"""Per-design analytic cost models: the simulator's mechanisms, composed.

The model does not re-derive the simulator's arithmetic, it *calls* it:
each term is priced by the function the simulator itself charges with —
the FTI levels' nominal write/read paths (:mod:`repro.fti.levels`, over
an :class:`~repro.fti.levels.IoSpecs`), the launcher's redeployment
(:meth:`repro.cluster.launcher.JobLauncher.launch_time`), the
interconnect's collectives (:class:`repro.cluster.network.Network`),
Reinit's daemon-local respawn (:meth:`repro.recovery.reinit.ReinitSpec.
cost`) and ULFM's revoke/shrink/spawn/merge/agree step costs
(:class:`repro.simmpi.runtime.UlfmSpec`). A calibration edit to a
mechanism therefore *is* an edit to the model, formula included, and the
paper-anchor pin tests (``tests/cluster``) keep the mechanism itself
from drifting silently. What is the model's own is the composition:
which steps lie on a survivor's critical path, what one checkpoint is
made of, and (in :mod:`repro.modeling.makespan`) E[T].

Cost models are an extension point: the ``model``
:class:`repro.registry.Registry` (``MODELS``) maps model names to
instances providing the four hooks below, so an alternative model (a
calibrated wrapper, a measured lookup table, a different machine) plugs
in exactly like apps and scenario kinds do::

    from repro.modeling import MODELS

    @MODELS.register("pessimistic")
    class Pessimistic(AnalyticCostModel):
        def recovery_seconds(self, design, nprocs, nnodes):
            return 2.0 * super().recovery_seconds(design, nprocs, nnodes)

Model protocol (validated at registration):

``iteration_seconds(app, design, nprocs, nnodes)``
    Virtual seconds one main-loop iteration of ``app`` (a
    :class:`~repro.apps.base.ProxyApp` instance) costs under ``design``.
``ckpt_write_seconds(fti, nbytes, nprocs, nnodes)``
    Per-checkpoint cost at the ``fti`` level for a nominal per-rank blob
    of ``nbytes``.
``ckpt_read_seconds(fti, nbytes, nprocs, nnodes)``
    Recovery-time read of the same blob.
``recovery_seconds(design, nprocs, nnodes)``
    The design's per-failure MPI repair cost (excludes rollback rework —
    :mod:`repro.modeling.makespan` prices that from the interval).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..cluster.launcher import JobLauncher, LauncherSpec
from ..cluster.network import Network, NetworkSpec
from ..cluster.node import NodeSpec
from ..cluster.storage import PFS_BANDWIDTH
from ..errors import ConfigurationError
from ..fti.api import Fti
from ..fti.config import MEMCPY_BANDWIDTH_SHARE, FtiConfig
from ..fti.levels import LEVELS, IoSpecs
from ..recovery.reinit import ReinitSpec
from ..registry import Registry
from ..simmpi.overhead import UlfmOverheadModel
from ..simmpi.runtime import UlfmSpec
from ..workmodel.model import WorkModel


def _check_model(name, obj):
    for hook in ("iteration_seconds", "ckpt_write_seconds",
                 "ckpt_read_seconds", "recovery_seconds"):
        if not callable(getattr(obj, hook, None)):
            raise ConfigurationError(
                "cost model %r must provide %s()" % (name, hook))


#: the ``model`` registry: cost-model name -> model instance
MODELS = Registry("model", instantiate=True, validate=_check_model,
                  noun="cost model")


def resolve_model(model):
    """A model instance from a registry name or a ready-made object."""
    if isinstance(model, str):
        return MODELS.resolve(model)
    _check_model(getattr(model, "name", repr(model)), model)
    return model


def model_version(model) -> str:
    """The model's calibration-version string.

    This is the cache-coherence token of the serving layer
    (:mod:`repro.service`): advice computed under one version must never
    answer a query under another, so anything that changes a model's
    constants must change its version. Models may expose an explicit
    ``version`` attribute (:class:`~repro.modeling.fit.CalibratedModel`
    derives one from a digest of its fitted constants); the fallback is
    the registry ``name``, which is correct for stateless built-ins like
    ``analytic`` whose constants only change with the code itself.
    """
    model = resolve_model(model)
    version = getattr(model, "version", None)
    if isinstance(version, str) and version:
        return version
    name = getattr(model, "name", None)
    if isinstance(name, str) and name:
        return name
    return type(model).__name__


def _log2(n: int) -> float:
    return math.log2(max(2, n))


def ranks_per_node(nprocs: int, nnodes: int) -> int:
    """Ceil-division block placement, as the cluster packs ranks."""
    if nprocs < 1 or nnodes < 1:
        raise ConfigurationError("need positive process and node counts")
    return -(-nprocs // nnodes)


@dataclass(frozen=True)
class CostParams:
    """The mechanism specs the analytic model prices through.

    Defaults are the simulator's own specs, so the model predicts the
    simulator it ships with; swap any field to model a different
    machine.
    """

    node: NodeSpec = field(default_factory=NodeSpec)
    network: NetworkSpec = field(default_factory=NetworkSpec)
    launcher: LauncherSpec = field(default_factory=LauncherSpec)
    reinit: ReinitSpec = field(default_factory=ReinitSpec)
    #: ULFM repair step costs (the scheduler's own spec)
    ulfm: UlfmSpec = field(default_factory=UlfmSpec)
    ulfm_overhead: UlfmOverheadModel = field(
        default_factory=UlfmOverheadModel)
    #: FTI's internal coordination collective (Fti.COORD_ALPHA)
    fti_coord_alpha: float = Fti.COORD_ALPHA
    #: memory-bandwidth fraction usable by checkpoint memcpy — the
    #: simulator's own contention share, verbatim
    memcpy_share: float = MEMCPY_BANDWIDTH_SHARE

    def work_model(self) -> WorkModel:
        return WorkModel(node=self.node)


@MODELS.register("analytic")
class AnalyticCostModel:
    """The closed-form mirror of the simulator's cost arithmetic."""

    name = "analytic"
    #: calibration version (see :func:`model_version`): the analytic
    #: model's constants are the simulator's own, so the name suffices
    version = "analytic"

    def __init__(self, params: CostParams | None = None):
        self.params = params or CostParams()
        self._network = Network(self.params.network)
        self._launcher = JobLauncher(self.params.launcher)

    # -- shared helpers -----------------------------------------------------
    def compute_factor(self, design: str, nprocs: int) -> float:
        """The design's always-on compute tax (ULFM's heartbeat and
        interposition layer; Restart/Reinit are vanilla MPI)."""
        if design == "ulfm-fti":
            return self.params.ulfm_overhead.compute_factor(nprocs)
        return 1.0

    def _io_specs(self, fti: FtiConfig, nprocs: int, nnodes: int) -> IoSpecs:
        """What ``Fti`` hands its level's nominal I/O formulas, built
        from parameters instead of a live job (full encoding groups)."""
        p = self.params
        return IoSpecs(fti, p.node, self._network, PFS_BANDWIDTH, nprocs,
                       nnodes, fti.group_size, p.memcpy_share)

    # -- protocol hooks -----------------------------------------------------
    def iteration_seconds(self, app, design: str, nprocs: int,
                          nnodes: int) -> float:
        """One main-loop iteration: the app's (flops, bytes) through the
        same roofline work model the simulator charges, times the
        design's compute tax."""
        work_per_iter = getattr(app, "work_per_iter", None)
        if not callable(work_per_iter):
            raise ConfigurationError(
                "app %r does not expose work_per_iter(); analytic "
                "modeling needs it (implement it, or register a custom "
                "cost model)" % (getattr(app, "name", app),))
        flops, bytes_moved = work_per_iter()
        seconds = self.params.work_model().seconds(
            flops=flops, bytes_moved=bytes_moved,
            ranks_per_node=ranks_per_node(nprocs, nnodes))
        return seconds * self.compute_factor(design, nprocs)

    def ckpt_write_seconds(self, fti: FtiConfig, nbytes: int, nprocs: int,
                           nnodes: int, design: str = "reinit-fti") -> float:
        """One checkpoint at the ``fti`` level, composed as
        ``Fti.checkpoint`` charges it: serialization compute, the
        level's nominal storage/network path, FTI's metadata agreement
        and the completion allreduce."""
        if nbytes < 0:
            raise ConfigurationError("checkpoint bytes must be >= 0")
        p = self.params
        rpn = ranks_per_node(nprocs, nnodes)
        factor = self.compute_factor(design, nprocs)
        # serialization: one read of the data + one write of the blob
        serialize = p.work_model().seconds(bytes_moved=2.0 * nbytes,
                                           ranks_per_node=rpn) * factor
        io = LEVELS[fti.level].nominal_write_seconds(
            self._io_specs(fti, nprocs, nnodes), nbytes)
        coord = p.fti_coord_alpha * _log2(nprocs) * factor
        allreduce = self._network.allreduce_time(nprocs, 8)
        return serialize + io + coord + allreduce

    def ckpt_read_seconds(self, fti: FtiConfig, nbytes: int, nprocs: int,
                          nnodes: int, design: str = "reinit-fti") -> float:
        """Recovery-time restore, composed as ``Fti.recover`` charges
        it: the level's nominal read path plus deserialization."""
        rpn = ranks_per_node(nprocs, nnodes)
        factor = self.compute_factor(design, nprocs)
        deserialize = self.params.work_model().seconds(
            bytes_moved=2.0 * nbytes, ranks_per_node=rpn) * factor
        io = LEVELS[fti.level].nominal_read_seconds(
            self._io_specs(fti, nprocs, nnodes), nbytes)
        return deserialize + io

    def recovery_seconds(self, design: str, nprocs: int,
                         nnodes: int) -> float:
        """The design's per-failure MPI repair cost."""
        if design == "restart-fti":
            return self._launcher.launch_time(nprocs, nnodes)
        if design == "reinit-fti":
            return self.params.reinit.cost(nnodes)
        if design == "ulfm-fti":
            # survivor critical path: revoke, shrink, spawn one
            # replacement, intercomm merge, two-phase agree
            ulfm = self.params.ulfm
            return (ulfm.revoke_seconds(nprocs)
                    + ulfm.shrink_seconds(nprocs)
                    + ulfm.spawn_seconds(1, nprocs)
                    + ulfm.merge_seconds(nprocs)
                    + ulfm.agree_seconds(nprocs))
        raise ConfigurationError(
            "the analytic model prices the paper's designs "
            "('restart-fti', 'reinit-fti', 'ulfm-fti'), not %r — "
            "register a custom cost model for custom designs" % (design,))


__all__ = [
    "MODELS",
    "AnalyticCostModel",
    "CostParams",
    "model_version",
    "ranks_per_node",
    "resolve_model",
]
