"""MPI recovery frameworks: Restart, Reinit and ULFM (paper §II-D)."""

from .base import RecoveryStrategy
from .heartbeat import HeartbeatTradeoff, heartbeat_tradeoff
from .reinit import ReinitRecovery, ReinitSpec
from .restart import RestartRecovery
from .ulfm import RECOVERY_TRIGGERS, UlfmRecovery

__all__ = [
    "HeartbeatTradeoff",
    "RECOVERY_TRIGGERS",
    "RecoveryStrategy",
    "ReinitRecovery",
    "ReinitSpec",
    "RestartRecovery",
    "UlfmRecovery",
    "heartbeat_tradeoff",
]
