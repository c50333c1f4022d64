"""Interconnect cost model.

Point-to-point transfers use the alpha-beta (latency + bandwidth) model;
collectives use the standard log-tree / recursive-doubling complexity
bounds (Thakur et al., "Optimization of Collective Communication
Operations in MPICH", IJHPCA 2005). Intra-node messages get a cheaper
alpha/beta, which matters because 64-512 ranks share 32 nodes in the
paper's setup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ConfigurationError


@dataclass(frozen=True)
class NetworkSpec:
    """Latency/bandwidth description of the cluster interconnect."""

    #: inter-node latency in seconds (~1.5 us, IB FDR-ish)
    alpha_inter: float = 1.5e-6
    #: inter-node bandwidth in bytes/s (~6 GB/s)
    beta_inter: float = 6.0e9
    #: intra-node (shared-memory) latency in seconds
    alpha_intra: float = 3.0e-7
    #: intra-node bandwidth in bytes/s
    beta_intra: float = 3.0e10

    def __post_init__(self):
        if min(self.alpha_inter, self.alpha_intra) < 0:
            raise ConfigurationError("latencies must be non-negative")
        if min(self.beta_inter, self.beta_intra) <= 0:
            raise ConfigurationError("bandwidths must be positive")


class Network:
    """Prices MPI traffic over a :class:`NetworkSpec`."""

    def __init__(self, spec: NetworkSpec | None = None):
        self.spec = spec or NetworkSpec()

    # -- point to point ----------------------------------------------------
    def ptp_time(self, nbytes: int, intra_node: bool = False) -> float:
        """Time for one point-to-point message of ``nbytes``."""
        if nbytes < 0:
            raise ConfigurationError("message size must be non-negative")
        if intra_node:
            return self.spec.alpha_intra + nbytes / self.spec.beta_intra
        return self.spec.alpha_inter + nbytes / self.spec.beta_inter

    # -- collectives -------------------------------------------------------
    def _alpha_beta(self) -> tuple:
        return self.spec.alpha_inter, self.spec.beta_inter

    @staticmethod
    def _log2(nprocs: int) -> float:
        return math.log2(max(2, nprocs))

    def barrier_time(self, nprocs: int) -> float:
        """Dissemination barrier: ceil(log2 P) rounds of zero-byte messages."""
        alpha, _ = self._alpha_beta()
        return math.ceil(self._log2(nprocs)) * alpha

    def bcast_time(self, nprocs: int, nbytes: int) -> float:
        """Binomial-tree broadcast."""
        alpha, beta = self._alpha_beta()
        rounds = math.ceil(self._log2(nprocs))
        return rounds * (alpha + nbytes / beta)

    def reduce_time(self, nprocs: int, nbytes: int) -> float:
        """Binomial-tree reduction (same complexity as bcast)."""
        return self.bcast_time(nprocs, nbytes)

    def allreduce_time(self, nprocs: int, nbytes: int) -> float:
        """Recursive-doubling allreduce: log2(P) * (alpha + n/beta),
        the binomial tree's rounds."""
        return self.bcast_time(nprocs, nbytes)

    def allgather_time(self, nprocs: int, nbytes_per_rank: int) -> float:
        """Ring allgather: (P-1) steps, each sending one rank's block."""
        alpha, beta = self._alpha_beta()
        steps = max(1, nprocs - 1)
        return steps * (alpha + nbytes_per_rank / beta)

    def gather_time(self, nprocs: int, nbytes_per_rank: int) -> float:
        """Binomial gather: log rounds, total data arrives at the root."""
        alpha, beta = self._alpha_beta()
        rounds = math.ceil(self._log2(nprocs))
        return rounds * alpha + (nprocs - 1) * nbytes_per_rank / beta

    def scatter_time(self, nprocs: int, nbytes_per_rank: int) -> float:
        """Binomial scatter (mirror of gather)."""
        return self.gather_time(nprocs, nbytes_per_rank)

    def alltoall_time(self, nprocs: int, nbytes_per_pair: int) -> float:
        """Pairwise-exchange alltoall: P-1 steps of per-pair blocks, the
        ring allgather's step count and volume."""
        return self.allgather_time(nprocs, nbytes_per_pair)

    def scan_time(self, nprocs: int, nbytes: int) -> float:
        """Recursive-doubling inclusive scan."""
        return self.allreduce_time(nprocs, nbytes)
