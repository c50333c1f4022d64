"""Capture seed-reference outcomes for the determinism regression test.

Run once against a known-good tree to (re)generate
``tests/data/determinism_seed.json``::

    PYTHONPATH=src python tests/data/capture_seed.py

The determinism test replays the same pinned configurations and asserts
bit-identical makespans, breakdowns and runtime stats, which is the
safety net for any scheduler, matching-path or fault-model rewrite.

Each JSON entry stores the full canonical config dict next to its
outcome, so the pinned matrix can cover arbitrary fault scenarios (the
legacy ``inject_fault`` singles *and* multi-fault scenario configs)
without the test hard-coding constructor arguments.
"""

from __future__ import annotations

import json
import pathlib

from repro.api import run_single
from repro.core.breakdown import result_fingerprint
from repro.core.configs import ExperimentConfig, config_to_dict
from repro.fti.config import FtiConfig

HERE = pathlib.Path(__file__).parent

#: the pinned configuration matrix (kept cheap: 64 ranks, small input,
#: plus a few 8-rank scenario configs)
PINNED = [
    # the paper-era single-kill matrix: these draws must never change
    dict(app="hpccg", design="restart-fti", nprocs=64, seed=7,
         inject_fault=False),
    dict(app="hpccg", design="reinit-fti", nprocs=64, seed=7,
         inject_fault=False),
    dict(app="hpccg", design="ulfm-fti", nprocs=64, seed=7,
         inject_fault=False),
    dict(app="hpccg", design="restart-fti", nprocs=64, seed=7,
         inject_fault=True),
    dict(app="hpccg", design="reinit-fti", nprocs=64, seed=7,
         inject_fault=True),
    dict(app="hpccg", design="ulfm-fti", nprocs=64, seed=7,
         inject_fault=True),
    dict(app="minife", design="ulfm-fti", nprocs=64, seed=7,
         inject_fault=True),
    dict(app="minivite", design="reinit-fti", nprocs=64, seed=7,
         inject_fault=True),
    # multi-fault scenarios (the ISSUE 3 acceptance shapes)
    dict(app="hpccg", design="ulfm-fti", nprocs=64, seed=7,
         faults="independent:3:node=1", fti=FtiConfig(level=2)),
    # MTBF 5 over minivite's 20 iterations: seed 7 draws four arrivals
    # (including a repeat kill of one rank), so the pin actually
    # exercises the multi-event poisson recovery path
    dict(app="minivite", design="reinit-fti", nprocs=8, nnodes=4, seed=7,
         faults="poisson:5"),
    dict(app="minivite", design="restart-fti", nprocs=8, nnodes=4, seed=7,
         faults="correlated:2:window=6", fti=FtiConfig(level=3)),
]


def outcome_of(config: ExperimentConfig) -> dict:
    return result_fingerprint(run_single(config))


def main() -> None:
    reference = {}
    for spec in PINNED:
        config = ExperimentConfig(**spec)
        key = config.label()
        if key in reference:
            raise SystemExit("duplicate pinned label %r" % key)
        reference[key] = {
            "config": config_to_dict(config),
            "outcome": outcome_of(config),
        }
    out = HERE / "determinism_seed.json"
    out.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    print("wrote %s (%d configs)" % (out, len(reference)))


if __name__ == "__main__":
    main()
