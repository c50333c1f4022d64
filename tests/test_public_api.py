"""Public-API surface snapshot: the package's compatibility contract.

Pins the exported names of ``repro`` and ``repro.api`` exactly. A
failure here means the public surface changed — if that was deliberate,
update the pins *and* docs/API.md in the same change; if not, an
internal refactor leaked.

This module must also pass against an installed package (``pip install
-e .`` with no ``PYTHONPATH=src``) — CI's installed-package job runs
exactly that, so a packaging/layout break fails here rather than only
surfacing for source-tree users.
"""

import repro
import repro.api
import repro.registry

#: the pinned top-level surface (sorted)
REPRO_EXPORTS = [
    "Campaign",
    "DESIGNS",
    "ExperimentConfig",
    "FaultScenario",
    "Session",
    "TABLE1",
    "__version__",
    "register",
]

#: the pinned facade surface (sorted)
API_EXPORTS = [
    "Campaign",
    "CampaignAborted",
    "CampaignFinished",
    "CampaignStarted",
    "ExploreFinished",
    "ExploreStarted",
    "RunEvent",
    "ScheduleProbed",
    "Session",
    "UnitCompleted",
    "UnitFailed",
    "UnitRetrying",
    "UnitSkipped",
    "UnitStarted",
    "check_campaign",
    "run_averaged",
    "run_single",
]

#: the pinned registry-framework surface (sorted)
REGISTRY_EXPORTS = [
    "Registry",
    "register",
    "registry",
    "registry_kinds",
]


def test_repro_all_is_pinned():
    assert sorted(repro.__all__) == REPRO_EXPORTS


def test_repro_api_all_is_pinned():
    assert sorted(repro.api.__all__) == API_EXPORTS


def test_repro_registry_all_is_pinned():
    assert sorted(repro.registry.__all__) == REGISTRY_EXPORTS


def test_every_pinned_name_resolves():
    for name in REPRO_EXPORTS:
        assert getattr(repro, name) is not None
    for name in API_EXPORTS:
        assert getattr(repro.api, name) is not None
    for name in REGISTRY_EXPORTS:
        assert getattr(repro.registry, name) is not None


def test_dir_matches_all():
    assert sorted(set(dir(repro))) == sorted(set(repro.__all__))


def test_register_alias_is_the_function_not_a_module():
    """Lazy top-level aliases must not be shadowed by submodules:
    `repro.register` is the decorator function, and the registry()
    accessor is deliberately not aliased (the repro.registry submodule
    would shadow it — import it explicitly)."""
    assert callable(repro.register)
    assert repro.register is repro.registry.register
    # the submodule wins for the 'registry' name once imported
    import types

    assert isinstance(repro.registry, types.ModuleType)


def test_lazy_loading_does_not_leak_private_names():
    import pytest

    with pytest.raises(AttributeError):
        repro.no_such_name


def test_version_is_a_pep440_string():
    parts = repro.__version__.split(".")
    assert len(parts) >= 2
    assert all(p.isdigit() for p in parts[:2])


def test_cli_entry_point_importable():
    from repro.cli import main

    assert callable(main)
