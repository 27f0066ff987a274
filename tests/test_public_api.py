"""API integrity: every name in each package's ``__all__`` must resolve,
and the top-level convenience exports must exist.

Guards against refactors silently breaking the documented public surface
(docs/api.md).
"""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.ir",
    "repro.irpasses",
    "repro.frontend",
    "repro.backend",
    "repro.machine",
    "repro.fi",
    "repro.campaign",
    "repro.snapshot",
    "repro.stats",
    "repro.reporting",
    "repro.workloads",
    "repro.utils",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_exports_resolve(package):
    module = importlib.import_module(package)
    assert hasattr(module, "__all__"), f"{package} lacks __all__"
    for name in module.__all__:
        assert hasattr(module, name), f"{package}.{name} missing"


@pytest.mark.parametrize("package", PACKAGES)
def test_package_has_docstring(package):
    module = importlib.import_module(package)
    assert module.__doc__ and module.__doc__.strip()


def test_top_level_convenience_exports():
    import repro

    for name in ("RefineTool", "LLFITool", "PinfiTool", "run_campaign",
                 "run_matrix", "compile_minic", "execute", "load_binary",
                 "FIConfig", "Outcome", "classify"):
        assert hasattr(repro, name)


def test_version_string():
    import repro

    parts = repro.__version__.split(".")
    assert len(parts) == 3
    assert all(p.isdigit() for p in parts)


def test_cli_entry_points_importable():
    from repro.cli import campaign_main, compile_main, opt_main, report_main

    for fn in (campaign_main, compile_main, opt_main, report_main):
        assert callable(fn)


def test_public_modules_have_docstrings_on_public_functions():
    """Spot-check: documented-API functions carry docstrings."""
    from repro import campaign, fi, stats

    for obj in (
        campaign.run_campaign,
        campaign.run_matrix,
        campaign.run_part,
        campaign.save_matrix,
        fi.refine_instrument,
        fi.llfi_instrument,
        fi.analyze_site,
        stats.leveugle_sample_size,
        stats.chi2_contingency,
        stats.compare_tools,
    ):
        assert obj.__doc__ and obj.__doc__.strip(), obj
