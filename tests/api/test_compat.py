"""The PR-3 deprecation shims are gone; the programmatic facades stay.

The legacy per-experiment ``run()`` bodies, the positional CLI form,
the ``freeride`` script alias and the ``repro.extensions`` re-export
shim were scheduled for deletion — these tests pin that they are
actually gone, and that the supported programmatic surface
(``FreeRide`` driven by hand) still works.
"""

from __future__ import annotations

import pytest

from repro.experiments import ablations, fig1, fig7, fig8, serve


@pytest.mark.parametrize("module", [fig1, fig8, serve, fig7, ablations])
def test_legacy_run_entry_points_are_gone(module):
    assert not hasattr(module, "run")


def test_compat_module_is_gone():
    with pytest.raises(ImportError):
        import repro.api.compat  # noqa: F401


def test_freeride_script_alias_is_gone():
    import pathlib

    setup = pathlib.Path(__file__).parents[2] / "setup.py"
    text = setup.read_text()
    assert "freeride = repro.cli:main" not in text
    assert "repro = repro.cli:main" in text


def test_freeride_facade_still_works():
    """FreeRide(...) driven by hand remains the programmatic surface."""
    from repro.core.middleware import FreeRide
    from repro.experiments.common import train_config
    from repro.workloads.registry import workload_factory

    freeride = FreeRide(train_config(epochs=1))
    assert freeride.submit(workload_factory("pagerank")) is not None
    result = freeride.run()
    assert result.tasks[0].steps_done > 0


def test_multi_server_shim_is_gone():
    with pytest.raises(ImportError):
        import repro.extensions.multi_server  # noqa: F401
