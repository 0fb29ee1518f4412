"""Golden renderings of every registered scenario at one epoch.

Each entry is the sha256 of what ``repro run <scenario> --epochs 1``
prints: the rendered result plus the newline ``print`` adds. They were
captured through the CLI before the side-task steps became event
callbacks, the change these pin (see PERFORMANCE.md, "Step path").
An exact change to the simulation leaves every one of them alone; a
deliberate change to what a scenario computes or prints re-captures
them and says why.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.api import registry

#: scenario -> sha256 of its ``--epochs 1`` CLI output
SCENARIO_GOLDEN = {
    # ablations, fig1 and fig2 re-captured when a bare pipeline run
    # (kind="pipeline") began training on the jitter stream of its own
    # no-side-task baseline.
    "ablations":
        "0034ec93a7e77784e890f1d18f28bfa138216bd73aa4d9717425b5271843e642",
    # Re-captured when each cluster job began training on the jitter
    # stream of its own no-side-task baseline (its I had divided by a
    # baseline with other draws).
    "cluster":
        "bb8cb864d96127c2507d826256868b9a6390e2153debbcb0b5c09f13a20d79e3",
    "fairness":
        "26fcb5debee0d04c55f4b6ae07fb2a684ccad39b332f56bd2bcfe38679df00e2",
    "fig1":
        "e3cade55eb16e89961b59c8612e08dfba636ab9bc457f79590203b6a1956b96a",
    "fig2":
        "ef551d6a0e51a3a9605a3660014c7a778352c99fc2df8a72f117db709f8b5533",
    "fig7":
        "9947ead0f75ffcc5c46a339aecd859142ff5811d5c4e3ff286f849e5586deccf",
    "fig8":
        "1747a26bed72be02bc18b222b48e248f8c8922f6e8f856779cfca96c46d9f4a7",
    "fig9":
        "322349712c64fa718339eced28d386ffe4fc8c0bae90576d6cd0fac0ac968d7e",
    "resilience":
        "44a6f31f2f583e60fed1665f2d1daa68fc10b47bc1b3cf165f27f1d5e48e46f5",
    "serve":
        "63d3a7001978141c8c9abe80445d96fe44044289a208766ade95ff2ab110ff29",
    "table1":
        "45e7fc9b6082e6007247236337dfba1bf9b00383c04094c13633859fc803487c",
    "table2":
        "fa2e673162a9e4b8bbc0492eb172b4ab0228187c2dce4b5771d8296abfb250ef",
}


def test_every_scenario_is_pinned():
    runnable = {entry["name"] for entry in registry.describe()}
    # fuzzcase replays a spec it is given; it has no output of its own
    assert runnable - {"fuzzcase"} == set(SCENARIO_GOLDEN)


@pytest.mark.parametrize("name", sorted(SCENARIO_GOLDEN))
def test_scenario_output_matches_golden(name):
    result = registry.run(name, overrides={"training.epochs": 1})
    printed = result.render() + "\n"
    assert hashlib.sha256(printed.encode()).hexdigest() == \
        SCENARIO_GOLDEN[name]
