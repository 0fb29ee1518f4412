"""Golden digests of the pipeline engine run on its own.

The scenario and fuzz goldens reach the pipeline only through whole
runs. These pin :class:`~repro.pipeline.engine.PipelineEngine` directly,
over a grid of schedule, micro-batches, stages, op jitter and listener:
per case, the sha256 of the reprs of the trace's ops, bubbles and
epochs plus the listener's reports, the events the engine processed and
the ``repr`` of the final clock. They were captured before the stage
epoch ran from a cached op plan as callbacks. That change must create
the same entries with the same ``(time, seq)`` keys in the same order,
so any change to what a stage does, or when, moves a digest or a count.

The recording cases charge the instrumentation's hook cost and report
against an offline profile of the same configuration, so they cover the
profile filter and the hook timer as well as the bare dependency waits.
"""

from __future__ import annotations

import hashlib
import itertools

import pytest

from repro.calibration import INSTRUMENTATION_OVERHEAD_S
from repro.gpu.cluster import make_server_i
from repro.pipeline.config import TrainConfig, model_config
from repro.pipeline.engine import PipelineEngine, profile_bubbles
from repro.pipeline.instrumentation import NullListener, RecordingListener
from repro.sim.engine import Engine

GRID = list(itertools.product(
    ("1f1b", "gpipe"), (4, 8), (3, 4), (0.0, 0.01), ("null", "recording")))


def _case_id(case) -> str:
    schedule, micro_batches, stages, jitter, listener = case
    return f"{schedule}-m{micro_batches}-s{stages}-j{jitter}-{listener}"


def _run(schedule, micro_batches, stages, jitter, listener) -> tuple:
    """``(sha256, events, repr(clock))`` of one two-epoch training run."""
    config = TrainConfig(model=model_config("3.6B"), num_stages=stages,
                         micro_batches=micro_batches, epochs=2, seed=7,
                         op_jitter=jitter, schedule=schedule)
    if listener == "null":
        recorder, profile = NullListener(), None
    else:
        recorder = RecordingListener(hook_cost_s=INSTRUMENTATION_OVERHEAD_S)
        profile = profile_bubbles(make_server_i, config)
    sim = Engine()
    engine = PipelineEngine(sim, make_server_i(sim), config,
                            listener=recorder, profile=profile)
    trace = engine.run().trace
    outputs = [repr(trace.ops), repr(trace.bubbles), repr(trace.epochs)]
    if listener == "recording":
        outputs += [repr(recorder.starts), repr(recorder.ends),
                    repr(recorder.epoch_starts), repr(recorder.epoch_ends)]
    digest = hashlib.sha256("\n".join(outputs).encode()).hexdigest()
    return digest, sim.events_processed, repr(sim.now)


#: case -> (sha256 of the trace and reports, events processed, repr of
#: the final clock), captured before the stage driver landed
PIPELINE_GOLDEN = {
    "1f1b-m4-s3-j0.0-null": (
        "bc944e91ce9317b7a6c46dfd3025ab76cd9c5b504e32da6632cc55bcd7068b69",
        207, "8.2728"),
    "1f1b-m4-s3-j0.0-recording": (
        "1ff51ed9424f7b28038612b8cc67db9cb5d6e4fa6e5a81ac1cf1d6e60c6690f8",
        214, "8.332799999999999"),
    "1f1b-m4-s3-j0.01-null": (
        "3bed720d88f59f298e53a11015d6f87f60d4e7b68ef5bfeab88740b73b5bb5fe",
        202, "8.292422597999051"),
    "1f1b-m4-s3-j0.01-recording": (
        "5c4f1e5f19636020c399c451f28a079ece263c67741255c190ab6cc75aacf6c5",
        214, "8.338475389029792"),
    "1f1b-m4-s4-j0.0-null": (
        "40b11ff16cf89587bb0402c4e8dacb7fe71757e85b7b1b660fcc76950b1c7d1a",
        276, "9.592799999999999"),
    "1f1b-m4-s4-j0.0-recording": (
        "4926582e0ea6419308d647b4eec1bad3255e3634505c1dcf42825155d297f7c4",
        290, "9.672799999999999"),
    "1f1b-m4-s4-j0.01-null": (
        "ef4ea0e569ecb50bc2a7e97ac9e5df322d0abe50ce755d33019c48eaaa418381",
        272, "9.611176630940198"),
    "1f1b-m4-s4-j0.01-recording": (
        "f612ad337c2c13507379f3ca733544ed2f25c6f9d976d3e65508636f30598c9e",
        291, "9.680489864836265"),
    "1f1b-m8-s3-j0.0-null": (
        "a04a8cf0f7b08299d0a3abab9b3665e11fdc1ddb865b3511bd59cb28c10846cc",
        389, "13.552800000000001"),
    "1f1b-m8-s3-j0.0-recording": (
        "4733747ebde1da2effbe08e16a18d4254025f298e9abf9f0864e85425f4d9345",
        396, "13.612800000000004"),
    "1f1b-m8-s3-j0.01-null": (
        "5191c540fdbe91aee54fe0fb358a3742a26b09bf2ecb83489e810181803b7a04",
        369, "13.605050679018136"),
    "1f1b-m8-s3-j0.01-recording": (
        "54e5def072f4d9bfc1db864dcfa7a6c0b342194157c1c1f5057f8dafc9186327",
        382, "13.658439980201909"),
    "1f1b-m8-s4-j0.0-null": (
        "87f80e93997868749fc9754f4f329147bc29e17e78247fe5a2b0342909f6cd2a",
        522, "14.872800000000002"),
    "1f1b-m8-s4-j0.0-recording": (
        "3d4a7185f689d7e460da7cb81f50ca49db142a058a0f88dd8da7f3ce835eb297",
        530, "14.962800000000005"),
    "1f1b-m8-s4-j0.01-null": (
        "725bcc6c1d848b782df5c7ee9c6f26d53a055c4f12788cc1e5e943bdfb2ecf63",
        494, "14.926878659140783"),
    "1f1b-m8-s4-j0.01-recording": (
        "27dedb2a0550114d77a40b9c94ade31eaa63a9ff3c7a575f8b8655c2b9141e64",
        514, "15.003307685686927"),
    "gpipe-m4-s3-j0.0-null": (
        "938765b5c6386ea3760596f2f2cadfb2f3bdd602b27eb3ec5d8721b0438f1081",
        204, "8.2728"),
    "gpipe-m4-s3-j0.0-recording": (
        "9a1ba25cc4aab3540bdd9e0583d1ca8718faaebdd71561e3447b8c903b866635",
        188, "8.3128"),
    "gpipe-m4-s3-j0.01-null": (
        "3e3a75ed87a2d52d4ddc73273cda34fc8d76e2c7be9d07857bd77dae627ef513",
        197, "8.342084415884427"),
    "gpipe-m4-s3-j0.01-recording": (
        "c87111e18faccb071db788f819c481355801ec255d6c9da5c6b51abb390327ee",
        197, "8.348723949751916"),
    "gpipe-m4-s4-j0.0-null": (
        "0b75daefc23bfd958f620317351e273ae394035115dd86386bec225d9fd84e66",
        276, "9.592799999999997"),
    "gpipe-m4-s4-j0.0-recording": (
        "ca350153e40a473afc8588c809fd33bff5e6036f54427b997a98420833d7a607",
        252, "9.652799999999997"),
    "gpipe-m4-s4-j0.01-null": (
        "7caa907acdd3fb79248287819f0a4819a2f39cdd33f9ed8d8f1ce5bc208eb65c",
        264, "9.673981578040344"),
    "gpipe-m4-s4-j0.01-recording": (
        "e60c20b8b3a3e19cfdbce71e2c88a20ca2530f96ffe85c9baa78d228e5d12250",
        264, "9.689174350099986"),
    "gpipe-m8-s3-j0.0-null": (
        "e706cd8e8fd8023af86f336aedd777f0e85259450086959eefd818a383a89a95",
        380, "13.552799999999998"),
    "gpipe-m8-s3-j0.0-recording": (
        "6f1b8e49b8b55b00169d3d3d2e4e8c59e77c2477feb1c98978a055337f95ff12",
        332, "13.592799999999999"),
    "gpipe-m8-s3-j0.01-null": (
        "d44c9b7418cc123c1fb9566ca720cd1a566729c56b9128ea9ec23622887fa641",
        351, "13.612348050441497"),
    "gpipe-m8-s3-j0.01-recording": (
        "bab6713e6467d682aec7a990911c80b80d397cfce187fd583eb870bedc5cf7ae",
        347, "13.621608437338192"),
    "gpipe-m8-s4-j0.0-null": (
        "bc3aa71a99f40a7257f0dfc3e12722c3b699d8c5094939ca07a56d51a1839182",
        516, "14.872800000000002"),
    "gpipe-m8-s4-j0.0-recording": (
        "3c357cbd48dca97be2863260bbc9f322fc88c8bc8b8d50b265260339801c5cec",
        444, "14.932800000000004"),
    "gpipe-m8-s4-j0.01-null": (
        "c875e6b1a353ae3bdd46f80b5ab59da76a8beaf4d8e38fd85e850f33ab0b1146",
        470, "14.936070622076592"),
    "gpipe-m8-s4-j0.01-recording": (
        "a7f0e13c9d05964260a0a876cdaaa00563a94a17582929cb8dacc13bc87a1e20",
        461, "14.956597308033794"),
}


@pytest.mark.parametrize("case", GRID, ids=_case_id)
def test_pipeline_engine_matches_golden(case):
    assert _run(*case) == PIPELINE_GOLDEN[_case_id(case)]
