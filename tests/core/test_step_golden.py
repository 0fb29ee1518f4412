"""Golden digests of the side-task step path.

Same pattern as ``tests/serving/test_dispatch_golden.py``: each entry is
the sha256 of one run's outputs (:func:`~repro.fuzz.digest.digest_result`
plus any trace the run records), together with the number of events the
engine processed and the number of side-task steps the run took. They
were captured before the step loop's fast paths landed (the engine's
open-coded drain loops, the process resume path, the GPU single-kernel
launch and the identity-hashed state machine). Those fast paths must
create the same events with the same ``(time, seq)`` keys in the same
order, so any change to what a step does, or when, moves a digest or a
count.

The five runs cover the step loop's paths: the perfbench ``cluster``
shape (two jobs, PageRank's short steps plus ResNet18); an imperative
task whose in-flight kernels overlap training (the rate model's
multi-kernel recompute); a faulted run with a crash, checkpoint
recovery, failed steps and a straggler window; a traced run (the
transition observer); and a run that records the SM-occupancy trace.

``FUZZ_GOLDEN`` pins the fuzzer's first sixty draws the same way: per
draw, the sha256 of its ``digest_result``, the events its engine
processed and the ``repr`` of its final clock. The draws span every
scenario kind, traffic, tenancy and fault mix the fuzzer generates, so
an engine or timer change that moves any event's key shows up here.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.api.session import Session
from repro.api.spec import (
    ArrivalSpec,
    ClusterSpec,
    FaultSpec,
    ObsSpec,
    ScenarioSpec,
    TrainingSpec,
    WorkloadSpec,
)
from repro.faults.plan import SlowdownWindow, WorkerCrash
from repro.fuzz.digest import digest_result
from repro.fuzz.generator import draw_spec


def _sha(payload: object) -> str:
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _pool(runner):
    return runner.cluster if runner.kind == "cluster" else runner.freeride


def _run(spec: ScenarioSpec, extra=None) -> tuple:
    """``(sha256, events, steps)`` of one run; ``extra(pool, result)``
    adds run-specific outputs to the digest."""
    with Session(spec) as session:
        result = session.run().results()
        pool = _pool(session.runner)
        outputs = {"result": digest_result(spec, result)}
        if extra is not None:
            outputs["extra"] = extra(pool, result)
        events = pool.sim.telemetry.counter("sim.events_processed").value
        steps = sum(runtime.spec.workload.steps_done
                    for worker in pool.workers
                    for runtime in worker.all_tasks)
    return _sha(outputs), events, steps


def _cluster_mix() -> tuple:
    # The perfbench ``cluster`` shape at one epoch.
    return _run(ScenarioSpec(
        name="golden-cluster",
        kind="cluster",
        seed=1,
        training=TrainingSpec(epochs=1),
        jobs=2,
        workloads=(WorkloadSpec(name="pagerank"),
                   WorkloadSpec(name="resnet18")),
    ))


def _imperative_colocated() -> tuple:
    # SIGTSTP cannot recall kernels already on the device, so the
    # imperative task's kernels run on into training ops: the device
    # settles two or more runs at once.
    return _run(ScenarioSpec(
        name="golden-imperative",
        kind="batch",
        seed=2,
        training=TrainingSpec(epochs=2),
        workloads=(WorkloadSpec(name="resnet18", interface="imperative"),),
    ))


def _faulted_checkpoint() -> tuple:
    faults = FaultSpec(
        crashes=(WorkerCrash(stage=1, at_s=3.0, restart_after_s=1.0),),
        step_failure_rate=0.1,
        slowdowns=(SlowdownWindow(stage=2, start_s=1.0, end_s=6.0,
                                  factor=1.5),),
        recovery="checkpoint",
    )

    def recovery(pool, _result):
        return [[runtime.step_failures, runtime.checkpoints,
                 runtime.preemptions, runtime.restores,
                 runtime.wasted_steps, repr(runtime.slowdown_s)]
                for worker in pool.workers for runtime in worker.all_tasks]

    return _run(ScenarioSpec(
        name="golden-faults",
        kind="serving",
        seed=3,
        training=TrainingSpec(epochs=2),
        arrivals=ArrivalSpec(kind="poisson", rate_per_s=4.0),
        faults=faults,
    ), recovery)


def _traced() -> tuple:
    def spans(_pool, result):
        return result.trace.to_jsonl()

    return _run(ScenarioSpec(
        name="golden-traced",
        kind="batch",
        seed=4,
        training=TrainingSpec(epochs=1),
        workloads=(WorkloadSpec(name="resnet18"),),
        obs=ObsSpec(trace=True),
    ), spans)


def _occupancy() -> tuple:
    def traces(pool, _result):
        return [[gpu.name, repr(gpu.busy_time),
                 [[repr(value) for value in point]
                  for point in gpu.occupancy_trace]]
                for gpu in pool.servers[0].gpus]

    return _run(ScenarioSpec(
        name="golden-occupancy",
        kind="batch",
        seed=5,
        training=TrainingSpec(epochs=1),
        cluster=ClusterSpec(record_occupancy=True),
        workloads=(WorkloadSpec(name="pagerank"),),
    ), traces)


#: (run, sha256 of its outputs, events processed, side-task steps),
#: captured before the step loop's fast paths landed
STEP_GOLDEN = {
    # Re-captured when each cluster job began training on its own
    # baseline's jitter stream and the pool joined its jobs' training
    # one at a time.
    "cluster_mix": (
        _cluster_mix,
        "73e6ce6bfe5410f9c2e1da8434bbe539d7e231a57a0ba7028723d9a7f7dc571d",
        16531, 3953),
    "imperative_colocated": (
        _imperative_colocated,
        "34cc63c2dd510839c0c241f56c149f50b474295d09b4654fc956fb6615c0d8b3",
        2307, 513),
    "faulted_checkpoint": (
        _faulted_checkpoint,
        "9e25ee7b2c8b0b3cba411258b62a3dc70f286759ca0a29161f0447972b18a28e",
        3675, 624),
    "traced": (
        _traced,
        "1a05ab1815fbb710389d729dc4d200e172b13752e4d077fd0ce1fe2545c38d12",
        1218, 216),
    "occupancy": (
        _occupancy,
        "2b32203c5ee00d7709986507cf76101a3e4d70c2b6d3039caaadc24244ac6cc2",
        8232, 1970),
}


@pytest.mark.parametrize("name", sorted(STEP_GOLDEN))
def test_step_path_matches_golden(name):
    run, digest, events, steps = STEP_GOLDEN[name]
    assert run() == (digest, events, steps)


def _sim(runner):
    """The engine a runner drove; a pipeline runner has no pool."""
    return runner.sim if runner.kind == "pipeline" else _pool(runner).sim


def _fuzz_draw(seed: int) -> tuple:
    """``(sha256, events, repr(clock))`` of ``draw_spec(seed)``'s run."""
    return _fuzz_run(draw_spec(seed))


def _fuzz_run(spec: ScenarioSpec) -> tuple:
    with Session(spec) as session:
        result = session.run().results()
        sim = _sim(session.runner)
        return (_sha(digest_result(spec, result)), sim.events_processed,
                repr(sim.now))


#: draw seed -> (sha256 of digest_result, events processed, repr of the
#: final clock), captured before timers became bare heap entries. The
#: cluster draws were re-captured when each job began training on its
#: own baseline's jitter stream and the pool joined its jobs' training
#: one at a time: each lost the event that joined them all at once, and
#: those with op jitter train on new draws.
FUZZ_GOLDEN = {
    0: ("60e9222da19902831709fcbd2b9deddb7d85b1f1e2041f4531d3de9da0085983",
        4358, "8.154637103857693"),  # batch
    1: ("e3647f1a948efe8c60ce7fe9545fe79be388875f9586730e385741abaeb34622",
        384, "8.845548410165446"),  # serving
    2: ("1ed04c0b646786f7369517cfe3cc5b16239dc98046a129452c392e262331f9eb",
        307, "10.267999999999999"),  # serving
    3: ("280b7beb7f4c3213afe3ca0b968ff9b66b5b06f20fb0332357636b24a690d8ce",
        446, "10.67524228557013"),  # serving
    4: ("3e242e071047b747fdfd8ab6f8407d5cb548fb70fbb598241b4f793a375dbe4c",
        680, "6.843311916039191"),  # cluster
    5: ("423061f10aafa24c92baccb2d9f5a6e280dcd1138c9210e300ca0832080b8fdf",
        791, "10.3677162076444"),  # serving
    6: ("f02aa1a49cde2fff323e68dabfe8bbdc3c3c409919641744878495f47d69f2e9",
        429, "10.713318039286834"),  # batch
    7: ("189fe7754478e9e8e2a496f521082caacb0dc12658b80d608c82d0d277f864ed",
        1826, "16.2476"),  # cluster
    8: ("9a489b6673895d4ba4e304395c3ac0ced2e3ce09e2d909eac1000f29cb1fe2b7",
        564, "10.711706216096884"),  # serving
    9: ("cf2807c5230c5a30fe996dd3f0347e78b72455b4ee9b027104b75edf15d7aaa4",
        937, "8.179298293800546"),  # cluster
    10: ("df64ee20dfb758c4b5006bf5bf5978e317292b403a34f008c063c86672b14a20",
        475, "7.317999999999999"),  # serving
    11: ("1cf623e43cf9a4282cd37f90bd390392adcc63a89f67973cd78a1198fc835ab8",
        817, "10.76493277990322"),  # serving
    12: ("8242deb2cd0d3b7b110571aa0a62af8bfc40c675519c5664ef331c71cc62138a",
        578, "9.54901222926403"),  # serving
    13: ("076b6b3b2a3b7e08c48c1fbcc71ed2b2de647f33697d7cd232cc7534d9076a7b",
        407, "9.4814"),  # serving
    # Re-captured when arrival generation lost its numpy path: this
    # draw had set arrivals.vectorized, and now runs the scalar stream.
    # The digest is the one the scalar stream gave before; its events
    # and final clock did not move.
    14: ("0990af33081f61d5d19dd676bfba4e6f1ba0d5ac791797ed8e0b5fda34aced3e",
        854, "10.317385093367804"),  # cluster
    # Re-captured when the fault injector began reaching the tasks a
    # cluster places before arming it: this batch-style draw's 2% step
    # failures had never acted.
    15: ("013a4efd2790c0b2f6680ca5df2735e081a44c317ad92f68f1ad07893f0a888c",
        935, "7.321311819618389"),  # cluster
    # Re-captured when baseline_time began keying on the whole training
    # config: this serving-mode cluster draw trains a gpipe schedule, so
    # its horizon (the no-side-task training time) moved.
    16: ("706e244c2fee09b31c3aac46e6c114f6a987e35f2a3831087957ede1efa72c52",
        486, "7.307999999999999"),  # cluster
    17: ("cad072aa2fbe4563afef81c3f799dc4caea3dce6089b5028845b724d242d3b78",
        1304, "7.317999999999999"),  # serving
    18: ("92b861b7909c0779c737b6de2036b9d06ef210a4c8146473753432c7546a2bd8",
        478, "7.376262496012665"),  # cluster
    19: ("1948ba2902c9b387a19aad8b5ad84f8539523066ed7e393b7c9c654868b1b0b7",
        1855, "7.34529946993445"),  # serving
    20: ("a418f55553f0a80ed6a9f21d6dca999eb26f7e04f0cec70ba5f2fba4094559d1",
        1233, "10.302115826171168"),  # serving
    21: ("ecc173f1cb8014c549318bf1c93d326b88ee1b56ceac9a07748e9be777b045ef",
        326, "6.876703197350443"),  # serving
    22: ("94c11292f9c9018ee3b69f7f8e1adb6e76133baf81c6eac7bc9430c7f879ee55",
        2897, "9.209332165007279"),  # serving
    23: ("b45209864dabc102f05895a255f7c7a0cd79aa43c24bd60cdca2544a192eff3a",
        1392, "10.293576931111804"),  # serving
    24: ("623ab1c9c1d289b9a7ba3fae23dbd9faa9323be346872b81a8fca8063e6d0417",
        2301, "12.641888642685066"),  # batch
    25: ("5458723362af87651ea900d161d176aec3888e98753c62db78015c9fb9f3bb4f",
        612, "11.672799999999999"),  # serving
    26: ("264d41f3ef7d48df8399222a84ae56cd0a05a4b728aa801e89b7403e7ff1d72a",
        2023, "12.650368267286717"),  # batch
    27: ("0a4e50ed0c887550748d70599792cc32d659e9880047ca97642bdb58081b9552",
        361, "6.822214435514718"),  # serving
    28: ("436cf8653b80a82eca704ac6a31532e4217c01dea0dc996d9621da8dd877beb2",
        3076, "7.317999999999999"),  # serving
    29: ("1939f5d5d2c6a57a28ac45293687f270cfa9127314f9f8baa146e65bc33b93c8",
        1178, "13.1176"),  # cluster
    30: ("b64bc746f459e6db93f3d882c9ad1019a722f04b441788e50d238b660c07b4f5",
        536, "13.308437019583275"),  # serving
    31: ("20638ebdeaf015280d420857ab2fb4eca1de8ad406f777dc950cd510251ed3f8",
        1268, "7.37389633290971"),  # cluster
    32: ("a20f9f09ba504f6b4eae4555e5504a9f85cee21528d5015675d412fc26e5e580",
        444, "7.550073654936241"),  # serving
    33: ("cbd30941e2a26a5fc9d56f2e5b194c47ca66f0022a2b327e5988a868c13631ff",
        846, "12.604686129926305"),  # batch
    34: ("0aa626842f0f77d70be4cb48d5a6be2a46c39ccddced79b563d674e80f591c9d",
        265, "6.8364"),  # serving
    # re-captured when a bare pipeline run began training on its
    # baseline's jitter stream
    35: ("68152b665468fad8e7d473d4e9caf7ddef69d8ff2bf27cac666a9760f05dcba6",
        493, "14.916485560599137"),  # pipeline
    36: ("17f5cbdc11461eb02314c31106044b10dcf135bd9ce7e4fb90eee19f66ebaf82",
        1053, "11.04997223894174"),  # cluster
    37: ("47f5f9428f08cd30470066f1218210f943dd73dcf3da9f9efb3e82bd6972a6e6",
        882, "7.557179346109158"),  # batch
    38: ("f49aeb97574384e11c3ddb25bd1df956717e1effd209dfed884dadbf11b0e655",
        3323, "12.765745710513626"),  # serving
    39: ("5605577a82abc297b9b0c33e1e3be12631a0ede2d8b23ea94807d1aeafee3cb7",
        1234, "7.315318308679583"),  # cluster
    40: ("9f9f00a0543edc35b5768cfe678e8379012550f5d001451e1b434c6e192c1064",
        1676, "6.8364"),  # serving
    41: ("a0835e7b9f2672d6f02d614e29a34862b366d4237da035c7958837f39ca62f70",
        2712, "8.825590519590058"),  # batch
    42: ("19460a579e3389f02ce042cd65abda7eae51e503cb42ca43e5ee714c02ab3d25",
        316, "7.5588"),  # serving
    43: ("b3c4828bac91cfca8355f66f4639df79d04912eb0a4b93c1e0e39fd7709423d7",
        954, "6.8364"),  # serving
    44: ("21a9a2dbbf320541a6692f74a0b412eca988c6e897dc82e0297273564fc66a0e",
        468, "9.220063682218429"),  # batch
    45: ("48892b70f4eab9b57fa372af05624e7a35be91ffe4f569e728c195d48ee2388d",
        903, "11.680974814226389"),  # batch
    46: ("5ed6bb2336e5de3a9f77884cc6cd708d3ec301193d89c82f60d5e879b6eeb872",
        2617, "16.285181252056123"),  # serving
    47: ("c1c20028dd64c096f8d08eb6f98b7a71f6e88b2313af6373e8160cf3c25865c4",
        464, "10.713719864993458"),  # serving
    48: ("3260d9ed0965d468dba4196eada4dc0713bd8090b88616fad92b9d7ef29606d5",
        517, "10.768817000509218"),  # serving
    49: ("84f35cb972a2d5f8bccbb917fda6b6d3c3c5a0a398adbab39c65dbd1bb60861f",
        1822, "8.173132941936771"),  # serving
    50: ("276ce7a15d448d60b4b2ff7ee008b005fa03d0ac9649689a3a9987a211e5ad8b",
        797, "15.693440385838223"),  # serving
    51: ("844c9f21c65306e137894939ab37af6a24863ad61f9ebb65cef50d9d25b40dc2",
        1290, "6.854865375811484"),  # serving
    52: ("46846caef993039a42dbe7901d6bad1da10b11ffde1e72d5c4c5252049672bbb",
        1428, "7.5488"),  # serving
    53: ("577d5db5b30b0a0fa2266cb59a13bb04d1e023ec260debf5aa55a0c22ae8e4fb",
        2461, "6.82101960069706"),  # serving
    54: ("4d9a4cbfa8c48293b868d16cd7de6b3646fe5983e6e30fa2706c1a506701f1e7",
        291, "6.832046091294377"),  # serving
    55: ("514aa4b107322e63c028927181ff14a8ca599d4e445e68b80e739f1cb4a83213",
        139, "5.278"),  # pipeline
    56: ("df7ea6af8ee9b60ca8776e9a9f2c639c3649d27713d4e1901a348d48d9d82436",
        753, "7.317999999999999"),  # cluster
    57: ("d655199a1ccd8eadba853d4905f74c54aea0f4b5b1a913efe4eff919a67f0f3b",
        2193, "10.693818718885355"),  # batch
    58: ("fe37af898db0beba74db1962b32b2048bc6ec71ac580be79cc8707d1014ed804",
        1413, "16.268629288992738"),  # serving
    59: ("fe1a9e9bee49c6bd9f7f7043e73e13a649136065daa5e1dee97e1af6c158264d",
        2253, "10.27329410613876"),  # serving
}


@pytest.mark.parametrize("seed", sorted(FUZZ_GOLDEN))
def test_fuzz_draw_matches_golden(seed):
    assert _fuzz_draw(seed) == FUZZ_GOLDEN[seed]
