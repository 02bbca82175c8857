"""Byte-identity pins for the trace-driven timing model.

One golden digest per bundled workload × simulation mode of everything
a :class:`~repro.timing.core.TimingSimulator` run reports:
:meth:`SimStats.to_dict` plus the ``memory.*`` counters and the MSHR
occupancy histogram the run publishes to the metrics registry.

The engine-equivalence suite compares engines that share one memory
hierarchy, one branch predictor and one p-thread launch path, so it
cannot see a change inside that shared code.  These digests can: a
change to the caches, busses, MSHRs, predictor or p-thread body
execution that alters any run by one count changes a digest here.

Each workload's p-threads come from the selection pinned by
:mod:`tests.selection.test_selection_golden`, computed once per module.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.obs import set_registry
from repro.obs.metrics import MetricsRegistry
from repro.timing.config import (
    BASELINE,
    LATENCY_ONLY,
    OVERHEAD_EXECUTE,
    OVERHEAD_SEQUENCE,
    PERFECT_L2,
    PRE_EXECUTION,
)
from repro.timing.core import TimingSimulator
from repro.workloads.suite import build
from tests.selection.test_selection_golden import WORKLOADS, workload_selection

MODES = (
    BASELINE,
    PRE_EXECUTION,
    OVERHEAD_EXECUTE,
    OVERHEAD_SEQUENCE,
    LATENCY_ONLY,
    PERFECT_L2,
)

#: sha256 of :func:`run_record`, per "workload/mode" (train input).
GOLDEN = {
    "bzip2/baseline": "4053700ae4843b147a62d5a6de04282a439a695ed44982582f0b5479ba81b440",
    "bzip2/pre-exec": "6fc1a5b310fac4510fc252eae4e754781db6ca75b08f5a84cfa04d60694ae40a",
    "bzip2/overhead-execute": "3507fd1b8c8414ab92ae7fff9e1c5b7156d9e05b00290c0ec9d6dd54b49d2ff7",
    "bzip2/overhead-sequence": "132f01169e351a9ba0d0e8a67ed8e6b1294638daf59db4c8ac203e25ea759310",
    "bzip2/latency-only": "0308963a24a6f41b4e26ca98436f9f3729ff9a7210463cfcef70086a019d2109",
    "bzip2/perfect-l2": "6751a78361e6b4c28ef966958e0f2aafaa3e35c3c65588eb696923f7ad4bccf5",
    "crafty/baseline": "956bd364d9ad68698b8bc810d0db19a712eeedfd077b2d9278f68e674166ba6d",
    "crafty/pre-exec": "fd09a551dcb4984e48a32dee05ddd1fff07c1414053f98f2a9260d944ee3cd39",
    "crafty/overhead-execute": "2973d38c4f754e89a890431a0c82d8c64131788413f7435e682af8b62793b00b",
    "crafty/overhead-sequence": "b0c1292a14bc73761dda295f50cf4d8bb344ab9e8ff215a46d45415ed7a0ff1c",
    "crafty/latency-only": "8124273caf991e3c9505b2af73998e515275c728fc58ab981edd6d9eaa93cd22",
    "crafty/perfect-l2": "dc130fd9aba610030a6f009458921dcf803711d91be58f3fa9c6ac35094495b8",
    "gap/baseline": "db2f319309d9380ab3f610fe8021a7c10ce2f09a84c622334d7d9196a3ac2aad",
    "gap/pre-exec": "2fd9c02567f468f17f34b35b4dd37723965f7a9cb7ac2cb4c4e2845c33131b24",
    "gap/overhead-execute": "74e277a595c630e0454125626c19854342a98da0556121d1a46887fffb36732f",
    "gap/overhead-sequence": "56113f2c0157a404c71ff964708618b4d0580fb978d452df458d1d5565f3bb11",
    "gap/latency-only": "79d22c0ffa629aa40f8103139687924df3dca0179443814e18e8eda876c6e700",
    "gap/perfect-l2": "630426beba404c74ccade8de10e23cb701a981a220e78ef6e2d164ff2969893e",
    "gcc/baseline": "caf382d1302cc610390142ca84b495d33fedfd44b42f59242ec3ac718c015f5c",
    "gcc/pre-exec": "033e1cfed1d48d3a8c6946cb5dde7982737a3d2677f691ef84814afa15a4abf7",
    "gcc/overhead-execute": "5cca039fbce3cb221e61357f3e165035b334250ef03e156324fc29f66949471e",
    "gcc/overhead-sequence": "8c991c70a89c32e8df838127cbec0bcd471439e4634b14ea7cfbde53188f02d1",
    "gcc/latency-only": "f61c70d07ed6560fca8182c82ed8494cfae655edeb3bdbf7fa70c887da114e05",
    "gcc/perfect-l2": "03f69e3fe448cc484303740642f0856d1d0b7768bbf40f792b1039e21e2cebd9",
    "mcf/baseline": "544a4b4cbb4e589bebdb3a4fe094e9cefb165c73e3f6ffd1a610770aa27595c5",
    "mcf/pre-exec": "615b7b02684d86c795bd38d1c8b60d69c48c5427b67e50d0d894762985dcfb25",
    "mcf/overhead-execute": "4199bd1d997745d2fba5b53a90604aafad0d36f12e30402bae4c19b89633f65b",
    "mcf/overhead-sequence": "88a001e6b4b099b8beb0ebdafa9ba3eb3f4b902bc6903c2dc339ae9c1a294273",
    "mcf/latency-only": "22bc0e934fefbd8b4b041856a5f773107de0b847e4ecadf4717333c7b8c99e86",
    "mcf/perfect-l2": "2e2559f233f885b71d4218292795e1da2f979faf907c47152271d93800c0a778",
    "parser/baseline": "3062d4db998bad1a282b0614b5231e3efd411380dc734d0c425283129cae7849",
    "parser/pre-exec": "bcc0ff14d61605f220c3d0496be7580bbf3b47e7c8d197f336e888e5a79ef64e",
    "parser/overhead-execute": "ce3e7b3832145bbcc9f285d64c4a50a2a62e716317581a5f73ffda3ae89eabf0",
    "parser/overhead-sequence": "44350788504c0553263519e8d41a381c094c086907b24c38e2f1cdaf71b5e58f",
    "parser/latency-only": "3f6d168f0a6ae60e08d87f34d92e8b1b148fc8fe00776e39a781485b72bfff96",
    "parser/perfect-l2": "386143db3561445b9a757db4bbf45e2014a2f2a7858ed969c843dc005e3d84ae",
    "twolf/baseline": "643fe64319e8b4f96864842eabae63e00c2a339b3ed746f1844195e388403858",
    "twolf/pre-exec": "1d203bcd0365dd518b04303cab815067be5a40a63ef6ec2c4eb2352558f50b35",
    "twolf/overhead-execute": "633808e8d3d410681188cb7a54c4800deb483ac3aa907128f9253a2cd6cb6a1a",
    "twolf/overhead-sequence": "aaa7d33229e2c3bc3a2365da741b011e1109ff93ea53e5f74a8bb651b921b8f9",
    "twolf/latency-only": "2afad57b6265f91562a9b12fcd95462ad0e81f04a7603095249891b1c0f4e74b",
    "twolf/perfect-l2": "862406d41f2764aefe953e24a9fbe16c5116c9f096b6b68e5c2c97bc1b8043b7",
    "vortex/baseline": "9b60d3ce4019f4ed73ceab38a0bfa4fe402a01de4e3faefc6be795175d54d469",
    "vortex/pre-exec": "1ab00ef33549d7108bc702016470ba49976cbfe4fbc426eef918f2d93ef3aa83",
    "vortex/overhead-execute": "7dec3e276f5190394fb9558ba15286b4ea8dba77edcfb299481dcfd1f8db7223",
    "vortex/overhead-sequence": "958d7274cb58c5c533ca2b0a82647ca421c569721c375b30bac4ab4571a4d631",
    "vortex/latency-only": "5be4f9d84ddd5ea08e7ecc7f0c06d3ac3330eb285fa3b76b59ed8e9b560f9e5f",
    "vortex/perfect-l2": "2318f9df9ee0b63520713add67ee7c6cb468c652da66442a3d164bf643e28231",
    "vpr.p/baseline": "9f175e39841b8ff496588f5c5f12dccfe292716504637f3984bab915ae4f9461",
    "vpr.p/pre-exec": "aee102bfb65eaa0906a99078742ad7cf8af3a4c82f2ed0bc835e44c429949686",
    "vpr.p/overhead-execute": "0fcf8953a7b60349d79a9864d2496f2b59accd775d29fa5bf6ebe74182a4279b",
    "vpr.p/overhead-sequence": "cb26cc8fa9f9656b5a87434c5736de2b026f193c42081acfb93e4577d771d04e",
    "vpr.p/latency-only": "55043676bb6d044b7da442a612787f7848b7e7fe0967cc5cb53f3e3d0ae6a39e",
    "vpr.p/perfect-l2": "548570d3bd2cc7a6d395b4e06f188dd589b466184e88489d14f7ff1ad75b5be8",
    "vpr.r/baseline": "510a4ae013fa0e775aa7d4939e2e0d9fc56ccc7cdfa0e79abdcf63e095bbf4e6",
    "vpr.r/pre-exec": "926562899bc87f7ccbd0be7025a6f408f3e2bc493673c18b583289bd631b5873",
    "vpr.r/overhead-execute": "2bb1fde7a0aeaa19ca50bd3eb9044ecd40bc37b501d3b27318ef88560d985819",
    "vpr.r/overhead-sequence": "826c7e4ee8f954791aa08a2c9d826b194021347b8c0d97be5d76b48ad72dd08e",
    "vpr.r/latency-only": "4f3487b9af7cc0911ea1005df9ddb4a8c724c55c3b149c880b2f68035141c805",
    "vpr.r/perfect-l2": "8ad18d82bd61e36730b345e74a24491c70cf21bfcc321d393296cb7c890223fa",
    "pharmacy/baseline": "35c3ab1b21cebf56822d5bb4edec0ee006bd1871a51d858affac3fa0403a751c",
    "pharmacy/pre-exec": "0f43d8d125661a8b0587184ded4c26476c2a4b72dd9816322943534f6c9c34c5",
    "pharmacy/overhead-execute": "5d72c88941e03e19aeae77b14afe287018432adc3757a6bfd5a5053553b31716",
    "pharmacy/overhead-sequence": "f1672631ade6bb505e2b7d78ef25aa9af9743473b880078cd29093fc4f757907",
    "pharmacy/latency-only": "32c3aeb5a14acafe40aa863cba37a239f48fc974ecbb9e850aabbe6b41d338f0",
    "pharmacy/perfect-l2": "96a38019d7534549ca83a116ac0580844f6e5c9c6149277acbd598d5680e7639",
}

_SELECTIONS: dict = {}


def _pthreads(name: str):
    """The workload's selected p-threads, selected once per module."""
    if name not in _SELECTIONS:
        _SELECTIONS[name] = workload_selection(name).pthreads
    return _SELECTIONS[name]


def run_record(name: str, mode) -> dict:
    """One timing run's stats and published memory metrics."""
    workload = build(name, "train")
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        stats = TimingSimulator(
            workload.program, workload.hierarchy, pthreads=_pthreads(name)
        ).run(mode)
    finally:
        set_registry(previous)
    memory = {
        metric: value
        for metric, value in registry.snapshot().items()
        if metric.startswith("memory.")
    }
    return {"stats": stats.to_dict(), "memory": memory}


def run_digest(name: str, mode) -> str:
    text = json.dumps(run_record(name, mode), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("mode", MODES, ids=lambda mode: mode.name)
@pytest.mark.parametrize("name", WORKLOADS)
def test_simstats_are_byte_identical(name, mode):
    assert run_digest(name, mode) == GOLDEN[f"{name}/{mode.name}"]


if __name__ == "__main__":  # regenerate: PYTHONPATH=src python -m tests.timing.test_simstats_golden
    for name in WORKLOADS:
        for mode in MODES:
            print(f'    "{name}/{mode.name}": "{run_digest(name, mode)}",')
