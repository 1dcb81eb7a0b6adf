"""What an emulated device's process holds, and how it is started.

A built-in worker imports the inference path and nothing else, and its
process starts without re-running the parent's ``__main__``; a stand-in
loop, which the child could only find through ``__main__``, keeps stock
``spawn``.  Driver scripts run in subprocesses: what ``spawn`` replays is
the *script*, so the test process itself cannot stand in for one.
"""

import multiprocessing.context as mp_context
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.edge.runtime import _worker_main
from repro.edge.transport import (MultiprocessTransport, TcpTransport,
                                  _NoMainProcess, needs_main)

SRC = str(pathlib.Path(repro.__file__).parents[1])
PROCESS_TRANSPORTS = ["multiprocess", "tcp"]


def run_python(*argv, cwd=None):
    result = subprocess.run([sys.executable, *map(str, argv)], cwd=cwd,
                            capture_output=True, text=True, timeout=120,
                            env={**os.environ, "PYTHONPATH": SRC})
    assert result.returncode == 0, result.stderr
    return result.stdout


# ----------------------------------------------------------------------
IMPORT_CONTRACT = """
import sys
import multiprocessing.connection, repro.edge.runtime, repro.core.inference

def loaded(prefix):
    return sorted(m for m in sys.modules
                  if m == prefix or m.startswith(prefix + "."))

for unwanted in ("repro.planning", "repro.serving", "repro.store",
                 "repro.pruning", "repro.splitting", "repro.baselines",
                 "repro.data", "repro.core.edvit",
                 "repro.core.experiments", "repro.edge.simulator",
                 "repro.edge.fastsim", "repro.obs.trace", "numpy.random"):
    assert not loaded(unwanted), loaded(unwanted)

import numpy as np
from repro import nn
from repro.edge.runtime import build_model
from repro.models.vit import ViTConfig

config = ViTConfig(image_size=8, patch_size=4, num_classes=3, depth=2,
                   embed_dim=8, num_heads=2, attn_dim=4).to_dict()
with nn.init.unwritten():
    model = build_model("vit", config)
state = [(name, np.full(param.shape, 0.01, dtype=np.float32))
         for name, param in model.named_parameters()]
model.load_state_dict(state, strict=True, adopt=True)
model.eval()
features = repro.core.inference.extract_features(
    model, np.ones((2, 3, 8, 8), dtype=np.float32), 64)
assert features.shape == (2, 8) and np.isfinite(features).all()
assert not loaded("numpy.random"), "a load-only worker drew random numbers"
print("worker import set:", len(loaded("repro")), "repro modules,",
      len(sys.modules), "modules in all")
"""


def test_a_worker_imports_the_inference_path_and_nothing_else(capsys):
    out = run_python("-c", IMPORT_CONTRACT)
    assert out.startswith("worker import set:")
    with capsys.disabled():            # the count is this test's report
        print(f"\n  {out.strip()}", end="")
    # Import creep shows here first; raise the bound only on purpose.
    assert int(out.split()[3]) <= 29


# ----------------------------------------------------------------------
DRIVER = """
import sys
with open(sys.argv[2], "a") as log:    # once per execution of this file
    log.write("executed\\n")

import dataclasses
import multiprocessing
import numpy as np
from repro.edge.device import DeviceModel
from repro.edge.network import LinkModel
from repro.edge.runtime import EdgeCluster, WorkerSpec
from repro.edge.transport import get_transport
from repro.models.vit import ViTConfig, VisionTransformer

MAIN_LEVEL = "defined in the driver script"


def stand_in(spec, conn):
    conn.send(("main", MAIN_LEVEL))


def specs(codec="raw32"):
    config = ViTConfig(image_size=8, patch_size=4, num_classes=3, depth=1,
                       embed_dim=8, num_heads=2)
    return [dataclasses.replace(WorkerSpec.from_model(
        f"w{i}", VisionTransformer(config, rng=np.random.default_rng(i)),
        "vit", flops_per_sample=1e6,
        device=DeviceModel(device_id=f"d{i}", macs_per_second=1e12),
        link=LinkModel(bandwidth_bps=1e9, overhead_seconds=0.0)),
        codec=codec) for i in range(2)]


if __name__ == "__main__":
    transport, _, scenario = sys.argv[1:]
    x = np.ones((2, 3, 8, 8), dtype=np.float32)
    if scenario == "stand-in":
        handle, = get_transport(transport).launch(specs()[:1], stand_in)
        assert handle.poll(30)
        print("stand-in sees", handle.recv()[1])
        handle.join(timeout=10)
        handle.close()
    else:
        codec = "q8" if scenario == "q8" else "raw32"
        with EdgeCluster(specs(codec), transport=transport) as cluster:
            features, timing = cluster.infer_features(x)
            print("served", sorted(features),
                  "children", len(multiprocessing.active_children()))
        if scenario == "q8":
            print("bytes out", sorted(int(reply["bytes_out"])
                                      for reply in timing.per_worker.values()))
"""


@pytest.fixture
def driver(tmp_path):
    script = tmp_path / "driver.py"
    script.write_text(textwrap.dedent(DRIVER))
    log = tmp_path / "executions.log"

    def run(transport, scenario):
        log.write_text("")
        out = run_python(script, transport, log, scenario, cwd=tmp_path)
        return out.strip(), len(log.read_text().splitlines())

    return run


@pytest.mark.parametrize("transport", PROCESS_TRANSPORTS)
class TestHowAWorkerProcessStarts:
    def test_builtin_workers_do_not_replay_the_driver_script(self, driver,
                                                             transport):
        out, executions = driver(transport, "builtin")
        assert out == "served ['w0', 'w1'] children 2"
        assert executions == 1         # stock spawn: 1 + one per worker

    def test_a_codec_from_the_script_still_reaches_its_workers(self, driver,
                                                               transport):
        out, executions = driver(transport, "q8")
        # q8 ships 2 rows x (8 B header + 8 dims x 1 B); raw32 would be 64 B
        assert out == "served ['w0', 'w1'] children 2\nbytes out [32, 32]"
        assert executions == 1         # a codec named by a spec needs no replay

    def test_a_stand_in_loop_still_sees_main_level_registrations(
            self, driver, transport):
        out, executions = driver(transport, "stand-in")
        assert out == "stand-in sees defined in the driver script"
        assert executions == 2


# ----------------------------------------------------------------------
def outside_loop(spec, conn):
    """A ``worker_main`` defined outside the package."""


class TestNeedsMain:
    """The start is chosen from where the launch's loop is defined."""

    transports = (MultiprocessTransport(), TcpTransport())

    def test_the_builtin_loop_does_not(self):
        assert not needs_main(_worker_main)
        for transport in self.transports:
            assert transport._process_class(_worker_main) is _NoMainProcess

    def test_a_loop_defined_elsewhere_does(self):
        assert needs_main(outside_loop)
        for transport in self.transports:
            assert transport._process_class(outside_loop) \
                is mp_context.SpawnProcess
