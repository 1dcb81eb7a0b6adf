"""Degraded fusion keeps a *trained* system at sane accuracy.

The other serving tests pin exact equivalence with the local zero-fill
path; this one checks the semantic claim from the paper's fault-tolerance
story: with a trained fusion MLP, killing a worker degrades accuracy
gracefully instead of collapsing the fleet.  Everything is seeded, so the
accuracies are deterministic; the floors are set far above the 10-class
chance level (0.1).
"""

import numpy as np
import pytest

from repro.edge.runtime import WorkerFailure
from repro.planning import plan_demo_system
from repro.serving import InferenceServer


@pytest.fixture(scope="module")
def trained_system():
    return plan_demo_system(num_workers=2, image_size=8, train_fusion=True,
                            fusion_epochs=15, seed=0)


@pytest.fixture(scope="module")
def test_set(trained_system):
    dataset = trained_system.eval_dataset()
    return dataset.x_test.astype(np.float32), np.asarray(dataset.y_test)


def test_served_accuracy_degrades_gracefully(trained_system, test_set):
    x, y = test_set
    w0 = trained_system.plan.model_ids[0]
    with trained_system.make_server() as server:
        healthy = server.infer(x, timeout=60.0)
    healthy_acc = float((healthy == y).mean())

    with trained_system.make_cluster() as cluster:
        cluster.kill_worker(w0)
        # The sync path refuses (typed failure) ...
        with pytest.raises(WorkerFailure):
            cluster.infer_features(x)

    # ... while the serving layer degrades: zero-filled w0 features.
    with InferenceServer(trained_system.make_cluster(),
                         trained_system.fusion) as server:
        server.cluster.kill_worker(w0)
        degraded = server.infer(x, timeout=60.0)
        report = server.stats()
    degraded_acc = float((degraded == y).mean())

    np.testing.assert_array_equal(
        degraded, trained_system.local_fused_labels(x, zero_models=(0,)))
    assert healthy_acc >= 0.2                  # well above 10-class chance
    assert degraded_acc >= 0.15                # degraded, but still sane
    assert report.failed == 0
    assert report.worker_health[w0] != "up"
