"""Each output check passes on a sound input and fails on a broken one.

    python3 -m pytest perfbench/tests
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import checks  # noqa: E402


def _scores(rng, rows=6, classes=5):
    def softmax(z):
        e = np.exp(z - z.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)
    return softmax(rng.normal(size=(rows, classes))) + \
        softmax(rng.normal(size=(rows, classes)))


def test_score_rows_catch_a_row_off_by_1e_6():
    scores = _scores(np.random.default_rng(0))
    assert checks.score_rows(scores) == []
    scores[3, 1] += 1e-6
    assert checks.score_rows(scores)


def test_same_scores_is_bitwise():
    scores = _scores(np.random.default_rng(1))
    assert checks.same_scores(scores, scores.copy()) == []
    moved = scores.copy()
    moved[0, 0] = np.nextafter(moved[0, 0], 3.0)
    assert checks.same_scores(scores, moved)


def test_grad_errors_catch_an_error_above_1e_4():
    ok = {"ce_t": 3e-9, "agg": 1e-4, "replay": 0.0}
    assert checks.grad_errors(ok) == []
    assert checks.grad_errors({**ok, "kd": 1.0001e-4})
    assert checks.grad_errors({**ok, "kd": float("nan")})


def _leaf(per_task):
    return {"per_task": per_task, "last": per_task[-1],
            "avg": float(np.mean(per_task))}


def _matrix():
    leaves = {
        "only_text": [_leaf([50.0, 30.0]), _leaf([60.0, 20.0]),
                      _leaf([40.0, 25.0])],
        "se_vpr": [_leaf([70.0, 45.0]), _leaf([65.0, 35.0]),
                   _leaf([75.0, 41.0])],
    }
    rows = [{"variant": v,
             "last": float(np.mean([s["last"] for s in runs])),
             "avg": float(np.mean([s["avg"] for s in runs]))}
            for v, runs in leaves.items()]
    manifests = [{"config": {"replay": True}}] * 6
    return rows, leaves, manifests


def test_matrix_outputs_catch_a_mean_off_by_one_leaf():
    rows, leaves, manifests = _matrix()
    assert checks.matrix_outputs(rows, leaves, manifests) == []
    runs = leaves["se_vpr"]
    rows[1]["last"] = float(np.mean([s["last"] for s in runs[:2]]))
    assert checks.matrix_outputs(rows, leaves, manifests)
    rows, leaves, manifests = _matrix()
    swapped = [leaves["only_text"][0]] + leaves["se_vpr"][1:]
    rows[1]["avg"] = float(np.mean([s["avg"] for s in swapped]))
    assert checks.matrix_outputs(rows, leaves, manifests)


def test_matrix_outputs_catch_leaf_avg_and_replay_flag():
    rows, leaves, manifests = _matrix()
    leaves["only_text"][1]["avg"] += 1.0
    assert checks.matrix_outputs(rows, leaves, manifests)
    rows, leaves, manifests = _matrix()
    manifests = manifests[:5] + [{"config": {"replay": False}}]
    assert checks.matrix_outputs(rows, leaves, manifests)


def test_task_accuracy_catches_shuffled_labels():
    rng = np.random.default_rng(2)
    labels = [rng.integers(0, 5, 40), rng.integers(5, 10, 40)]
    preds, per_task = [], []
    for t in range(2):
        y = np.concatenate(labels[:t + 1])
        pred = np.where(rng.random(y.size) < 0.7, y, (y + 1) % 10)
        preds.append(pred)
        per_task.append(100.0 * float(np.mean(pred == y)))
    assert checks.task_accuracy(preds, labels, per_task) == []
    shuffled = [rng.permutation(y) for y in labels]
    assert checks.task_accuracy(preds, shuffled, per_task)


def test_same_per_task_pool_size_and_replay_inert():
    assert checks.same_per_task([50.0, 40.0], (50.0, 40.0)) == []
    assert checks.same_per_task([50.0, 40.0], (50.0, 40.000000000000004))
    assert checks.pool_size(5, 5, 10) == []
    assert checks.pool_size(4, 5, 10)
    assert checks.pool_size(10, None, 10) == []
    assert checks.replay_inert(0, None) == []
    assert checks.replay_inert(1, None)
    assert checks.replay_inert(0, object())
