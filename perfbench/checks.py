"""Output checks, each computed apart from the program it checks.

Every check returns a list of failure messages; an empty list passes.
None of them compares against stored numbers from an earlier run.
"""

from __future__ import annotations

import numpy as np

GRAD_TOL = 1e-4
ROW_SUM_TOL = 1e-9


def task_accuracy(preds, test_labels, per_task) -> list[str]:
    """Each task's accuracy, recomputed from ``predict`` output and labels.

    ``preds[t]`` holds the predictions made after task t+1 over the union
    of the test splits of tasks 1..t+1, and ``test_labels[t]`` is task t+1's
    test labels.
    """
    out = []
    if len(preds) != len(per_task):
        return [f"{len(preds)} predict calls for {len(per_task)} tasks"]
    for t, pred in enumerate(preds):
        labels = np.concatenate(test_labels[:t + 1])
        if pred.shape != labels.shape:
            out.append(f"task {t + 1}: {pred.shape[0]} predictions for "
                       f"{labels.shape[0]} labels")
            continue
        acc = 100.0 * float(np.mean(pred == labels))
        if acc != per_task[t]:
            out.append(f"task {t + 1}: accuracy {acc!r} from predictions, "
                       f"{per_task[t]!r} reported")
    return out


def score_rows(scores, total: float = 2.0) -> list[str]:
    """Hybrid score rows: mean text softmax plus one visual softmax."""
    err = np.abs(np.sum(scores, axis=1) - total)
    worst = float(err.max(initial=0.0))
    if not worst <= ROW_SUM_TOL:
        return [f"score row sums off {total} by up to {worst:.3e}"]
    return []


def same_scores(before, after) -> list[str]:
    """Scores after a checkpoint round trip, compared bit for bit."""
    if before.shape != after.shape or before.tobytes() != after.tobytes():
        return ["scores differ after a checkpoint save and load"]
    return []


def pool_size(entries: int, pool_max, tasks: int) -> list[str]:
    want = tasks if pool_max is None else min(tasks, pool_max)
    if entries != want:
        return [f"pool holds {entries} entries, expected {want}"]
    return []


def replay_inert(calls: int, store) -> list[str]:
    out = []
    if calls:
        out.append(f"replay called {calls} times with replay off")
    if store is not None:
        out.append("replay store exists with replay off")
    return out


def matrix_outputs(rows, leaves, manifests) -> list[str]:
    """rows.json against the leaves it summarises.

    ``rows`` is rows.json's list; ``leaves[variant]`` lists that variant's
    summary.json documents in trial order; ``manifests`` lists every leaf's
    manifest.json document.
    """
    out = []
    if [r["variant"] for r in rows] != list(leaves):
        out.append("rows.json variants do not match the leaf directories")
    for row in rows:
        runs = leaves.get(row["variant"], [])
        for key in ("last", "avg"):
            mean = float(np.mean([s[key] for s in runs])) if runs else None
            if mean != row[key]:
                out.append(f"{row['variant']}: rows.json {key} {row[key]!r}, "
                           f"mean over {len(runs)} leaves {mean!r}")
    for variant, runs in leaves.items():
        for i, s in enumerate(runs):
            if float(np.mean(s["per_task"])) != s["avg"]:
                out.append(f"{variant}/{i}: avg is not the mean of per_task")
    for i, m in enumerate(manifests):
        if m.get("config", {}).get("replay") is not True:
            out.append(f"leaf manifest {i} does not record replay: true")
    return out


def same_per_task(parallel, serial) -> list[str]:
    if list(parallel) != list(serial):
        return [f"serial re-run per_task {list(serial)} differs from the "
                f"parallel leaf's {list(parallel)}"]
    return []


def grad_errors(errs: dict[str, float], tol: float = GRAD_TOL) -> list[str]:
    """Worst relative error of each loss's finite-difference check."""
    return [f"{loss}: relative error {err:.3e} above {tol:g}"
            for loss, err in errs.items() if not err <= tol]
