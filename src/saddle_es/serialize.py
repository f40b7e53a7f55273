"""Deterministic CSV/JSON writers shared by the trace, experiments, and CLI.

All numeric output uses round-trip decimal formatting (Python float repr), so
re-parsing the files reproduces the values bit for bit.  CSV files are UTF-8
with LF line endings and a header row; JSON files hold a single object with a
``schema`` version field.
"""

from __future__ import annotations

import json
import math

import numpy as np

SCHEMA_VERSION = 1


def fmt_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt_value(v) for v in row) + "\n")


def jsonable(obj):
    """Recursively convert numpy scalars/arrays and non-finite floats.

    Infinities become the string "inf"/"-inf" and NaN becomes None, keeping the
    output strict JSON (the only infinite quantity in practice is a
    never-crossed success-rate threshold).
    """
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        if math.isnan(f):
            return None
        if math.isinf(f):
            return "inf" if f > 0 else "-inf"
        return f
    return obj


def write_json(path, obj: dict) -> None:
    data = dict(obj)
    data["schema"] = SCHEMA_VERSION
    text = json.dumps(jsonable(data), sort_keys=True, indent=2, allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text + "\n")


def trace_to_csv(trace, path) -> None:
    """Columns: t, m_1..m_d, sigma, f, accepted (empty for the initial record)."""
    d = trace.final_state.m.size
    header = ["t"] + [f"m_{i + 1}" for i in range(d)] + ["sigma", "f", "accepted"]
    rows = [[r.t, *r.m, r.sigma, r.f_value, r.accepted] for r in trace.records]
    write_csv(path, header, rows)


def drift_map_to_csv(rows, path) -> None:
    header = ["w", "sigma_tilde", "mean", "stderr", "ci_low", "ci_high", "n"]
    write_csv(path, header,
              [[r.w, r.sigma_tilde, r.est.mean, r.est.stderr,
                r.est.ci_low, r.est.ci_high, r.est.n] for r in rows])


def survival_to_csv(stats, path) -> None:
    write_csv(path, ["t", "S"], zip(stats.survival_t, stats.survival_s))
