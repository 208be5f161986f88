"""``python -m bench compare``: quartiles and verdicts over output documents.

One set of ``--out`` documents gives, per end-to-end metric and workload,
the median, the quartiles and the spread (interquartile range over the
median), judged ``steady`` when the spread is within the metric's bound
in BENCHMARK.json.  With ``--against`` a baseline set, each median is also
judged against the baseline's: ``REGRESSED`` when worse by more than the
bound, ``unresolved`` when either set's spread exceeds the bound.
Documents from hosts with different fingerprints are never compared.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from bench.harness import COMPARABLE_KEYS, BenchError

Values = Dict[Tuple[str, str], List[float]]


def _load(paths: Sequence[str]) -> List[Dict[str, Any]]:
    docs = []
    for path in paths:
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise BenchError(f"cannot read {path}: {exc}") from None
        if doc.get("traced"):
            raise BenchError(f"{path} is a traced run; compare untraced runs")
        docs.append(doc)
    return docs


def _host_mismatch(docs: Sequence[Dict[str, Any]]) -> List[str]:
    first = docs[0]["fingerprint"]
    return sorted({
        key for doc in docs[1:] for key in COMPARABLE_KEYS
        if doc["fingerprint"].get(key) != first.get(key)
    })


def _values(docs: Sequence[Dict[str, Any]]) -> Values:
    out: Values = {}
    for doc in docs:
        for workload, line in doc["workloads"].items():
            for metric, m in line["metrics"].items():
                out.setdefault((workload, metric), []).append(float(m["value"]))
    return out


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values: Sequence[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def compare(
    files: Sequence[str], against: Optional[Sequence[str]], spec: Dict[str, Any]
) -> Tuple[List[str], int]:
    """Report lines and exit code (1: noisy or regressed, 2: refused)."""
    docs = _load(files)
    base_docs = _load(against) if against else []
    mismatch = _host_mismatch(docs + base_docs)
    if mismatch:
        return [f"refusing to compare: host fingerprints differ on {mismatch}"], 2
    new, base = _values(docs), _values(base_docs)
    workloads = sorted({w for w, _ in new})
    lines = [f"{len(docs)} document(s)" + (f" against {len(base_docs)}" if base_docs else "")]
    code = 0
    for m in spec["end_to_end"]:
        name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
        lines.append(f"{name} ({m['unit']}, {m['better']} is better, bound {bound:.0%})")
        header = f"  {'workload':<14} {'n':>3} {'q1':>11} {'median':>11} {'q3':>11} {'spread':>7}"
        lines.append(header + (f" {'base':>11} {'change':>7}" if base else "") + "  verdict")
        for workload in workloads:
            values = new.get((workload, name))
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            row = (f"  {workload:<14} {len(values):>3} {q1:>11.5g} {med:>11.5g} "
                   f"{q3:>11.5g} {spread(values):>7.1%}")
            noisy = spread(values) > bound
            verdict = "noisy" if noisy else "steady"
            before = base.get((workload, name))
            if before:
                base_med = quartiles(before)[1]
                worse = (med - base_med) / base_med if lower else (base_med - med) / base_med
                row += f" {base_med:>11.5g} {worse:>+7.1%}"
                if worse > bound:
                    verdict = "REGRESSED"
                elif noisy or spread(before) > bound:
                    verdict = "unresolved"
                else:
                    verdict = "ok"
            if verdict in ("noisy", "REGRESSED"):
                code = 1
            lines.append(f"{row}  {verdict}")
    return lines, code
