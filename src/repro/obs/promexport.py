"""Prometheus text exposition for :class:`~repro.obs.metrics.MetricsRegistry`.

Renders registry snapshots in the Prometheus text format (version 0.0.4)
for the serve fleet's ``GET /metrics`` endpoints:

- dotted instrument names become underscore metric names under a
  ``repro_`` prefix (``http.latency.report`` → ``repro_http_latency_report``);
- counters gain the conventional ``_total`` suffix;
- histograms render as cumulative ``_bucket{le="..."}`` series plus
  ``_sum``/``_count``, straight from the snapshot's sparse bucket counts;
- one exposition can carry several label-qualified series per metric —
  the shard router renders the fleet aggregate unlabeled, its own
  counters as ``{process="router"}``, and each worker's snapshot as
  ``{shard="N"}``, all under a single ``# TYPE`` header per metric.

:func:`parse_prometheus_text` is the matching reader used by
``repro-icp top`` and the CI smoke assertions; it
round-trips everything :func:`render_prometheus` emits.
"""

from __future__ import annotations

import re
from typing import Any, Dict, Iterable, List, Mapping, Tuple

#: Prefix of every exported metric name.
METRIC_PREFIX = "repro_"

#: Content type of the text exposition format.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")

#: One labeled snapshot: (labels, registry snapshot dict).
LabeledSnapshot = Tuple[Mapping[str, str], Dict[str, Any]]


def metric_name(dotted: str, prefix: str = METRIC_PREFIX) -> str:
    """The exposition name of a dotted instrument name."""
    return prefix + _NAME_RE.sub("_", dotted)


def _render_labels(labels: Mapping[str, str]) -> str:
    parts = [
        '%s="%s"'
        % (
            key,
            str(value)
            .replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n"),
        )
        for key, value in sorted(labels.items())
    ]
    return "{" + ",".join(parts) + "}" if parts else ""


def _format_value(value: Any) -> str:
    if value is None:
        return "NaN"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    return repr(float(value))


def _bucket_bound(key: str) -> float:
    return float("inf") if key == "overflow" else float(key[3:])


def render_prometheus(
    series: Iterable[LabeledSnapshot], prefix: str = METRIC_PREFIX
) -> str:
    """Render labeled registry snapshots as one text exposition.

    ``series`` is an iterable of ``(labels, snapshot)`` pairs; metric
    names are grouped so every name gets exactly one ``# TYPE`` line no
    matter how many label sets report it.
    """
    pairs = [(dict(labels), snapshot) for labels, snapshot in series]
    counters: Dict[str, List[Tuple[Dict[str, str], Any]]] = {}
    gauges: Dict[str, List[Tuple[Dict[str, str], Any]]] = {}
    histograms: Dict[str, List[Tuple[Dict[str, str], Dict[str, Any]]]] = {}
    for labels, snapshot in pairs:
        if not isinstance(snapshot, dict):
            continue
        for name, value in (snapshot.get("counters") or {}).items():
            counters.setdefault(name, []).append((labels, value))
        for name, value in (snapshot.get("gauges") or {}).items():
            gauges.setdefault(name, []).append((labels, value))
        for name, summary in (snapshot.get("histograms") or {}).items():
            histograms.setdefault(name, []).append((labels, summary))

    lines: List[str] = []
    for name in sorted(counters):
        exported = metric_name(name, prefix) + "_total"
        lines.append(f"# TYPE {exported} counter")
        for labels, value in counters[name]:
            lines.append(
                f"{exported}{_render_labels(labels)} {_format_value(value)}"
            )
    for name in sorted(gauges):
        exported = metric_name(name, prefix)
        lines.append(f"# TYPE {exported} gauge")
        for labels, value in gauges[name]:
            lines.append(
                f"{exported}{_render_labels(labels)} {_format_value(value)}"
            )
    for name in sorted(histograms):
        exported = metric_name(name, prefix)
        lines.append(f"# TYPE {exported} histogram")
        for labels, summary in histograms[name]:
            buckets = sorted(
                (summary.get("buckets") or {}).items(),
                key=lambda item: _bucket_bound(item[0]),
            )
            cumulative = 0
            for key, count in buckets:
                if key == "overflow":
                    continue
                cumulative += count
                bucket_labels = dict(labels)
                bucket_labels["le"] = _format_value(_bucket_bound(key))
                lines.append(
                    f"{exported}_bucket{_render_labels(bucket_labels)} "
                    f"{cumulative}"
                )
            inf_labels = dict(labels)
            inf_labels["le"] = "+Inf"
            lines.append(
                f"{exported}_bucket{_render_labels(inf_labels)} "
                f"{summary.get('count', 0)}"
            )
            lines.append(
                f"{exported}_sum{_render_labels(labels)} "
                f"{_format_value(summary.get('sum', 0.0))}"
            )
            lines.append(
                f"{exported}_count{_render_labels(labels)} "
                f"{summary.get('count', 0)}"
            )
    return "\n".join(lines) + "\n" if lines else ""


#: Parsed exposition: {(metric name, sorted label tuple): value}.
ParsedMetrics = Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float]

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)\s*$"
)
_LABEL_RE = re.compile(r'(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:\\.|[^"\\])*)"')


def parse_prometheus_text(text: str) -> ParsedMetrics:
    """Parse a text exposition into ``{(name, labels): value}``.

    Unparseable lines are skipped (the parser is for our own renderer's
    output plus whatever a healthy Prometheus endpoint serves, not a
    conformance suite).
    """
    parsed: ParsedMetrics = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            continue
        raw = match.group("value")
        try:
            if raw == "+Inf":
                value = float("inf")
            elif raw == "-Inf":
                value = float("-inf")
            else:
                value = float(raw)
        except ValueError:
            continue
        labels = []
        for entry in _LABEL_RE.finditer(match.group("labels") or ""):
            labels.append(
                (
                    entry.group("key"),
                    entry.group("value")
                    .replace('\\"', '"')
                    .replace("\\n", "\n")
                    .replace("\\\\", "\\"),
                )
            )
        parsed[(match.group("name"), tuple(sorted(labels)))] = value
    return parsed


def series_values(
    parsed: ParsedMetrics, name: str
) -> List[Tuple[Dict[str, str], float]]:
    """All (labels, value) samples of one metric name."""
    return [
        (dict(labels), value)
        for (sample, labels), value in sorted(parsed.items())
        if sample == name
    ]


def sample_value(
    parsed: ParsedMetrics,
    name: str,
    labels: Mapping[str, str] = (),
    default: float = 0.0,
) -> float:
    """The value of one exact (name, labels) sample, or ``default``."""
    key = (name, tuple(sorted(dict(labels).items())))
    return parsed.get(key, default)
