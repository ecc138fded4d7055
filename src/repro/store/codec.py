"""The entry codec for persisted per-procedure analysis results.

The on-disk/wire tier stores one *entry blob* per :class:`IntraResult`:
a JSON dict ``{"version", "key", "pass", "payload"}``, human-inspectable.
A blob that is not such a dict for this key and :data:`STORE_VERSION`
decodes to ``None``, so the store drops it as corrupt and rewrites it.

The encoding round-trips everything the interprocedural propagation and
the reports consume — call-site argument/global lattice values,
executability, the return value, and the exit-value table.  It
deliberately does **not** persist the engine ``detail`` (CFG/SSA
internals): detail references AST objects of the analyzed process and
exists only for the transformation pass (which re-runs the engine
itself), the ICP004 reachability lint, and observability — all of which
tolerate its absence, the same contract the ``simple`` engine already
exercises.

Lattice values encode as compact tagged tokens:

- ``"T"`` / ``"B"`` — TOP / BOTTOM,
- ``["c", payload]`` — a constant; JSON keeps the int/float distinction
  the lattice's type-sensitive equality depends on, and Python's JSON
  ints are arbitrary-precision (the evaluator folds beyond 64 bits).

Call sites persist their program-wide identity ``(caller, index, callee)``
only.  Decoding *rebinds* each :class:`CallSiteValues` to the live
:class:`~repro.lang.symbols.CallSite` of the procedure's current symbol
table — the store key already guarantees the procedure source is
identical, and rebinding keeps every decoded site's ``stmt`` pointing at
the AST actually under analysis.  A payload whose sites cannot be rebound
(symbol drift, i.e. a corrupt or mis-keyed entry) decodes to ``None`` so
the store can drop and rewrite it.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Union

from repro.analysis.base import CallSiteValues, IntraResult
from repro.ir.lattice import BOTTOM, TOP, LatticeValue
from repro.lang.symbols import ProcedureSymbols

#: Bump on any change to the payload shape; part of the store's version
#: stamp, so old stores are wiped rather than misread.
CODEC_VERSION = 1

#: Store/wire format stamp.  Embedded in every entry blob and written to
#: the store directory's ``VERSION`` file, so either layer's format change
#: invalidates persisted state instead of misreading it.
STORE_VERSION = f"repro-icp-store/v1+codec{CODEC_VERSION}"


def encode_value(value: LatticeValue) -> Union[str, List[Any]]:
    if value.is_top:
        return "T"
    if value.is_bottom:
        return "B"
    return ["c", value.const_value]


def decode_value(token: Union[str, List[Any]]) -> LatticeValue:
    if token == "T":
        return TOP
    if token == "B":
        return BOTTOM
    if (
        isinstance(token, list)
        and len(token) == 2
        and token[0] == "c"
        and isinstance(token[1], (int, float))
        and not isinstance(token[1], bool)
    ):
        return LatticeValue(1, token[1])
    raise ValueError(f"malformed lattice token: {token!r}")


def encode_intra(intra: IntraResult) -> Dict[str, Any]:
    """The JSON-serializable payload of one :class:`IntraResult`."""
    sites = []
    for (caller, index), values in sorted(intra.call_sites.items()):
        sites.append(
            {
                "caller": caller,
                "index": index,
                "callee": values.site.callee,
                "executable": values.executable,
                "args": [encode_value(v) for v in values.arg_values],
                "globals": {
                    name: encode_value(v)
                    for name, v in sorted(values.global_values.items())
                },
            }
        )
    payload: Dict[str, Any] = {
        "proc": intra.proc_name,
        "engine": intra.engine,
        "return": encode_value(intra.return_value),
        "sites": sites,
    }
    if intra.exit_values is not None:
        payload["exit"] = {
            name: encode_value(v)
            for name, v in sorted(intra.exit_values.items())
        }
    return payload


def decode_intra(
    payload: Dict[str, Any], symbols: ProcedureSymbols
) -> Optional[IntraResult]:
    """Rebuild an :class:`IntraResult`, rebinding sites to live symbols.

    Returns ``None`` (never raises for shape problems) when the payload
    does not match the procedure's current call sites — the caller treats
    that as a corrupt entry and drops it.
    """
    try:
        by_key = {
            (site.caller, site.index): site for site in symbols.call_sites
        }
        call_sites: Dict[tuple, CallSiteValues] = {}
        for entry in payload["sites"]:
            key = (entry["caller"], entry["index"])
            site = by_key.get(key)
            if site is None or site.callee != entry["callee"]:
                return None
            call_sites[key] = CallSiteValues(
                site=site,
                executable=bool(entry["executable"]),
                arg_values=[decode_value(v) for v in entry["args"]],
                global_values={
                    name: decode_value(v)
                    for name, v in entry["globals"].items()
                },
            )
        if set(call_sites) != set(by_key):
            return None  # entry predates a call-site change: stale
        exit_values = None
        if "exit" in payload:
            exit_values = {
                name: decode_value(v) for name, v in payload["exit"].items()
            }
        return IntraResult(
            proc_name=payload["proc"],
            engine=payload["engine"],
            call_sites=call_sites,
            return_value=decode_value(payload["return"]),
            detail=None,
            exit_values=exit_values,
        )
    except (KeyError, TypeError, ValueError):
        return None


def encode_entry(key: str, pass_label: str, intra: IntraResult) -> bytes:
    """Serialize one store entry."""
    blob = {
        "version": STORE_VERSION,
        "key": key,
        "pass": pass_label,
        "payload": encode_intra(intra),
    }
    text = json.dumps(blob, sort_keys=True, separators=(",", ":")) + "\n"
    return text.encode("utf-8")


def decode_entry(
    raw: bytes, key: str, symbols: ProcedureSymbols
) -> Optional[IntraResult]:
    """Decode one entry blob; ``None`` on any problem.

    Mis-keyed, stale-format, truncated, non-JSON, or symbol-drifted blobs
    all decode to ``None`` (never an exception) so callers can treat them
    as corrupt misses.
    """
    try:
        blob = json.loads(raw.decode("utf-8"))
        if (
            isinstance(blob, dict)
            and blob.get("version") == STORE_VERSION
            and blob.get("key") == key
        ):
            return decode_intra(blob.get("payload", {}), symbols)
        return None
    except (KeyError, TypeError, ValueError, UnicodeDecodeError):
        return None
