"""The stable repro.api facade: exports, aliases, config round-trip."""

import os
import warnings

import pytest

from repro.core.config import FIELDS, HINTS, ICPConfig
from repro.errors import ConfigError


class TestFacadeSurface:
    def test_exports(self):
        import repro.api as api

        for name in ("analyze", "analyze_program", "AnalysisSession",
                     "ICPConfig", "PipelineResult", "CompilationPipeline",
                     "parse_program"):
            assert name in api.__all__
            assert hasattr(api, name)

    def test_package_reexports_facade(self):
        import repro
        import repro.api as api

        assert repro.analyze is api.analyze
        assert repro.AnalysisSession is api.AnalysisSession
        assert repro.ICPConfig is api.ICPConfig

    def test_analyze_program_is_quiet_alias(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            from repro.api import analyze, analyze_program
        assert analyze_program is analyze

    def test_core_package_alias_is_quiet(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            from repro.core import analyze_program  # noqa: F401

    def test_analyze_works_through_facade(self):
        from repro.api import analyze

        result = analyze("proc main() { call f(3); } proc f(a) { print(a); }")
        assert ("f", "a") in result.fs_constant_formals()


class TestConfigRoundTrip:
    def test_round_trip(self):
        config = ICPConfig(cache=True, engine="simple", propagate_floats=False)
        assert ICPConfig.from_dict(config.to_dict()) == config

    def test_default_round_trip(self):
        assert ICPConfig.from_dict(ICPConfig().to_dict()) == ICPConfig()

    def test_unknown_key_raises(self):
        with pytest.raises(ValueError, match="unknown ICPConfig keys.*worker"):
            ICPConfig.from_dict({"worker": 2})

    def test_bad_engine_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            ICPConfig.from_dict({"engine": "magic"})

    @pytest.mark.parametrize(
        "data", [{"workers": 2}, {"executor": "thread"}, {"diag_sarif": True}],
        ids=["workers", "executor", "diag_sarif"],
    )
    def test_removed_pool_keys_rejected(self, data):
        # The worker pool's two keys and diag_sarif, which no flag could
        # set, are gone: unknown keys now.
        with pytest.raises(ConfigError) as error:
            ICPConfig.from_dict(data)
        message = str(error.value)
        assert message.startswith(f"unknown ICPConfig keys: {sorted(data)}; ")
        assert "\n" not in message

    def test_empty_entry_rejected(self):
        with pytest.raises(ValueError, match="entry"):
            ICPConfig.from_dict({"entry": ""})

    def test_serve_shard_knobs_round_trip(self):
        config = ICPConfig.from_dict(
            {"serve_shards": 4, "serve_rebalance": 0.25}
        )
        assert config.serve_shards == 4
        assert ICPConfig.from_dict(config.to_dict()) == config

    def test_bad_serve_shards_rejected(self):
        with pytest.raises(ValueError, match="serve_shards"):
            ICPConfig.from_dict({"serve_shards": -1})
        with pytest.raises(ValueError, match="serve_shards"):
            ICPConfig.from_dict({"serve_shards": True})

    def test_bad_serve_rebalance_rejected(self):
        with pytest.raises(ValueError, match="serve_rebalance"):
            ICPConfig.from_dict({"serve_rebalance": 0})
        with pytest.raises(ValueError, match="serve_rebalance"):
            ICPConfig.from_dict({"serve_rebalance": "fast"})


#: A value of the wrong type for each annotation (``bool`` is not an int).
WRONG_TYPE = {bool: "false", int: True, float: True, str: 0}


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_every_key_is_type_checked(name):
    wrong = WRONG_TYPE.get(HINTS[name], 0)
    with pytest.raises(ValueError, match=name):
        ICPConfig.from_dict({name: wrong})
    default = FIELDS[name].default
    assert getattr(ICPConfig.from_dict({name: default}), name) == default


def render_key_table():
    """The docs/API.md key table, rendered from ICPConfig's fields."""
    rows = [
        "| Key | Type | Default | Allowed | Meaning |",
        "|---|---|---|---|---|",
    ]
    for name, spec in FIELDS.items():
        meta = spec.metadata
        allowed = [f"`{choice}`" for choice in meta.get("choices", ())]
        allowed += [
            f"{op} {meta[bound]}"
            for op, bound in (("≥", "min"), ("≤", "max"), (">", "above"))
            if bound in meta
        ]
        rows.append(
            f"| `{name}` | `{spec.type}` | `{spec.default!r}` "
            f"| {', '.join(allowed)} | {meta['help']} |"
        )
    return "\n".join(rows)


def test_api_doc_key_table_matches_the_fields():
    path = os.path.join(os.path.dirname(__file__), "..", "..", "docs", "API.md")
    with open(path, encoding="utf-8") as handle:
        doc = handle.read()
    begin, end = "<!-- config-keys:begin -->\n", "\n<!-- config-keys:end -->"
    block = doc[doc.index(begin) + len(begin):doc.index(end)]
    expected = render_key_table()
    assert block == expected, f"docs/API.md key table should read:\n{expected}"
