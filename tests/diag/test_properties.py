"""Property tests for the diag config keys and finding invariants."""

from hypothesis import given, settings, strategies as st

from repro.core.config import ICPConfig
from repro.diag.findings import RULES, SEVERITIES, Finding

rule_ids = st.sampled_from(sorted(RULES))

diag_payloads = st.fixed_dictionaries(
    {},
    optional={
        "diag_rules": st.one_of(
            st.none(), st.lists(rule_ids, max_size=len(RULES))
        ),
        "diag_severity_floor": st.sampled_from(SEVERITIES),
    },
)


class TestConfigRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(payload=diag_payloads)
    def test_from_dict_to_dict_fixpoint(self, payload):
        config = ICPConfig.from_dict(payload)
        assert ICPConfig.from_dict(config.to_dict()) == config

    @settings(max_examples=60, deadline=None)
    @given(payload=diag_payloads)
    def test_requested_rules_survive(self, payload):
        config = ICPConfig.from_dict(payload)
        requested = payload.get("diag_rules")
        if requested is None:
            assert config.diag_rules is None
        else:
            assert config.diag_rules == tuple(sorted(set(requested)))
        assert config.diag_severity_floor == payload.get(
            "diag_severity_floor", "note"
        )


class TestFindingInvariants:
    findings = st.builds(
        Finding,
        rule_id=rule_ids,
        severity=st.sampled_from(SEVERITIES),
        message=st.text(min_size=1, max_size=40),
        proc=st.text(
            alphabet=st.characters(whitelist_categories=("Ll",)), max_size=8
        ),
        line=st.integers(min_value=0, max_value=500),
        column=st.integers(min_value=0, max_value=80),
    )

    @settings(max_examples=60, deadline=None)
    @given(finding=findings)
    def test_fingerprint_ignores_position(self, finding):
        from dataclasses import replace

        moved = replace(finding, line=finding.line + 7, column=3)
        assert moved.fingerprint == finding.fingerprint

    @settings(max_examples=60, deadline=None)
    @given(a=findings, b=findings)
    def test_sort_key_is_total_and_stable(self, a, b):
        assert (a.sort_key() < b.sort_key()) == (
            not b.sort_key() <= a.sort_key()
        )
        if a == b:
            assert a.fingerprint == b.fingerprint
