"""The redesigned store API surface: facade helpers and config keys."""

import pytest

import repro
from repro.api import ICPConfig, open_store
from repro.sched.cache import SummaryCache
from repro.store import PersistentCache


class TestOpenStore:
    def test_none_config_is_no_store(self):
        assert open_store() is None
        assert open_store(None) is None

    def test_plain_mapping_accepted(self, tmp_path):
        cache = open_store({"store_dir": str(tmp_path / "s")})
        assert isinstance(cache, PersistentCache)

    def test_icpconfig_accepted(self, tmp_path):
        config = ICPConfig.from_dict({"store_dir": str(tmp_path / "s")})
        assert isinstance(open_store(config), PersistentCache)

    def test_cache_only_config_is_memory_tier(self):
        cache = open_store({"cache": True})
        assert isinstance(cache, SummaryCache)
        assert not isinstance(cache, PersistentCache)

    def test_storeless_config_is_none(self):
        assert open_store({}) is None

    def test_invalid_mapping_raises(self):
        with pytest.raises(ValueError):
            open_store({"store_max_bytes": 0})


class TestTopLevelExports:
    def test_names_reexported_at_top_level(self):
        for name in ("open_store", "PersistentCache", "SummaryStore"):
            assert hasattr(repro, name), name


class TestConfigKeys:
    def test_round_trip(self, tmp_path):
        data = {"store_dir": str(tmp_path / "s"), "store_max_bytes": 1024}
        config = ICPConfig.from_dict(data)
        assert config.store_max_bytes == 1024
        assert ICPConfig.from_dict(config.to_dict()) == config
