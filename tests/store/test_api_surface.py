"""The redesigned store API surface: facade helpers and config keys."""

import pytest

import repro
from repro.api import ICPConfig, connect_store, open_store
from repro.sched.cache import SummaryCache
from repro.store import PersistentCache, RemoteStore


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
            open_store({"store_remote_url": "http://127.0.0.1:1"})


class TestConnectStore:
    def test_returns_remote_client(self):
        remote = connect_store("http://127.0.0.1:8200")
        assert isinstance(remote, RemoteStore)
        assert remote.url == "http://127.0.0.1:8200"

    def test_names_reexported_at_top_level(self):
        for name in (
            "open_store",
            "connect_store",
            "PersistentCache",
            "RemoteStore",
            "SummaryStore",
        ):
            assert hasattr(repro, name), name


class TestConfigKeys:
    def test_round_trip(self, tmp_path):
        data = {
            "store_dir": str(tmp_path / "s"),
            "store_max_bytes": 1024,
            "store_remote_url": "http://127.0.0.1:8200",
            "store_remote_timeout_ms": 100,
        }
        config = ICPConfig.from_dict(data)
        assert config.store_remote_url == "http://127.0.0.1:8200"
        assert config.store_remote_timeout_ms == 100
        assert ICPConfig.from_dict(config.to_dict()) == config

    def test_defaults_keep_remote_off(self):
        config = ICPConfig()
        assert config.store_remote_url is None
        assert config.store_remote_timeout_ms == 250

    def test_remote_url_requires_store_dir(self):
        with pytest.raises(ValueError, match="store_dir"):
            ICPConfig.from_dict(
                {"store_remote_url": "http://127.0.0.1:8200"}
            )

    def test_remote_url_must_be_http(self, tmp_path):
        with pytest.raises(ValueError, match="http"):
            ICPConfig.from_dict(
                {
                    "store_dir": str(tmp_path / "s"),
                    "store_remote_url": "tcp://127.0.0.1:8200",
                }
            )

    def test_timeout_must_be_positive_int(self, tmp_path):
        base = {
            "store_dir": str(tmp_path / "s"),
            "store_remote_url": "http://127.0.0.1:8200",
        }
        for bad in (0, -5, True, "250"):
            with pytest.raises(ValueError):
                ICPConfig.from_dict(
                    {**base, "store_remote_timeout_ms": bad}
                )
