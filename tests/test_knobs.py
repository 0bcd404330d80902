"""The knob table, the one backoff, and the docs that describe them."""

import os
import random
import re

import pytest

from repro import knobs
from repro.backoff import backoff_s
from repro.campaign import CampaignConfig
from repro.service import ServiceConfig

NUMERIC = [k for k in knobs.TABLE.values() if k.kind in (int, float)]
FLAGS = [k for k in knobs.TABLE.values() if k.kind is bool]
TEXT = [k for k in knobs.TABLE.values() if k.kind is str]


def _boundary(knob):
    """The smallest accepted value."""
    if knob.ge is not None:
        return knob.ge
    return knob.gt + (1 if knob.kind is int else 0.001)


def _below(knob):
    """The largest rejected value under the lower bound."""
    return knob.gt if knob.gt is not None else knob.ge - 1


class TestTable:
    def test_every_row_is_well_formed(self):
        assert len(NUMERIC) + len(FLAGS) + len(TEXT) == len(knobs.TABLE)
        for name, knob in knobs.TABLE.items():
            assert name == knob.name and name.startswith("OMBPY_")
            if knob.kind in (int, float):
                assert (knob.gt is None) != (knob.ge is None), name
                if knob.default is not None:
                    knob.check(knob.default)
        assert not set(knobs.WIRING) & set(knobs.TABLE)

    @pytest.mark.parametrize("knob", NUMERIC, ids=lambda k: k.name)
    def test_numeric_row(self, knob, monkeypatch):
        monkeypatch.delenv(knob.name, raising=False)
        assert knobs.read(knob) == knob.default
        monkeypatch.setenv(knob.name, "")
        assert knobs.read(knob) == knob.default

        monkeypatch.setenv(knob.name, str(_boundary(knob)))
        value = knobs.read(knob)
        assert value == _boundary(knob) and type(value) is knob.kind

        for bad in ("abc", "nan", str(_below(knob))):
            monkeypatch.setenv(knob.name, bad)
            with pytest.raises(ValueError) as err:
                knobs.read(knob)
            # Names the variable, the accepted range and the offender.
            assert knob.name in str(err.value)
            assert knob.accepted() in str(err.value)
            assert bad in str(err.value)
        if knob.le is not None:
            monkeypatch.setenv(knob.name, str(knob.le + 1))
            with pytest.raises(ValueError, match=knob.name):
                knobs.read(knob)
        if knob.kind is int:
            monkeypatch.setenv(knob.name, "2.5")
            with pytest.raises(ValueError, match="an integer"):
                knobs.read(knob)

    @pytest.mark.parametrize("knob", FLAGS, ids=lambda k: k.name)
    def test_flag_row(self, knob, monkeypatch):
        for raw, expected in ((None, False), ("", False), ("0", False),
                              ("1", True), ("yes", True)):
            if raw is None:
                monkeypatch.delenv(knob.name, raising=False)
            else:
                monkeypatch.setenv(knob.name, raw)
            assert knobs.flag(knob) is expected

    def test_text_rows(self, monkeypatch):
        for knob in TEXT:
            monkeypatch.delenv(knob.name, raising=False)
            assert knobs.read(knob) is None
            monkeypatch.setenv(knob.name, "  ")
            assert knobs.read(knob) is None
            monkeypatch.setenv(knob.name, " ring ")
            assert knobs.read(knob) == "ring"

    def test_forced_collective_must_name_an_algorithm(self):
        import subprocess
        import sys

        env = dict(os.environ, OMBPY_COLL_ALLREDUCE="fastest")
        proc = subprocess.run(
            [sys.executable, "-c", "import repro.mpi.collectives.selector"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode != 0
        assert "OMBPY_COLL_ALLREDUCE must be one of" in proc.stderr
        assert "recursive_doubling" in proc.stderr


@pytest.mark.parametrize("cls", [ServiceConfig, CampaignConfig])
class TestKnobConfig:
    def test_fields_are_table_rows(self, cls, monkeypatch):
        for name in knobs.TABLE:
            monkeypatch.delenv(name, raising=False)
        import dataclasses

        config = cls.from_env()
        assert config == cls()
        for f in dataclasses.fields(cls):
            assert getattr(config, f.name) == f.metadata["knob"].default

    def test_env_read_override_wins_bad_value_named(self, cls, monkeypatch):
        import dataclasses

        for f in dataclasses.fields(cls):
            knob = f.metadata["knob"]
            good = _boundary(knob)
            monkeypatch.setenv(knob.name, str(good))
            assert getattr(cls.from_env(), f.name) == good
            # Malformed: fails naming the variable, unless overridden —
            # then the variable is not consulted at all.
            monkeypatch.setenv(knob.name, "bogus")
            with pytest.raises(ValueError, match=knob.name):
                cls.from_env()
            assert getattr(cls.from_env(**{f.name: good}), f.name) == good
            # Out-of-range override or constructor argument: names both.
            for build in (cls.from_env, cls):
                with pytest.raises(ValueError) as err:
                    build(**{f.name: _below(knob)})
                assert f.name in str(err.value)
                assert knob.name in str(err.value)
            monkeypatch.delenv(knob.name)


class TestBackoff:
    @pytest.mark.parametrize("base,cap,jitter", [
        pytest.param(0.1, 5.0, None, id="service-retry"),
        pytest.param(0.25, 10.0, (0.5, 1.5), id="campaign-retry"),
        pytest.param(0.05, 2.0, (0.5, 1.5), id="client-connect"),
        pytest.param(0.005, 0.25, (0.5, 1.0), id="fabric-dial"),
        pytest.param(0.05, 1.0, (0.9, 1.2), id="reliable-rto"),
    ])
    def test_doubles_to_the_cap_inside_the_jitter_band(self, base, cap,
                                                       jitter):
        nominal = [backoff_s(n, base, cap) for n in range(1, 40)]
        assert nominal[0] == base and nominal[1] == 2 * base
        assert nominal == sorted(nominal) and nominal[-1] == cap
        assert backoff_s(0, base, cap) == base          # clamped, not halved
        assert backoff_s(10_000, base, cap) == cap      # no float overflow
        if jitter is None:
            return
        lo, hi = jitter
        rng = random.Random(7)
        for n, plain in enumerate(nominal, start=1):
            assert lo * plain <= backoff_s(n, base, cap, jitter, rng) \
                <= hi * plain
        # A seeded generator reproduces the schedule; the default one
        # (module-level ``random``) still stays inside the band.
        again = [backoff_s(n, base, cap, jitter, random.Random(3))
                 for n in range(1, 6)]
        assert again == [backoff_s(n, base, cap, jitter, random.Random(3))
                         for n in range(1, 6)]
        assert lo * cap <= backoff_s(99, base, cap, jitter) <= hi * cap


class TestDocsDoNotDrift:
    ROOT = os.path.join(os.path.dirname(__file__), os.pardir)

    def _documented(self):
        paths = [os.path.join(self.ROOT, "README.md")]
        docs = os.path.join(self.ROOT, "docs")
        paths += [os.path.join(docs, name) for name in sorted(os.listdir(docs))
                  if name.endswith(".md")]
        found = {}
        for path in paths:
            with open(path, encoding="utf-8") as fh:
                for token in re.findall(r"OMBPY_[A-Z0-9_]+", fh.read()):
                    found.setdefault(token, os.path.relpath(path, self.ROOT))
        return found

    def test_docs_name_only_known_variables_and_all_of_them(self):
        known = set(knobs.TABLE) | set(knobs.WIRING)
        documented = self._documented()
        unknown = {
            token: where for token, where in documented.items()
            # ``OMBPY_HB_*`` / ``OMBPY_COLL_<OP>`` style families are
            # fine as long as some known name starts with them.
            if token not in known and not (
                token.endswith("_")
                and any(name.startswith(token) for name in known)
            )
        }
        assert not unknown, f"documented but not in repro.knobs: {unknown}"
        missing = sorted(known - set(documented))
        assert not missing, f"in repro.knobs but in no doc: {missing}"
