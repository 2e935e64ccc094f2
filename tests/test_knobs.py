"""Environment knobs: the ratchet on which ones exist, and the federation
timing and in-flight knobs' validation (none of these tests opens a
socket)."""

from __future__ import annotations

import math
import pathlib
import re

import numpy as np
import pytest

from repro.cli import build_parser
from repro.cli import main as cli_main
from repro.experiments import facade
from repro.net.service import AggregatorService, RemoteBackend, env_inflight, env_seconds
from repro.parallel import ProcessPoolBackend

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"

#: every environment variable the library reads; adding or dropping one
#: edits this set in the same change
KNOBS = {
    "REPRO_BACKEND",
    "REPRO_BACKEND_ADDRESS",
    "REPRO_MAX_WORKERS",
    "REPRO_STREAMING",
    "REPRO_NET_HEARTBEAT",
    "REPRO_NET_HEARTBEAT_TIMEOUT",
    "REPRO_NET_INFLIGHT",
    "REPRO_NET_WORKER_TIMEOUT",
}

BAD_SECONDS = (0.0, -1.0, math.nan, math.inf)

#: in-flight caps and batch sizes the scheduler cannot use: below 1,
#: fractional, not a count
BAD_COUNTS = (0, -3, 2.7, math.nan, math.inf, True)


def test_src_reads_exactly_the_listed_knobs():
    found = {
        name
        for path in SRC.rglob("*.py")
        for name in re.findall(r"REPRO_[A-Z_]+", path.read_text())
    }
    assert found == KNOBS


class TestNetTimingKnobs:
    @pytest.mark.parametrize("value", BAD_SECONDS)
    @pytest.mark.parametrize("param", ("heartbeat_interval", "heartbeat_timeout"))
    def test_constructor_refuses_non_positive_or_non_finite(self, param, value):
        with pytest.raises(ValueError, match=param):
            AggregatorService("127.0.0.1:0", **{param: value})

    @pytest.mark.parametrize("value", BAD_COUNTS)
    def test_constructor_refuses_an_unusable_inflight_cap(self, value):
        with pytest.raises(ValueError, match="inflight_cap"):
            AggregatorService("127.0.0.1:0", inflight_cap=value)

    @pytest.mark.parametrize("value", BAD_COUNTS)
    def test_constructors_refuse_an_unusable_batch(self, value):
        with pytest.raises(ValueError, match="batch_limit"):
            AggregatorService("127.0.0.1:0", batch_limit=value)
        with pytest.raises(ValueError, match="job_batch"):
            RemoteBackend(job_batch=value)
        with pytest.raises(ValueError, match="job_batch"):
            ProcessPoolBackend(workers=1, job_batch=value)

    def test_constructors_keep_a_valid_batch(self):
        assert AggregatorService("127.0.0.1:0").batch_limit == 1
        assert AggregatorService("127.0.0.1:0", batch_limit=3).batch_limit == 3
        assert RemoteBackend(job_batch=np.int64(2)).job_batch == 2
        assert ProcessPoolBackend(workers=1, job_batch=4).job_batch == 4

    def test_constructor_keeps_valid_values(self):
        svc = AggregatorService(
            "127.0.0.1:0", heartbeat_interval=0.25, heartbeat_timeout=2.0,
            inflight_cap=3,
        )
        assert (svc.heartbeat_interval, svc.heartbeat_timeout) == (0.25, 2.0)
        assert svc.inflight_cap == 3

    @pytest.mark.parametrize("raw", ("soon", "0", "-1", "nan", "inf"))
    @pytest.mark.parametrize("name", (
        "REPRO_NET_HEARTBEAT",
        "REPRO_NET_HEARTBEAT_TIMEOUT",
        "REPRO_NET_WORKER_TIMEOUT",
    ))
    def test_environment_names_the_variable(self, monkeypatch, name, raw):
        monkeypatch.setenv(name, raw)
        with pytest.raises(ValueError, match=name):
            env_seconds(name)

    @pytest.mark.parametrize("raw", ("soon", "0", "-3", "2.7", "nan", "inf"))
    def test_inflight_environment_names_the_variable(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_NET_INFLIGHT", raw)
        with pytest.raises(ValueError, match="REPRO_NET_INFLIGHT"):
            env_inflight()
        with pytest.raises(ValueError, match="REPRO_NET_INFLIGHT"):
            AggregatorService("127.0.0.1:0")

    def test_inflight_environment_reaches_the_service(self, monkeypatch):
        monkeypatch.delenv("REPRO_NET_INFLIGHT", raising=False)
        assert AggregatorService("127.0.0.1:0").inflight_cap == 4
        monkeypatch.setenv("REPRO_NET_INFLIGHT", " 6 ")
        assert AggregatorService("127.0.0.1:0").inflight_cap == 6

    def test_environment_reaches_the_service(self, monkeypatch):
        monkeypatch.delenv("REPRO_NET_HEARTBEAT", raising=False)
        monkeypatch.setenv("REPRO_NET_HEARTBEAT_TIMEOUT", "2.5")
        svc = AggregatorService("127.0.0.1:0")
        assert (svc.heartbeat_interval, svc.heartbeat_timeout) == (1.0, 2.5)
        monkeypatch.setenv("REPRO_NET_HEARTBEAT_TIMEOUT", "soon")
        with pytest.raises(ValueError, match="REPRO_NET_HEARTBEAT_TIMEOUT"):
            AggregatorService("127.0.0.1:0")

    @pytest.mark.parametrize("raw", ("0", "-1", "nan", "inf", "soon"))
    @pytest.mark.parametrize("flag", (
        "--heartbeat-interval", "--heartbeat-timeout", "--worker-timeout",
    ))
    def test_serve_flags_refused_by_argparse(self, capsys, flag, raw):
        parser = build_parser()
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(["serve", "--address", "127.0.0.1:0", flag, raw])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        args = parser.parse_args(["serve", "--address", "127.0.0.1:0", flag, "0.5"])
        assert getattr(args, flag[2:].replace("-", "_")) == 0.5

    def test_serve_exits_2_on_a_bad_environment_value(self, monkeypatch, capsys):
        def listen(self):
            raise AssertionError("the aggregator listened")

        monkeypatch.setattr(AggregatorService, "start", listen)
        for name, raw in (
            ("REPRO_NET_WORKER_TIMEOUT", "-5"),
            ("REPRO_NET_INFLIGHT", "inf"),
            ("REPRO_NET_INFLIGHT", "0"),
        ):
            with monkeypatch.context() as env:
                env.setenv(name, raw)
                rc = cli_main(["serve", "--address", "127.0.0.1:0", "--clients", "6"])
            assert rc == 2
            assert name in capsys.readouterr().err


class TestBackendKnobs:
    @pytest.mark.parametrize("env", (
        {"REPRO_BACKEND": "thread"},
        {"REPRO_BACKEND": "quantum"},
        {"REPRO_BACKEND": "process", "REPRO_MAX_WORKERS": "abc"},
    ), ids=("thread", "quantum", "max-workers-abc"))
    @pytest.mark.parametrize("command", ("run", "runtime", "compare", "sweep"))
    def test_runs_exit_2_on_a_bad_environment_value(self, monkeypatch, capsys,
                                                     command, env):
        def load(*args, **kwargs):
            raise AssertionError("a dataset loaded")

        monkeypatch.setattr(facade, "load_federated_dataset", load)
        for name, raw in env.items():
            monkeypatch.setenv(name, raw)
        grid = ["--grid", "config.seed=0,1"] if command == "sweep" else []
        rc = cli_main([command, "--clients", "6", "--rounds", "1", "--scale", "0.3",
                       *grid])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert list(env)[-1] in err

    @pytest.mark.parametrize("argv, needle", (
        (["runtime", "--backend", "thread"], "--backend"),
        (["sweep", "--grid", "config.seed=0,1", "--backend", "thread"], "--backend"),
        (["run", "--set", "runtime.backend=thread"], "unknown backend 'thread'"),
    ), ids=("runtime-flag", "sweep-flag", "run-set"))
    def test_thread_backend_name_is_refused(self, monkeypatch, capsys, argv, needle):
        """The removed thread backend's name fails through the errors that
        already guard the backend registry: argparse's choices for the
        flags, spec validation for a dotted override."""
        def load(*args, **kwargs):
            raise AssertionError("a dataset loaded")

        monkeypatch.setattr(facade, "load_federated_dataset", load)
        try:
            rc = cli_main([*argv, "--clients", "6", "--rounds", "1", "--scale", "0.3"])
        except SystemExit as exc:
            rc = exc.code
        assert rc == 2
        assert needle in capsys.readouterr().err
