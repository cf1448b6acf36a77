"""End-to-end tests for the experiment service over real sockets.

These boot a :class:`~repro.serve.ServeDaemon` on an ephemeral port and
drive it with :class:`~repro.serve.ServeClient` and the ``repro
submit`` / ``repro jobs`` CLI verbs.  The load-bearing assertion is the
service's core contract: a sweep submitted over HTTP produces a store
digest byte-identical to the same sweep executed in-process — pinned
here at both the library level and the CLI level.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments.sweep import SweepSpec, execute_sweep
from repro.serve import ServeClient, ServeDaemon, ServeError
from repro.store import RunStore

SWEEP = SweepSpec(
    algorithms=("known_k_full",),
    grid=((12, 3),),
    schedulers=("sync",),
    trials=2,
    base_seed=0,
)


@pytest.fixture()
def daemon(tmp_path):
    served = ServeDaemon(
        str(tmp_path / "store"), port=0, workers=1, quiet=True
    )
    served.start()
    try:
        yield served
    finally:
        served.stop()


@pytest.fixture()
def client(daemon):
    return ServeClient(daemon.url, timeout=10.0)


class TestOverHttp:
    def test_health_and_registry(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["records"] == 0
        names = [entry["name"] for entry in client.registry()["algorithms"]]
        assert "known_k_full" in names

    def test_http_sweep_digest_matches_library(self, tmp_path, client):
        # Baseline: the same sweep, run in-process into a fresh store.
        baseline = RunStore(tmp_path / "baseline")
        execute_sweep(SWEEP, processes=1, store=baseline)

        job = client.submit("sweep", SWEEP.to_dict())
        done = client.wait(job["id"], poll=0.05, timeout=60.0)
        assert done["state"] == "completed", done.get("error")
        assert done["result"]["executed"] == len(baseline)

        remote = client.digest()
        assert remote["records"] == len(baseline)
        assert remote["digest"] == baseline.digest()

    def test_wait_surfaces_progress(self, client):
        polled = []
        job = client.submit("sweep", SWEEP.to_dict())
        done = client.wait(
            job["id"], poll=0.05, timeout=60.0,
            on_progress=lambda j: polled.append(j["state"]),
        )
        assert done["state"] == "completed"
        assert polled  # every poll went through the callback
        assert done["progress"]["total"] == 2

    def test_runs_pagination_over_http(self, client):
        job = client.submit("sweep", SWEEP.to_dict())
        client.wait(job["id"], poll=0.05, timeout=60.0)
        page = client.runs(limit=1)
        assert page["total"] == 2 and len(page["runs"]) == 1
        record = client.run(page["runs"][0]["content_hash"][:12])
        assert record["content_hash"] == page["runs"][0]["content_hash"]

    def test_structured_errors_reach_the_client(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.submit("sweep", {"bogus": True})
        assert excinfo.value.status == 400
        assert excinfo.value.code == "bad_request"
        assert "invalid sweep spec" in str(excinfo.value)
        with pytest.raises(ServeError) as excinfo:
            client.run("ffff")
        assert excinfo.value.status == 404
        assert excinfo.value.code == "not_found"

    def test_failure_artifacts_over_http(self, daemon, client):
        daemon.store.failures.put(
            "b" * 64, {"content_hash": "b" * 64, "kind": "synthetic"}
        )
        listing = client.failures()
        assert listing == {"total": 1, "failures": ["b" * 64]}
        assert client.failure("bb")["kind"] == "synthetic"

    def test_unreachable_service_is_a_repro_error(self):
        from repro.errors import ReproError

        lonely = ServeClient("http://127.0.0.1:9", timeout=0.5)
        with pytest.raises(ReproError, match="cannot reach"):
            lonely.health()


class TestCliAgainstDaemon:
    def test_submit_wait_digest_identical_to_psweep(
        self, tmp_path, daemon, capsys
    ):
        # CLI baseline: `repro psweep` with the flag-level equivalent of
        # SWEEP into its own store, digest read back via `repro query`.
        baseline_store = tmp_path / "baseline"
        assert main([
            "psweep", "--algorithms", "known_k_full", "--grid", "12x3",
            "--schedulers", "sync", "--trials", "2", "--seed", "0",
            "--jobs", "1", "--store", str(baseline_store),
        ]) == 0
        capsys.readouterr()
        assert main([
            "query", "--store", str(baseline_store), "--digest"
        ]) == 0
        baseline_digest = capsys.readouterr().out.strip()
        assert len(baseline_digest) == 64

        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps(SWEEP.to_dict()))
        assert main([
            "submit", "--url", daemon.url, "--kind", "sweep",
            "--spec", str(spec_path), "--wait", "--poll", "0.05",
        ]) == 0
        out = capsys.readouterr().out
        assert "completed" in out

        assert main([
            "query", "--store", str(daemon.store.root), "--digest"
        ]) == 0
        assert capsys.readouterr().out.strip() == baseline_digest

    def test_submit_without_wait_then_jobs_verb(
        self, tmp_path, daemon, capsys
    ):
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps(SWEEP.to_dict()))
        assert main([
            "submit", "--url", daemon.url, "--kind", "sweep",
            "--spec", str(spec_path),
        ]) == 0
        submitted = capsys.readouterr().out
        assert "submitted job-" in submitted
        job_id = submitted.split()[1]

        client = ServeClient(daemon.url)
        client.wait(job_id, poll=0.05, timeout=60.0)

        assert main(["jobs", "--url", daemon.url]) == 0
        table = capsys.readouterr().out
        assert job_id in table and "completed" in table

        assert main(["jobs", "--url", daemon.url, job_id, "--json"]) == 0
        detail = json.loads(capsys.readouterr().out)
        assert detail["id"] == job_id
        assert detail["state"] == "completed"

    def test_submit_invalid_spec_fails_cleanly(
        self, tmp_path, daemon, capsys
    ):
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(json.dumps({"bogus": True}))
        code = main([
            "submit", "--url", daemon.url, "--kind", "sweep",
            "--spec", str(spec_path),
        ])
        assert code != 0
        err = capsys.readouterr().err
        assert "invalid sweep spec" in err

    def test_submit_processes_only_for_kinds_that_take_it(
        self, tmp_path, capsys
    ):
        # Refused before any request: the URL is never contacted.
        spec_path = tmp_path / "fuzz.json"
        spec_path.write_text("{}")
        code = main([
            "submit", "--url", "http://127.0.0.1:9", "--kind", "fuzz",
            "--spec", str(spec_path), "--processes", "4",
        ])
        assert code == 2
        assert "fuzz jobs do not take" in capsys.readouterr().err


class TestForegroundShutdown:
    """``repro serve`` stops cleanly on SIGINT and SIGTERM, even when it
    starts with SIGINT ignored, as a background job of a
    non-interactive shell does."""

    @pytest.mark.parametrize(
        "signum", [signal.SIGINT, signal.SIGTERM], ids=["SIGINT", "SIGTERM"]
    )
    def test_signal_stops_a_daemon_started_with_sigint_ignored(
        self, tmp_path, signum
    ):
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--store",
             str(tmp_path / "store"), "--port", "0", "--quiet"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN),
        )
        try:
            banner = process.stdout.readline()
            assert "repro serve: store" in banner, banner
            url = banner.rsplit(" ", 1)[1].strip()
            assert ServeClient(url, timeout=10.0).health()["status"] == "ok"
            process.send_signal(signum)
            out, _ = process.communicate(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
        assert process.returncode == 0, out
        assert "repro serve: shutting down" in out
