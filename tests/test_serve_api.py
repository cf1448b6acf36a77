"""Socketless tests for the experiment service's API layer.

:class:`repro.serve.api.ServeApi` maps ``(method, path, query, body)``
to ``(status, payload)`` with no HTTP anywhere, so every route — happy
path, 404/400/405, ambiguous prefixes, malformed bodies — is pinned
here without binding a port.  The HTTP shell gets its own (smaller)
suite in ``test_serve_http.py``.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.campaign import CampaignSpec
from repro.cli import main
from repro.experiments.runner import run_experiment
from repro.experiments.sweep import SweepSpec
from repro.fuzz import FuzzSpec
from repro.serve import JobManager, ServeApi
from repro.spec import ExperimentSpec, PlacementSpec
from repro.store import RunStore


def _spec(algorithm="known_k_full", seed=1, scheduler="sync", n=18, k=3):
    return ExperimentSpec(
        algorithm=algorithm,
        placement=PlacementSpec(
            kind="random", ring_size=n, agent_count=k, seed=seed
        ),
        scheduler=scheduler,
        scheduler_seed=seed ^ 0xBEEF,
    )


def _with_section(document, section, **changes):
    """``document`` with keys of its ``section`` replaced."""
    return dict(document, **{section: dict(document[section], **changes)})


def _sweep() -> SweepSpec:
    return SweepSpec(
        algorithms=("known_k_full",),
        grid=((12, 3),),
        schedulers=("sync",),
        trials=2,
        base_seed=0,
    )


def _fuzz() -> FuzzSpec:
    """wake_race on random n=16 k=4: the budget finds its defect."""
    return FuzzSpec(
        algorithm="wake_race",
        placement=PlacementSpec(
            kind="random", ring_size=16, agent_count=4, seed=0
        ),
        budget=300,
        seed=0,
        placements=4,
    )


def _campaign() -> CampaignSpec:
    """A one-worker sweep campaign over 4 cells."""
    return CampaignSpec(
        kind="sweep",
        sweep=SweepSpec(
            algorithms=("known_k_full",),
            grid=((12, 3), (16, 4)),
            schedulers=("sync",),
            trials=2,
            base_seed=0,
        ),
        workers=1,
    )


@pytest.fixture()
def api(tmp_path):
    store = RunStore(tmp_path / "store")
    jobs = JobManager(str(tmp_path / "store"), workers=1)
    try:
        yield ServeApi(store, jobs)
    finally:
        jobs.shutdown(timeout=2.0)


def _wait_for(api, job_id, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, job = api.handle("GET", f"/v1/jobs/{job_id}")
        assert status == 200
        if job["state"] in ("completed", "failed"):
            return job
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} did not finish: {job}")


def _submit(api, kind, spec, options=None):
    body = json.dumps(
        {"kind": kind, "spec": spec, "options": options or {}}
    ).encode()
    return api.handle("POST", "/v1/jobs", body=body)


class TestReadEndpoints:
    def test_health(self, api):
        status, payload = api.handle("GET", "/v1/health")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["records"] == 0
        assert payload["jobs"] == {}

    def test_registry_dump(self, api):
        status, payload = api.handle("GET", "/v1/registry")
        assert status == 200
        names = [entry["name"] for entry in payload["algorithms"]]
        assert "known_k_full" in names
        assert payload["schedulers"]

    def test_digest_matches_store(self, api):
        spec = _spec(seed=2)
        api.store.put(run_experiment(spec).to_record(spec))
        status, payload = api.handle("GET", "/v1/store/digest")
        assert status == 200
        assert payload == {"digest": api.store.digest(), "records": 1}

    def test_runs_query_filters_and_pagination(self, api):
        for seed, algorithm in enumerate(
            ("known_k_full", "known_k_full", "unknown")
        ):
            spec = _spec(algorithm=algorithm, seed=seed)
            api.store.put(run_experiment(spec).to_record(spec))
        status, payload = api.handle(
            "GET", "/v1/runs", {"algorithm": "known_k_full"}
        )
        assert status == 200
        assert payload["total"] == 2
        assert len(payload["runs"]) == 2
        status, page = api.handle("GET", "/v1/runs", {"limit": "1"})
        assert status == 200
        assert page["total"] == 3 and len(page["runs"]) == 1
        status, rest = api.handle(
            "GET", "/v1/runs", {"limit": "5", "offset": "1"}
        )
        assert len(rest["runs"]) == 2
        # Pages tile the hash-ordered listing without gaps or repeats.
        assert (
            [r["content_hash"] for r in page["runs"]]
            + [r["content_hash"] for r in rest["runs"]]
            == api.store.hashes()
        )

    def test_runs_rejects_bad_parameters(self, api):
        for query in (
            {"n": "twelve"},
            {"uniform": "maybe"},
            {"limit": "0"},
            {"offset": "-1"},
            {"sched": "sync"},
        ):
            status, payload = api.handle("GET", "/v1/runs", query)
            assert status == 400
            assert payload["error"]["code"] == "bad_request"

    def test_single_run_prefix_resolution(self, api):
        spec = _spec(seed=5)
        record = run_experiment(spec).to_record(spec)
        api.store.put(record)
        status, payload = api.handle(
            "GET", f"/v1/runs/{record.content_hash[:10]}"
        )
        assert status == 200
        assert payload["content_hash"] == record.content_hash
        status, payload = api.handle("GET", "/v1/runs/ffff")
        assert status == 404
        assert payload["error"]["code"] == "not_found"

    def test_ambiguous_prefix_is_a_structured_400(self, api):
        for seed in range(40):  # pigeonhole: some 1-hex prefix repeats
            spec = _spec(seed=seed)
            api.store.put(run_experiment(spec).to_record(spec))
        firsts = [h[0] for h in api.store.hashes()]
        prefix = next(c for c in firsts if firsts.count(c) > 1)
        status, payload = api.handle("GET", f"/v1/runs/{prefix}")
        assert status == 400
        assert payload["error"]["code"] == "ambiguous_hash"
        assert payload["error"]["matches"]

    def test_failures_listing_and_fetch(self, api):
        api.store.failures.put("a" * 64, {"content_hash": "a" * 64, "kind": "x"})
        status, payload = api.handle("GET", "/v1/failures")
        assert status == 200
        assert payload == {"total": 1, "failures": ["a" * 64]}
        status, payload = api.handle("GET", "/v1/failures/aaaa")
        assert status == 200
        assert payload["kind"] == "x"
        status, payload = api.handle("GET", "/v1/failures/bbbb")
        assert status == 404

    def test_quarantine_listing(self, api):
        status, payload = api.handle("GET", "/v1/quarantine")
        assert status == 200
        assert payload == {"total": 0, "quarantine": []}

    def test_unknown_path_and_method(self, api):
        status, payload = api.handle("GET", "/v2/runs")
        assert status == 404
        status, payload = api.handle("DELETE", "/v1/runs")
        assert status == 405
        assert payload["error"]["code"] == "method_not_allowed"
        status, payload = api.handle("PUT", "/v1/jobs")
        assert status == 405


class TestJobEndpoints:
    def test_submit_sweep_runs_to_completion(self, api):
        status, job = _submit(api, "sweep", _sweep().to_dict())
        assert status == 202
        assert job["state"] in ("queued", "running")
        assert job["kind"] == "sweep"
        finished = _wait_for(api, job["id"])
        assert finished["state"] == "completed"
        assert finished["result"]["executed"] == 2
        assert finished["progress"]["total"] == 2
        # The sweep's records are in the store, visible over /v1/runs.
        status, listing = api.handle("GET", "/v1/runs")
        assert listing["total"] == 2

    def test_submit_experiment_caches_second_time(self, api):
        spec = _spec(seed=11)
        status, first = _submit(api, "experiment", spec.to_dict())
        assert status == 202
        assert _wait_for(api, first["id"])["result"]["cached"] is False
        status, second = _submit(api, "experiment", spec.to_dict())
        done = _wait_for(api, second["id"])
        assert done["result"]["cached"] is True
        assert done["result"]["content_hash"] == spec.content_hash()

    def test_jobs_listing_is_oldest_first(self, api):
        spec = _spec(seed=12)
        _submit(api, "experiment", spec.to_dict())
        _submit(api, "experiment", spec.to_dict())
        status, listing = api.handle("GET", "/v1/jobs")
        assert status == 200
        assert listing["total"] == 2
        ids = [job["id"] for job in listing["jobs"]]
        assert ids == sorted(ids)

    def test_unknown_job_is_404(self, api):
        status, payload = api.handle("GET", "/v1/jobs/job-9999-nope")
        assert status == 404

    def test_malformed_submissions_are_structured_400s(self, api):
        cases = [
            (None, "requires a JSON body"),
            (b"{not json", "not valid JSON"),
            (b'"just a string"', "must be a JSON object"),
            (b'{"kind": "sweep"}', "string 'kind' and an object 'spec'"),
            (b'{"kind": "teleport", "spec": {}}', "unknown job kind"),
            (
                json.dumps(
                    {"kind": "sweep", "spec": {"bogus": True}}
                ).encode(),
                "invalid sweep spec",
            ),
            (
                json.dumps(
                    {"kind": "sweep", "spec": {}, "options": 7}
                ).encode(),
                "'options' must be a JSON object",
            ),
            (
                json.dumps(
                    {"kind": "sweep",
                     "spec": dict(_sweep().to_dict(), max_steps=0)}
                ).encode(),
                "max_steps must be >= 1 when given",
            ),
            (
                json.dumps(
                    {"kind": "sweep",
                     "spec": dict(_sweep().to_dict(), grid=[[4, 8]])}
                ).encode(),
                "sweep grid entry (4, 8) must be an (n, k) pair of ints "
                "with 1 <= k <= n",
            ),
            (
                json.dumps(
                    {"kind": "sweep",
                     "spec": dict(_sweep().to_dict(), trials=2.9)}
                ).encode(),
                "sweep spec 'trials' must be an integer, got 2.9",
            ),
            (
                json.dumps(
                    {"kind": "sweep",
                     "spec": dict(_sweep().to_dict(), algorithms="unknown")}
                ).encode(),
                "sweep spec 'algorithms' must be a list, got 'unknown'",
            ),
            (
                json.dumps(
                    {"kind": "experiment",
                     "spec": _with_section(_spec().to_dict(), "placement",
                                           ring_size=8.0)}
                ).encode(),
                "placement spec 'ring_size' must be an integer, got 8.0",
            ),
            (
                json.dumps(
                    {"kind": "experiment",
                     "spec": _with_section(_spec().to_dict(), "engine",
                                           collect_metrics="false")}
                ).encode(),
                "experiment spec engine 'collect_metrics' must be a boolean, "
                "got 'false'",
            ),
        ]
        # Options are checked against the kind's declared ones before a
        # job exists: the 400 names the offending option.
        sweep, fuzz = _sweep().to_dict(), _fuzz().to_dict()
        option_cases = [
            ("sweep", sweep, {"resume": "false"}, "resume", "JSON boolean"),
            ("sweep", sweep, {"processes": "two"}, "processes",
             "JSON integer"),
            ("sweep", sweep, {"processes": True}, "processes",
             "JSON integer"),
            ("sweep", sweep, {"processes": 0}, "processes", "between 1 and"),
            ("sweep", sweep, {"processes": 10**6}, "processes",
             "between 1 and"),
            ("sweep", sweep, {"backend": "gpu"}, "backend",
             "one of object, batch"),
            ("sweep", sweep, {"jobs": 4}, "jobs", "unknown option 'jobs'"),
            ("fuzz", fuzz, {"processes": 2}, "processes",
             "unknown option 'processes' for fuzz jobs"),
            ("fuzz", fuzz, {"jobs": 10**6}, "jobs", "between 1 and"),
            ("fuzz", fuzz, {"shrink": 0}, "shrink", "JSON boolean"),
            ("campaign", _campaign().to_dict(), {"resume": None}, "resume",
             "JSON boolean"),
            ("experiment", _spec().to_dict(), {"resume": True}, "resume",
             "(accepted: none)"),
        ]
        for body, needle in cases:
            status, payload = api.handle("POST", "/v1/jobs", body=body)
            assert status == 400, (body, payload)
            assert needle in payload["error"]["message"], (body, payload)
        for kind, spec, options, option, needle in option_cases:
            status, payload = _submit(api, kind, spec, options)
            assert status == 400, (options, payload)
            assert payload["error"]["code"] == "bad_request", payload
            assert payload["error"]["option"] == option, payload
            assert needle in payload["error"]["message"], (options, payload)
        # Nothing reached the queue, so no pool was ever sized.
        assert api.handle("GET", "/v1/jobs")[1]["total"] == 0

    def test_valid_options_are_completed_with_defaults(self, api):
        status, job = _submit(api, "sweep", _sweep().to_dict(),
                              {"resume": False})
        assert status == 202
        assert api.jobs.get(job["id"]).options == {
            "processes": 1, "resume": False, "backend": "object",
        }
        assert _wait_for(api, job["id"])["state"] == "completed"
        # resume=False really re-executes an archived sweep.
        status, job = _submit(api, "sweep", _sweep().to_dict(),
                              {"resume": False})
        assert _wait_for(api, job["id"])["result"]["executed"] == 2

    def test_failed_job_reports_its_error(self, api):
        # A structurally valid sweep whose algorithm does not exist
        # passes spec parsing but fails at execution time.
        spec = _sweep().to_dict()
        spec["algorithms"] = ["no_such_algorithm"]
        status, job = _submit(api, "sweep", spec)
        if status == 400:  # spec layer may reject it upfront — also fine
            assert "no_such_algorithm" in job["error"]["message"]
            return
        finished = _wait_for(api, job["id"])
        assert finished["state"] == "failed"
        assert "no_such_algorithm" in finished["error"]


class TestJobOutputsPinned:
    """The final ``progress``/``result`` of each job kind, byte for byte
    where the outcome is deterministic, and the key sets otherwise.
    Job ids hash the spec, so they are pinned too."""

    def test_experiment_job(self, api):
        spec = _spec(seed=1)
        status, job = _submit(api, "experiment", spec.to_dict())
        assert job["id"] == f"job-0001-{spec.content_hash()[:12]}"
        done = _wait_for(api, job["id"])
        assert done["state"] == "completed"
        assert done["progress"] == {"executed": 1, "cached": 0}
        assert done["result"] == {
            "content_hash": spec.content_hash(),
            "cached": False,
            "row": run_experiment(spec).row(),
        }

    def test_sweep_job(self, api, tmp_path, capsys):
        status, job = _submit(api, "sweep", _sweep().to_dict())
        assert job["id"] == "job-0001-f098297a7858"
        assert job["spec_hash"] == (
            "f098297a7858ef678c1d864aa39f2802756421b06cf6bedb176515bb9d312c98"
        )
        done = _wait_for(api, job["id"])
        assert done["progress"] == {
            "done": 2, "total": 2, "executed": 2, "cached": 0,
        }
        assert done["result"] == {
            "summary": "2 cells: 2 executed, 0 cached",
            "total": 2,
            "executed": 2,
            "cached": 0,
            "records": 2,
        }
        # The HTTP sweep digests identically to the same psweep.
        baseline = str(tmp_path / "psweep")
        assert main(
            ["psweep", "--algorithms", "known_k_full", "--grid", "12x3",
             "--schedulers", "sync", "--trials", "2", "--store", baseline]
        ) == 0
        capsys.readouterr()
        status, digest = api.handle("GET", "/v1/store/digest")
        assert digest["digest"] == RunStore(baseline).digest()

    def test_fuzz_job_archives_what_repro_fuzz_archives(
        self, api, tmp_path, capsys
    ):
        spec = _fuzz()
        status, job = _submit(api, "fuzz", spec.to_dict())
        assert status == 202
        assert job["id"] == f"job-0001-{spec.content_hash()[:12]}"
        done = _wait_for(api, job["id"])
        assert done["state"] == "completed", done
        assert set(done["progress"]) == {
            "runs", "budget", "states", "patterns", "failures",
        }
        assert set(done["result"]) == {
            "summary", "runs", "steps", "states", "patterns", "complete",
            "failures",
        }
        assert done["progress"]["budget"] == 300
        assert done["progress"]["failures"] == 1
        assert done["result"]["failures"]

        spec_file = tmp_path / "fuzz.json"
        spec_file.write_text(json.dumps(spec.to_dict()))
        local = tmp_path / "local"
        assert main(
            ["fuzz", "--spec", str(spec_file), "--store", str(local)]
        ) == 1
        capsys.readouterr()
        archived = sorted(
            path.stem for path in (local / "failures").glob("*.json")
        )
        assert sorted(done["result"]["failures"]) == archived
        status, listing = api.handle("GET", "/v1/failures")
        assert listing["failures"] == archived

    def test_campaign_job_digests_like_repro_campaign(
        self, api, tmp_path, capsys
    ):
        spec = _campaign()
        status, job = _submit(api, "campaign", spec.to_dict())
        assert status == 202
        assert job["id"] == f"job-0001-{spec.content_hash()[:12]}"
        done = _wait_for(api, job["id"], timeout=120.0)
        assert done["state"] == "completed", done
        assert set(done["progress"]) == {
            "events", "completed", "cached", "total", "quarantined",
        }
        assert set(done["result"]) == {
            "summary", "total", "completed", "cached", "quarantined",
            "failures", "exit_code",
        }
        assert done["result"]["total"] == 4
        assert done["result"]["completed"] == 4
        assert done["result"]["exit_code"] == 0

        local = str(tmp_path / "local")
        assert main(
            ["campaign", "--algorithms", "known_k_full",
             "--grid", "12x3,16x4", "--schedulers", "sync", "--trials", "2",
             "--workers", "1", "--store", local]
        ) == 0
        capsys.readouterr()
        status, digest = api.handle("GET", "/v1/store/digest")
        assert digest["digest"] == RunStore(local).digest()
