"""Byte-for-byte pins of the job commands' CLI output.

One small case each of ``run --store``, ``psweep --store``,
``fuzz --store`` and ``campaign``: stdout (and fuzz ``--progress``
stderr) with the store path replaced by ``<store>``, plus the SHA-256
of the ``--json`` files.  The job bodies in :mod:`repro.jobs` are
shared with ``repro serve``; these pins keep the CLI's rendering of
them fixed.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.cli import main
from repro.fuzz import FuzzSpec
from repro.spec import PlacementSpec

RUN_ROW = (
    "algorithm     n   k  l  scheduler             total_moves  max_moves"
    "  ideal_time  max_memory_bits  messages  uniform\n"
    "------------  --  -  -  --------------------  -----------  ---------"
    "  ----------  ---------------  --------  -------\n"
    "known_k_full  18  3  1  SynchronousScheduler  100          46       "
    "  47          36               0         True   \n"
)

PSWEEP_OUT = (
    "4 cells (1 algorithms x 2 sizes x 1 schedulers x 2 trials)\n"
    "store: 4 executed, 0 cached (<store>, 4 records)\n"
    "algorithm     n   k  l  scheduler  total_moves  max_moves  ideal_time"
    "  max_memory_bits  messages  uniform  trial  seed               \n"
    "------------  --  -  -  ---------  -----------  ---------  ----------"
    "  ---------------  --------  -------  -----  -------------------\n"
    "known_k_full  12  3  1  sync       64           31         32        "
    "  30               0         True     0      5884646045660741027\n"
    "known_k_full  12  3  1  sync       61           31         32        "
    "  30               0         True     1      5705797594716939970\n"
    "known_k_full  16  4  1  sync       125          43         44        "
    "  41               0         True     0      4899865307286798902\n"
    "known_k_full  16  4  1  sync       118          42         43        "
    "  39               0         True     1      5100676140212200530\n"
    "wrote <json>\n"
)
PSWEEP_JSON_SHA256 = (
    "ff0f336cc45cdcb6b58c09eae6782f61d4e60fea1bff513be3f3144cec739bdb"
)

FUZZ_FAILURE = (
    "23b0238d1ea29106d668fcb4c3e6936269d075458040d44d0ea21c9382e914d3"
)
FUZZ_OUT = (
    "fuzzing wake_race (4 placement(s), budget 300 runs, campaign "
    "cd672639e5732875)\n"
    "3 runs, 424 actions: 424 canonical states, 21 enabled patterns, "
    "corpus 2 -> 1 FAILURE(S)\n"
    "\n"
    "run  actions  states  new_states  patterns  corpus  failures\n"
    "---  -------  ------  ----------  --------  ------  --------\n"
    "3    424      424     424         21        2       1       \n"
    "\n"
    "coverage growth: 424 states after 3 runs, trailing-window gain 25% "
    "-> still growing\n"
    "wrote <json>\n"
    f"archived failure {FUZZ_FAILURE[:16]} -> <store>/failures/"
    f"{FUZZ_FAILURE}.json\n"
    "\n"
    "1 FAILURE(S):\n"
    "  [terminal:uniform-terminal] NOT UNIFORM: n=16 k=4 gaps=(4, 1, 7, 4) "
    "(gaps [1, 7] outside {4, 4}) | n=16 homes=(3, 4, 8, 15) | schedule "
    "134 -> 0 actions (shrunk, replay verified)\n"
    "  replay: ReplayScheduler([]) on Placement(ring_size=16, "
    "homes=(3, 4, 8, 15)) with 'wake_race'\n"
)
FUZZ_ERR = (
    "  ... run 1/300: 152 canonical states, 16 enabled patterns\n"
    "  ... run 2/300: 290 canonical states, 18 enabled patterns\n"
)
FUZZ_JSON_SHA256 = (
    "07b2aedcf04c832aaef2a0cd4ac3f361a82499ff6565d0cb4696a440b2529e67"
)

CAMPAIGN_HEAD = (
    "campaign ebedb095a24d5e29: sweep 1 algorithm(s) x 2 size(s) x "
    "1 scheduler(s) x 2 trial(s); 1 worker(s), lease ttl 10s, unit "
    "timeout 120s, max retries 3\n"
)
CAMPAIGN_OUT = CAMPAIGN_HEAD + (
    "  completed known_k_full 12x3 sync trial 0 (1/4)\n"
    "  completed known_k_full 12x3 sync trial 1 (2/4)\n"
    "  completed known_k_full 16x4 sync trial 0 (3/4)\n"
    "  completed known_k_full 16x4 sync trial 1 (4/4)\n"
    "4 unit(s): 4 completed, 0 cached, 0 quarantined; 0 re-issue(s), "
    "0 worker death(s), 0 stale result(s)\n"
)
CAMPAIGN_WARM = CAMPAIGN_HEAD + (
    "4 unit(s): 0 completed, 4 cached, 0 quarantined; 0 re-issue(s), "
    "0 worker death(s), 0 stale result(s)\n"
)


def _run(capsys, argv, *paths):
    """``(exit code, stdout, stderr)`` with ``paths`` normalised."""
    code = main(argv)
    captured = capsys.readouterr()
    out, err = captured.out, captured.err
    for path, name in paths:
        out = out.replace(str(path), name)
        err = err.replace(str(path), name)
    return code, out, err


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_run_store_output(tmp_path, capsys):
    store = tmp_path / "store"
    argv = ["run", "--algorithm", "known_k_full", "--n", "18", "--k", "3",
            "--seed", "1", "--store", str(store)]
    head = "configuration: n=18 k=3 l=1 D=(2, 4, 12)\n"
    assert _run(capsys, argv, (store, "<store>")) == (
        0,
        head + "archived run 50db2f029096e8ab to <store>\n" + RUN_ROW,
        "",
    )
    assert _run(capsys, argv, (store, "<store>")) == (
        0,
        head + "cache hit: archived run 50db2f029096e8ab "
        "(0 simulations executed)\n" + RUN_ROW,
        "",
    )


def test_psweep_store_output(tmp_path, capsys):
    store, out_json = tmp_path / "store", tmp_path / "sweep.json"
    argv = ["psweep", "--algorithms", "known_k_full", "--grid", "12x3,16x4",
            "--schedulers", "sync", "--trials", "2", "--store", str(store),
            "--json", str(out_json)]
    assert _run(
        capsys, argv, (store, "<store>"), (out_json, "<json>")
    ) == (0, PSWEEP_OUT, "")
    assert _sha256(out_json) == PSWEEP_JSON_SHA256


def test_fuzz_store_output(tmp_path, capsys):
    spec = FuzzSpec(
        algorithm="wake_race",
        placement=PlacementSpec(
            kind="random", ring_size=16, agent_count=4, seed=0
        ),
        budget=300,
        seed=0,
        placements=4,
    )
    spec_file = tmp_path / "fuzz-spec.json"
    spec_file.write_text(json.dumps(spec.to_dict()))
    store, out_json = tmp_path / "store", tmp_path / "fuzz.json"
    argv = ["fuzz", "--spec", str(spec_file), "--store", str(store),
            "--json", str(out_json), "--progress"]
    assert _run(
        capsys, argv, (store, "<store>"), (out_json, "<json>")
    ) == (1, FUZZ_OUT, FUZZ_ERR)
    assert _sha256(out_json) == FUZZ_JSON_SHA256
    assert [path.stem for path in (store / "failures").glob("*.json")] == [
        FUZZ_FAILURE
    ]


def test_campaign_output(tmp_path, capsys):
    store = tmp_path / "store"
    argv = ["campaign", "--algorithms", "known_k_full",
            "--grid", "12x3,16x4", "--schedulers", "sync", "--trials", "2",
            "--workers", "1", "--store", str(store)]
    assert _run(capsys, argv, (store, "<store>")) == (0, CAMPAIGN_OUT, "")
    assert _run(capsys, argv, (store, "<store>")) == (0, CAMPAIGN_WARM, "")


MC_GRID = ["--n", "6", "--k", "3"]
MC_ONE = ["--distances", "1,2,3"]


@pytest.mark.parametrize(
    "flags, sha256",
    [
        (MC_GRID + ["--jobs", "1"],
         "4a93692716f64bb0de10193b2ededecd5c5d639d0fe12fe2889c611b39796092"),
        (MC_GRID + ["--jobs", "1", "--store", "STORE"],
         "4a93692716f64bb0de10193b2ededecd5c5d639d0fe12fe2889c611b39796092"),
        (MC_GRID + ["--jobs", "2"],
         "77cf053db8c4e429da99f723fc8b05de1f3ce350908b24b156e429ca2e81f06c"),
        (MC_GRID + ["--jobs", "2", "--store", "STORE"],
         "77cf053db8c4e429da99f723fc8b05de1f3ce350908b24b156e429ca2e81f06c"),
        (MC_ONE + ["--jobs", "1"],
         "2e0c62feff773645a96d29fb1321ea112eead6b8cd3d7f2de60952bc4aeb8101"),
        (MC_ONE + ["--jobs", "1", "--store", "STORE"],
         "2e0c62feff773645a96d29fb1321ea112eead6b8cd3d7f2de60952bc4aeb8101"),
        (MC_ONE + ["--jobs", "2"],
         "84dec706a9abcc2300eb976d5fb5e1da2e51ba3bd8d0d38a71f23dde2e8a801c"),
    ],
)
def test_mc_json_output(flags, sha256, tmp_path, capsys):
    argv = ["mc", "--json"] + [
        str(tmp_path / "store") if flag == "STORE" else flag
        for flag in flags
    ]
    code, out, err = _run(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


@pytest.mark.parametrize(
    "flags, graph",
    [
        ([], "sleep-set-reduced"),
        (["--no-por"], "full"),
        (["--links", "delay=1"], "full"),  # faults turn POR off
    ],
    ids=["por", "no-por", "faulty-link"],
)
def test_mc_json_names_the_cycle_graph(flags, graph, capsys):
    code, out, _ = _run(capsys, ["mc", "--json", "--n", "6", "--k", "2"] + flags)
    assert code == 0
    document = json.loads(out)
    assert document["cycle_graph"] == graph
    assert document["por"] is (graph == "sleep-set-reduced")
