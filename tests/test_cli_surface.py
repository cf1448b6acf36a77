"""Pins of the CLI surface: every subcommand's option table and the
error text of every value the CLI rejects.

The option table (option strings, ``dest``, default, choices,
``required``, ``nargs``) of each subcommand is compared with
``tests/data/cli_surface.json``.  A change to it is a change to the
command line users type, so regenerate the file only for an intended
one::

    PYTHONPATH=src python tests/test_cli_surface.py

The default-parity tests keep every flag that is generated from a
declaration equal to it: a spec flag defaults to its dataclass field's
default, and a job-option flag defaults to ``None`` ("not given") so
the option's declared default applies.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
from pathlib import Path

import pytest

from repro.campaign import CampaignSpec
from repro.cli import _job_options, _sweep_spec, build_parser, main
from repro.experiments.sweep import SweepSpec
from repro.fuzz import FuzzSpec
from repro.jobs import KINDS
from repro.ring.faults import parse_link_spec
from repro.spec import ExperimentSpec

SURFACE = Path(__file__).resolve().parent / "data" / "cli_surface.json"


def _table(parser: argparse.ArgumentParser):
    return [
        {
            "options": list(action.option_strings) or [action.dest],
            "dest": action.dest,
            "default": repr(action.default),
            "choices": None if action.choices is None else list(action.choices),
            "required": action.required,
            "nargs": action.nargs,
        }
        for action in parser._actions
        if not isinstance(action, argparse._SubParsersAction)
    ]


def _subparsers():
    parser = build_parser()
    (commands,) = [
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return parser, commands.choices


def surface():
    """``{command: option table}``; ``""`` is the top-level parser."""
    parser, subparsers = _subparsers()
    table = {"": _table(parser)}
    for name, subparser in subparsers.items():
        table[name] = _table(subparser)
    return table


def test_option_tables_match_the_pinned_surface():
    expected = json.loads(SURFACE.read_text(encoding="utf-8"))
    actual = json.loads(json.dumps(surface()))
    assert list(actual) == list(expected)
    for command in expected:
        assert actual[command] == expected[command], command


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text("{}")
    return path


COUNT = "error: {flag} must be >= 1 (got 0); omit {flag} to use the default\n"
MAX_STEPS = "error: max_steps must be >= 1 when given\n"
PSWEEP_RESUME = (
    "error: --resume/--no-resume controls how archived cells are reused "
    "and therefore requires --store DIR\n"
)

REJECTED = [
    (["psweep", "--grid", "6x2", "--jobs", "0"], COUNT.format(flag="--jobs")),
    (["fuzz", "--budget", "5", "--jobs", "0"], COUNT.format(flag="--jobs")),
    (["mc", "--n", "6", "--k", "2", "--jobs", "0"], COUNT.format(flag="--jobs")),
    (["campaign", "--workers", "0", "--store", "STORE"],
     COUNT.format(flag="--workers")),
    (["campaign", "--shards", "0", "--store", "STORE"],
     COUNT.format(flag="--shards")),
    (["serve", "--store", "STORE", "--workers", "0"],
     COUNT.format(flag="--workers")),
    (["psweep", "--grid", "6x2", "--resume"], PSWEEP_RESUME),
    (["psweep", "--grid", "6x2", "--no-resume"], PSWEEP_RESUME),
    (["mc", "--n", "6", "--k", "2", "--resume"],
     "error: --resume needs --store (nothing spilled to resume from)\n"),
    (["psweep", "--grid", "6x2", "--validate-backend"],
     "error: --validate-backend cross-checks the batch backend against the "
     "object engine and therefore requires --backend batch\n"),
    (["submit", "--url", "http://127.0.0.1:9", "--kind", "fuzz",
      "--spec", "SPEC", "--processes", "2"],
     "error: --processes sets the 'processes' option, which fuzz jobs do "
     "not take\n"),
    (["run", "--n", "6", "--k", "2", "--max-steps", "-1"], MAX_STEPS),
    (["psweep", "--grid", "6x2", "--max-steps", "0"], MAX_STEPS),
    (["campaign", "--grid", "6x2", "--max-steps", "0", "--workers", "1",
      "--store", "STORE"], MAX_STEPS),
]


@pytest.mark.parametrize(
    "argv, stderr", REJECTED, ids=[" ".join(argv) for argv, _ in REJECTED]
)
def test_rejected_values_exit_2_with_one_line(
    argv, stderr, tmp_path, spec_file, capsys
):
    paths = {"STORE": str(tmp_path / "store"), "SPEC": str(spec_file)}
    assert main([paths.get(arg, arg) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", stderr)
    assert not (tmp_path / "store").exists()


_RUN = {
    name: (ExperimentSpec, name)
    for name in ("scheduler", "scheduler_seed", "max_steps", "links")
}
_SWEEP = {
    "schedulers": (SweepSpec, "schedulers"),
    "trials": (SweepSpec, "trials"),
    "seed": (SweepSpec, "base_seed"),
    "max_steps": (SweepSpec, "max_steps"),
    "links": (SweepSpec, "links"),
}
#: ``{command: {dest: (spec class, field)}}`` of every spec flag.
SPEC_FLAGS = {
    "run": _RUN,
    "spec": _RUN,
    "psweep": _SWEEP,
    "campaign": {
        **_SWEEP,
        **{
            name: (CampaignSpec, name)
            for name in ("workers", "lease_ttl", "unit_timeout",
                         "max_retries", "backoff_base", "shards")
        },
    },
    "fuzz": {
        "seed": (FuzzSpec, "seed"),
        "budget": (FuzzSpec, "budget"),
        "placements": (FuzzSpec, "placements"),
        "corpus": (FuzzSpec, "corpus_size"),
        "max_steps": (FuzzSpec, "max_steps"),
        "links": (FuzzSpec, "links"),
    },
    "mc": {"links": (ExperimentSpec, "links")},
}
#: The job kind whose options each command's flags set.
OPTION_FLAGS = {"psweep": "sweep", "fuzz": "fuzz", "campaign": "campaign"}


def _defaults(subparser):
    return {action.dest: action.default for action in subparser._actions}


@pytest.mark.parametrize("command", list(SPEC_FLAGS))
def test_spec_flags_default_to_their_dataclass_field(command):
    defaults = _defaults(_subparsers()[1][command])
    for dest, (spec_class, name) in SPEC_FLAGS[command].items():
        (field,) = [
            entry for entry in dataclasses.fields(spec_class)
            if entry.name == name
        ]
        assert defaults[dest] == field.default, (command, dest)


@pytest.mark.parametrize("command", [*OPTION_FLAGS, "submit"])
def test_option_flags_default_to_not_given(command):
    kinds = [OPTION_FLAGS[command]] if command in OPTION_FLAGS else KINDS
    defaults = _defaults(_subparsers()[1][command])
    for kind in kinds:
        for name in KINDS[kind].options:
            assert defaults[name] is None, (command, name)


@pytest.mark.parametrize(
    "argv, kind",
    [(["fuzz"], "fuzz"), (["campaign", "--store", "S"], "campaign"),
     (["psweep"], "sweep")],
)
def test_not_given_options_take_the_declared_defaults(argv, kind):
    options = _job_options(build_parser().parse_args(argv), kind)
    assert options == KINDS[kind].check_options({})
    if kind == "sweep":  # psweep's one CLI-side default: a pool per CPU
        args = build_parser().parse_args(argv)
        assert _job_options(args, kind, processes=os.cpu_count())[
            "processes"
        ] == os.cpu_count()


def test_a_cli_pool_may_oversubscribe_the_host():
    # The CPU-count cap is the service's: a pool forked for a remote
    # client must fit the host, a local one is the user's call.
    cpus = os.cpu_count() or 1
    args = build_parser().parse_args(["psweep", "--jobs", str(cpus + 3)])
    assert _job_options(args, "sweep")["processes"] == cpus + 3
    with pytest.raises(Exception, match="between 1 and"):
        KINDS["sweep"].check_options({"processes": cpus + 3}, cpus)


def test_psweep_and_campaign_share_one_sweep_flag_set():
    flags = ["--algorithms", "known_k_full,unknown", "--grid", "8x2,12x3",
             "--schedulers", "sync;random:seed=3", "--trials", "2",
             "--seed", "5", "--max-steps", "900", "--links", "delay=1,seed=2"]
    parser = build_parser()
    psweep = _sweep_spec(parser.parse_args(["psweep", *flags]))
    campaign = _sweep_spec(
        parser.parse_args(["campaign", *flags, "--store", "S"])
    )
    assert psweep == campaign == SweepSpec(
        algorithms=("known_k_full", "unknown"), grid=((8, 2), (12, 3)),
        schedulers=("sync", "random:seed=3"), trials=2, base_seed=5,
        max_steps=900, links=parse_link_spec("delay=1,seed=2"),
    )
    defaults = _sweep_spec(parser.parse_args(["psweep"]))
    assert defaults == _sweep_spec(
        parser.parse_args(["campaign", "--store", "S"])
    )
    assert defaults.grid == ((64, 8), (128, 16), (256, 16))


class _RecordingClient:
    submitted = []

    def __init__(self, url):
        self.url = url

    def submit(self, kind, spec, options):
        self.submitted.append((kind, options))
        return {"id": "job-1", "kind": kind, "spec_hash": "0" * 64,
                "state": "queued"}


@pytest.mark.parametrize(
    "flags, kind, options",
    [
        ([], "sweep", {}),
        (["--no-resume", "--backend", "object"], "sweep",
         {"resume": False, "backend": "object"}),
        (["--processes", "2"], "sweep", {"processes": 2}),
        (["--jobs", "2", "--keep-going", "--no-shrink"], "fuzz",
         {"jobs": 2, "keep_going": True, "shrink": False}),
        (["--resume"], "campaign", {"resume": True}),
    ],
)
def test_submit_sends_only_the_given_options(
    flags, kind, options, spec_file, monkeypatch, capsys
):
    import repro.serve

    monkeypatch.setattr(repro.serve, "ServeClient", _RecordingClient)
    _RecordingClient.submitted = []
    argv = ["submit", "--kind", kind, "--spec", str(spec_file), *flags]
    assert main(argv) == 0
    assert _RecordingClient.submitted == [(kind, options)]
    assert capsys.readouterr().out.startswith("submitted job-1")


@pytest.mark.parametrize(
    "flags, kind, option",
    [(["--resume"], "fuzz", "resume"), (["--shrink"], "sweep", "shrink"),
     (["--backend", "batch"], "campaign", "backend"),
     (["--jobs", "2"], "experiment", "jobs")],
)
def test_submit_refuses_an_option_the_kind_does_not_take(
    flags, kind, option, spec_file, capsys
):
    argv = ["submit", "--url", "http://127.0.0.1:9", "--kind", kind,
            "--spec", str(spec_file), *flags]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: {flags[0]} sets the {option!r} option, which {kind} jobs "
        "do not take\n"
    )


if __name__ == "__main__":
    # One line per option, so a surface change is a one-line diff.
    commands = [
        f"{json.dumps(command)}: [\n"
        + ",\n".join(f"  {json.dumps(option)}" for option in options)
        + "\n]"
        for command, options in surface().items()
    ]
    SURFACE.write_text("{\n" + ",\n".join(commands) + "\n}\n", encoding="utf-8")
    print(f"wrote {SURFACE}")
