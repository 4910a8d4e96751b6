"""Tests for the command-line interface."""

from __future__ import annotations

import io
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main
from repro.durability.recovery import HEADER_FILENAME
from repro.service import available_policies

#: How the CLI lists the registered policies when it refuses a name.
REGISTERED = ", ".join(available_policies())


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    """A small corpus generated through the CLI itself."""
    directory = tmp_path_factory.mktemp("cli-corpus")
    out = io.StringIO()
    code = main(
        [
            "generate",
            "--output", str(directory),
            "--seed", "5",
            "--days", "4",
            "--stories-per-day", "5",
            "--topics", "6",
        ],
        out=out,
    )
    assert code == 0
    return directory


@pytest.fixture(scope="module")
def three_topics(tmp_path_factory):
    """The smallest corpus the refusal probes run against."""
    directory = tmp_path_factory.mktemp("three-topics")
    assert main(
        ["generate", "--output", str(directory), "--seed", "5", "--days", "2",
         "--stories-per-day", "3", "--topics", "3"],
        out=io.StringIO(),
    ) == 0
    return directory


def _run_cli(argv, cwd):
    """``python -m repro`` in a subprocess under a 60 s bound, so a hang fails."""
    source = Path(repro.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True, text=True, timeout=60, cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(source)},
    )


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate", "--output", "/tmp/x"])
        assert args.command == "generate"
        assert args.seed == 13

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestGenerate:
    def test_writes_corpus_files(self, corpus_dir):
        assert (corpus_dir / "collection.json").exists()
        assert (corpus_dir / "topics.json").exists()
        assert (corpus_dir / "qrels.txt").exists()
        assert (corpus_dir / "manifest.json").exists()

    def test_output_mentions_sizes(self, tmp_path):
        out = io.StringIO()
        code = main(
            ["generate", "--output", str(tmp_path / "c"), "--seed", "9",
             "--days", "3", "--stories-per-day", "4", "--topics", "4"],
            out=out,
        )
        assert code == 0
        assert "bulletins" in out.getvalue()


class TestSearch:
    def test_search_prints_ranked_results(self, corpus_dir):
        from repro.collection import load_corpus

        stored = load_corpus(corpus_dir)
        topic = stored.topics.topics()[0]
        out = io.StringIO()
        code = main(
            [
                "search",
                "--corpus", str(corpus_dir),
                "--query", " ".join(topic.query_terms[:3]),
                "--topic", topic.topic_id,
                "--limit", "5",
            ],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "average precision" in text
        assert "1." in text

    def test_search_no_results(self, corpus_dir):
        out = io.StringIO()
        code = main(
            ["search", "--corpus", str(corpus_dir), "--query", "zzzzunknownterm"],
            out=out,
        )
        assert code == 0
        assert "no results" in out.getvalue()


class TestSimulateAndAnalyse:
    def test_simulate_writes_logs_then_analyse(self, corpus_dir, tmp_path):
        logs_dir = tmp_path / "logs"
        out = io.StringIO()
        code = main(
            [
                "simulate",
                "--corpus", str(corpus_dir),
                "--logs", str(logs_dir),
                "--users", "2",
                "--topics-per-user", "1",
                "--policy", "implicit",
                "--seed", "3",
            ],
            out=out,
        )
        assert code == 0
        assert list(logs_dir.glob("*.jsonl"))
        assert "MAP=" in out.getvalue()

        analyse_out = io.StringIO()
        code = main(
            ["analyse-logs", "--corpus", str(corpus_dir), "--logs", str(logs_dir)],
            out=analyse_out,
        )
        assert code == 0
        assert "indicator" in analyse_out.getvalue()

    def test_analyse_missing_logs_fails(self, corpus_dir, tmp_path):
        empty = tmp_path / "empty-logs"
        empty.mkdir()
        assert main(
            ["analyse-logs", "--corpus", str(corpus_dir), "--logs", str(empty)],
            out=io.StringIO(),
        ) == 1


class TestExperiment:
    def test_experiment_prints_table(self, corpus_dir):
        out = io.StringIO()
        code = main(
            [
                "experiment",
                "--corpus", str(corpus_dir),
                "--users", "2",
                "--topics-per-user", "1",
                "--policies", "baseline,implicit",
                "--seed", "3",
            ],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "baseline" in text and "implicit" in text
        assert "vs baseline" in text

    def test_one_shared_topic_prints_the_table_without_a_paired_test(self, corpus_dir):
        out = io.StringIO()
        code = main(
            ["experiment", "--corpus", str(corpus_dir), "--users", "1",
             "--topics-per-user", "1", "--policies", "baseline,implicit,baseline",
             "--seed", "3"],
            out=out,
        )
        assert code == 0
        lines = out.getvalue().splitlines()
        assert [line.split()[0] for line in lines[1:]] == ["baseline", "implicit", "implicit"]
        assert lines[-1] == "implicit vs baseline: fewer than two shared topics, no paired test"


class TestMoreTopicsThanTheCorpusHas:
    """Each user searches distinct topics, so asking for more than the
    corpus holds is refused in one line; it used to draw forever.  Every
    run is a subprocess under a wall-clock bound, so a hang fails."""

    @pytest.mark.parametrize(
        "command, refusal",
        [
            (
                ["simulate", "--logs", "unused-logs", "--users", "1",
                 "--topics-per-user", "999"],
                "simulate failed: condition 'combined': topics_per_user=999 "
                "exceeds the corpus's 3 topics",
            ),
            (
                ["experiment", "--users", "1", "--topics-per-user", "4",
                 "--policies", "baseline,implicit"],
                "experiment failed: condition 'baseline': topics_per_user=4 "
                "exceeds the corpus's 3 topics",
            ),
        ],
        ids=["simulate", "experiment"],
    )
    def test_refused_in_one_line_with_exit_2(
        self, three_topics, tmp_path, command, refusal
    ):
        completed = _run_cli(
            [command[0], "--corpus", str(three_topics), *command[1:]], tmp_path
        )
        assert completed.returncode == 2
        assert completed.stderr.splitlines() == [refusal]
        assert completed.stdout == ""
        assert not (tmp_path / "unused-logs").exists()

    def test_all_three_topics_still_run(self, three_topics):
        out = io.StringIO()
        assert main(
            ["experiment", "--corpus", str(three_topics), "--users", "1",
             "--topics-per-user", "3", "--policies", "baseline"],
            out=out,
        ) == 0
        assert out.getvalue().splitlines()[1].startswith("baseline")


class TestTracebacksBecomeOneLine:
    """Inputs that used to end in a traceback, some only after the whole
    run: each is refused in one stderr line with exit 2.  A subprocess
    under a wall-clock bound, like the class above."""

    @pytest.fixture(scope="class")
    def workdir(self, three_topics, tmp_path_factory):
        """A directory holding a file where an output directory should go,
        and a durability directory written with one shard."""
        directory = tmp_path_factory.mktemp("refusals")
        (directory / "occupied").write_text("a file, not a directory\n")
        assert main(
            ["loadtest", "--corpus", str(three_topics), "--users", "1", "--queries", "1",
             "--durable", str(directory / "one-shard")],
            out=io.StringIO(),
        ) == 0
        return directory

    @pytest.mark.parametrize(
        "command, refusal",
        [
            (["search", "--query", "q", "--user", ""],
             "search failed: user_id must be non-empty"),
            (["loadtest", "--users", "1", "--queries", "1", "--durable", "one-shard",
              "--shards", "4"],
             "loadtest failed: durability directory 'one-shard' was written with "
             "num_shards=1 but the config asks for num_shards=4"),
            (["loadtest", "--users", "1", "--queries", "1", "--durable", "one-shard",
              "--ingest-ops", "3", "--replicas", "1", "--shards", "2"],
             "loadtest failed: durability directory 'one-shard' was written with "
             "num_shards=1 but the config asks for num_shards=2"),
            (["generate", "--output", "occupied/x"],
             "generate failed: --output 'occupied/x' cannot be written: "
             "'occupied' is not a directory"),
            (["simulate", "--logs", "occupied/x", "--users", "1"],
             "simulate failed: --logs 'occupied/x' cannot be written: "
             "'occupied' is not a directory"),
            (["loadtest", "--users", "1", "--queries", "1", "--log", "occupied/x"],
             "loadtest failed: --log 'occupied/x' cannot be written: "
             "'occupied' is not a directory"),
            (["loadtest", "--mix-epochs", "1", "--mix-log", "occupied/x"],
             "loadtest failed: --mix-log 'occupied/x' cannot be written: "
             "'occupied' is not a directory"),
            (["loadtest", "--users", "1", "--queries", "1", "--log", "one-shard"],
             "loadtest failed: --log 'one-shard' cannot be written: it is a directory"),
        ],
        ids=["empty-user", "durable-shards", "replicas-shards", "generate-output",
             "simulate-logs", "loadtest-log", "mix-log", "loadtest-log-is-dir"],
    )
    def test_refused_in_one_line_with_exit_2(self, three_topics, workdir, command, refusal):
        if command[0] != "generate":
            command = [command[0], "--corpus", str(three_topics), *command[1:]]
        completed = _run_cli(command, workdir)
        assert completed.returncode == 2
        assert completed.stderr.splitlines() == [refusal]
        assert completed.stdout == ""


class TestRecoverErrorPaths:
    """`repro recover` / `--durable` misuse must fail with one-line errors.

    No traceback, a message that names the offending path and what is
    wrong with it, and a nonzero exit code — the contract an operator
    script can rely on.
    """

    def test_recover_missing_path(self, tmp_path, capsys):
        missing = str(tmp_path / "nowhere")
        code = main(["recover", missing], out=io.StringIO())
        assert code == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [f"recover failed: {missing!r} does not exist"]

    def test_recover_path_is_file(self, tmp_path, capsys):
        bogus = tmp_path / "not-a-dir"
        bogus.write_text("just a file\n")
        code = main(["recover", str(bogus)], out=io.StringIO())
        assert code == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [f"recover failed: {str(bogus)!r} is not a directory"]

    def test_recover_empty_directory(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        code = main(["recover", str(empty)], out=io.StringIO())
        assert code == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [
            f"recover failed: {empty / HEADER_FILENAME} is missing — not a durability directory"
        ]

    def test_loadtest_durable_path_is_file(self, corpus_dir, tmp_path, capsys):
        bogus = tmp_path / "wal-file"
        bogus.write_text("occupied\n")
        code = main(
            ["loadtest", "--corpus", str(corpus_dir), "--users", "1",
             "--queries", "1", "--durable", str(bogus)],
            out=io.StringIO(),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "is not a" in err and "directory" in err
        assert "Traceback" not in err

    def test_loadtest_durable_parent_is_file(self, corpus_dir, tmp_path, capsys):
        parent = tmp_path / "occupied"
        parent.write_text("a file where a parent dir should be\n")
        code = main(
            ["loadtest", "--corpus", str(corpus_dir), "--users", "1",
             "--queries", "1", "--durable", str(parent / "state")],
            out=io.StringIO(),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [
            f"loadtest failed: --durable {str(parent / 'state')!r} cannot be written: "
            f"{str(parent)!r} is not a directory"
        ]


class TestDamagedManifestChain:
    """A damaged manifest link or key is refused by ``recover`` (one line,
    exit 2) and reported by ``verify`` (a ``PROBLEM`` line, exit 1).  A
    ``parent`` loop used to make both walk the chain forever, so every run
    is a subprocess under a wall-clock bound, and a hang fails."""

    @pytest.fixture(scope="class")
    def chain(self, corpus_dir, tmp_path_factory):
        """The bootstrap and two ops checkpoints."""
        directory = tmp_path_factory.mktemp("chain") / "d"
        assert main(
            ["loadtest", "--corpus", str(corpus_dir), "--users", "1", "--queries",
             "1", "--durable", str(directory), "--ingest-ops", "8",
             "--snapshot-interval", "4"],
            out=io.StringIO(),
        ) == 0
        assert len(list(directory.glob("checkpoint-*.json"))) == 3
        return directory

    @pytest.mark.parametrize(
        "manifest, old, new, message",
        [
            ("checkpoint-000001.json", '"parent":0', '"parent":1',
             "checkpoint manifest checkpoint-000001.json links to parent 1, "
             "not 0"),
            ("checkpoint-000002.json", '"shot_count"', '"shot_cound"',
             "checkpoint manifest checkpoint-000002.json: 'shot_count' is "
             "missing"),
        ],
        ids=["parent-loop", "renamed-key"],
    )
    def test_recover_refuses_and_verify_reports(
        self, chain, tmp_path, manifest, old, new, message
    ):
        directory = tmp_path / "d"
        shutil.copytree(chain, directory)
        path = directory / manifest
        text = path.read_text(encoding="utf-8")
        assert text.count(old) == 1
        path.write_text(text.replace(old, new), encoding="utf-8")
        recovered = _run_cli(["recover", str(directory)], tmp_path)
        assert recovered.returncode == 2
        assert recovered.stderr.splitlines() == [f"recover failed: {message}"]
        verified = _run_cli(["verify", str(directory)], tmp_path)
        assert verified.returncode == 1
        assert f"PROBLEM: snapshot chain: {message}" in verified.stdout.splitlines()


class TestReingest:
    """Ingesting the same ops into a directory that already holds them is a
    refused write: one ``loadtest failed`` line and exit 2, not a traceback.
    The second run is a subprocess under a wall-clock bound."""

    def test_second_ingest_is_refused(self, corpus_dir, tmp_path):
        argv = ["loadtest", "--corpus", str(corpus_dir), "--users", "1",
                "--queries", "1", "--durable", str(tmp_path / "d"),
                "--ingest-ops", "4"]
        assert main(argv, out=io.StringIO()) == 0
        again = _run_cli(argv, tmp_path)
        assert again.returncode == 2
        [line] = again.stderr.splitlines()
        assert line.startswith("loadtest failed: document '")
        assert line.endswith("' already indexed")


#: Each verb that reads ``--corpus``, with the rest of a valid command line.
CORPUS_VERBS = {
    "search": ["--query", "anything"],
    "simulate": ["--logs", "unused-logs"],
    "experiment": [],
    "analyse-logs": ["--logs", "unused-logs"],
    "loadtest": ["--users", "1", "--queries", "1"],
}


class TestBadCorpus:
    """A bad ``--corpus`` is one line on stderr and exit 2, for every verb."""

    @pytest.mark.parametrize("verb", sorted(CORPUS_VERBS))
    @pytest.mark.parametrize(
        "kind, problem",
        [
            ("missing", "does not exist"),
            ("file", "is not a directory"),
            ("empty", "holds no corpus manifest"),
        ],
    )
    def test_one_line_error(self, verb, kind, problem, tmp_path, capsys):
        path = tmp_path / "corpus"
        if kind == "file":
            path.write_text("not a corpus\n")
        elif kind == "empty":
            path.mkdir()
        code = main(
            [verb, "--corpus", str(path)] + CORPUS_VERBS[verb], out=io.StringIO()
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{verb} failed: --corpus {str(path)!r} {problem};")
        assert "repro generate" in err
        assert err.strip().count("\n") == 0


#: Out-of-range values, each in an otherwise valid command line.
OUT_OF_RANGE = [
    ("search --corpus c --query q --limit 0", "must be positive"),
    ("search --corpus c --query q --limit -3", "must be positive"),
    ("simulate --corpus c --logs l --users 0", "must be positive"),
    ("simulate --corpus c --logs l --topics-per-user 0", "must be positive"),
    ("experiment --corpus c --users 0", "must be positive"),
    ("experiment --corpus c --policies ,", "must name at least one policy"),
    ("loadtest --corpus c --users 0", "must be positive"),
    ("loadtest --corpus c --workers 0", "must be positive"),
    ("loadtest --corpus c --queries -1", "must be positive"),
    ("loadtest --corpus c --feedback-per-query 0", "must be positive"),
    ("loadtest --corpus c --ingest-ops -1", "must be non-negative"),
    ("loadtest --corpus c --durable d --snapshot-interval 0", "must be positive"),
    ("loadtest --corpus c --shards 0", "must be positive"),
    ("loadtest --corpus c --serve-concurrency 0", "must be positive"),
    ("loadtest --corpus c --durable d --ingest-ops 4 --replicas -1", "must be non-negative"),
    ("loadtest --corpus c --mix-epochs -1", "must be non-negative"),
    ("loadtest --corpus c --mix-epochs 2 --durable d --mix-stop-lsn -1",
     "must be non-negative"),
    ("loadtest --corpus c --ingest-pause -1", "must be non-negative and finite"),
    ("loadtest --corpus c --ingest-pause nan", "must be non-negative and finite"),
    ("loadtest --corpus c --ingest-pause inf", "must be non-negative and finite"),
    ("loadtest --corpus c --serve-deadline 0", "must be positive and finite"),
    ("loadtest --corpus c --serve-deadline nan", "must be positive and finite"),
    ("loadtest --corpus c --serve-deadline inf", "must be positive and finite"),
    ("loadtest --corpus c --mix-epochs 2 --mix-mutations 0", "must be positive"),
    ("loadtest --corpus c --mix-epochs 2 --mix-searches -1", "must be non-negative"),
    ("loadtest --corpus c --mix-epochs 2 --mix-delete-ratio 1.5", "must be in [0, 1]"),
    ("loadtest --corpus c --mix-epochs 2 --mix-delete-ratio nan", "must be in [0, 1]"),
    ("loadtest --corpus c --mix-epochs 2 --mix-update-ratio -0.1", "must be in [0, 1]"),
    ("loadtest --corpus c --mix-epochs 2 --mix-feedback -1", "must be non-negative"),
    ("loadtest --corpus c --mix-epochs 2 --mix-compact-every -1", "must be non-negative"),
    ("search --corpus c --query q --policy nosuch",
     f"must be a registered policy ({REGISTERED})"),
    ("simulate --corpus c --logs l --policy nosuch",
     f"must be a registered policy ({REGISTERED})"),
    ("loadtest --corpus c --policy nosuch", f"must be a registered policy ({REGISTERED})"),
    ("experiment --corpus c --policies telepathy",
     f"must name registered policies only ({REGISTERED})"),
    ("experiment --corpus c --policies baseline,nosuch",
     f"must name registered policies only ({REGISTERED})"),
    ("recover d --to-lsn -1", "must be non-negative"),
    ("generate --output o --days 0", "must be positive"),
    ("generate --output o --stories-per-day 0", "must be positive"),
    ("generate --output o --topics 0", "must be positive"),
]


@pytest.mark.parametrize("command, problem", OUT_OF_RANGE)
def test_out_of_range_value_is_a_usage_error(command, problem, capsys):
    """Refused at parse time: exit 2 and one error line, before any work."""
    argv = command.split()
    with pytest.raises(SystemExit) as exited:
        main(argv, out=io.StringIO())
    assert exited.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    verb, flag, value = argv[0], argv[-2], argv[-1]
    assert err.splitlines()[-1] == (
        f"repro {verb}: error: argument {flag}: {problem}, got {value!r}"
    )


@pytest.mark.parametrize(
    "flags, refusal",
    [
        (["--mix-log", "{tmp}/mix.jsonl"], "--mix-log and --mix-stop-lsn require --mix-epochs"),
        (["--durable", "{tmp}/durable", "--mix-stop-lsn", "3"],
         "--mix-log and --mix-stop-lsn require --mix-epochs"),
        (["--durable", "{tmp}/durable", "--ingest-ops", "4", "--replicas", "1",
          "--log", "{tmp}/load.jsonl"], "--replicas and --log are mutually exclusive"),
        # --replicas needs --durable, and --durable already refuses --verify.
        (["--durable", "{tmp}/durable", "--ingest-ops", "4", "--replicas", "1",
          "--verify"], "--verify re-runs the workload against a fresh service"),
        # The spec's cross-field check, not a parse-time type.
        (["--mix-epochs", "1", "--mix-delete-ratio", "0.7", "--mix-update-ratio", "0.7"],
         "delete_ratio + update_ratio must not exceed 1"),
    ],
    ids=["mix-log", "mix-stop-lsn", "replicas-log", "replicas-verify", "mix-ratios"],
)
def test_loadtest_refuses_a_flag_it_would_ignore(corpus_dir, tmp_path, capsys, flags, refusal):
    """One stderr line and exit 2, before any work: no log, no directory."""
    argv = ["loadtest", "--corpus", str(corpus_dir), "--users", "1", "--queries", "1"]
    argv += [flag.format(tmp=tmp_path) for flag in flags]
    assert main(argv, out=io.StringIO()) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"loadtest failed: {refusal}")
    assert err.strip().count("\n") == 0
    assert list(tmp_path.iterdir()) == []


def test_non_integer_keeps_the_argparse_wording(capsys):
    with pytest.raises(SystemExit):
        main(["search", "--corpus", "c", "--query", "q", "--limit", "ten"])
    assert capsys.readouterr().err.splitlines()[-1] == (
        "repro search: error: argument --limit: invalid int value: 'ten'"
    )
