"""Command-line interface: dispatch, formats, exit codes, reproducibility."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import entaccess.session
from entaccess import _pool
from entaccess.circuits import circuit_text
from entaccess.cli import main
from entaccess.protocol import decode_ancilla
from entaccess.session import MAX_SESSION_NODE_SLOTS


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestElect:
    def test_winner_consistent_with_ancilla_codeword(self, capsys):
        code, out, _ = run_cli(capsys, ["elect", "--n", "4", "--seed", "7"])
        assert code == 0
        doc = json.loads(out)
        assert doc["winner"] == decode_ancilla(doc["ancilla"], 4)
        assert doc["w_outcomes"].index(1) + 1 == doc["winner"]
        assert sum(doc["w_outcomes"]) == 1

    def test_deterministic_for_seed(self, capsys):
        _, first, _ = run_cli(capsys, ["elect", "--n", "4", "--seed", "3"])
        _, second, _ = run_cli(capsys, ["elect", "--n", "4", "--seed", "3"])
        assert first == second

    def test_csv_rejected_as_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["elect", "--n", "4", "--seed", "1", "--format", "csv"])
        assert err.value.code == 2


class TestSlotCommands:
    @pytest.mark.parametrize("command", ["uplink", "downlink"])
    def test_slot_record(self, capsys, command):
        code, out, _ = run_cli(capsys, [command, "--n", "3", "--seed", "11"])
        assert code == 0
        doc = json.loads(out)
        assert doc["slot_type"] == command
        assert doc["fidelity"] == pytest.approx(1.0)
        if command == "uplink":
            assert doc["receiver"] == 0
        else:
            assert doc["transmitter"] == 0

    def test_jsonl_single_line(self, capsys):
        code, out, _ = run_cli(capsys, ["uplink", "--n", "2", "--seed", "0", "--format", "jsonl"])
        assert code == 0
        assert len(out.strip().splitlines()) == 1


class TestSession:
    def test_stats_document(self, capsys):
        code, out, _ = run_cli(
            capsys, ["session", "--n", "2", "--trials", "4", "--seed", "5"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["trials"] == 4
        assert doc["classical_bits"] == {"downlink": 7, "uplink": 4}
        assert doc["traffic_uniform"] is True

    def test_jsonl_trace_line_per_slot(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["session", "--n", "2", "--trials", "3", "--seed", "5", "--format", "jsonl"],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 6
        assert [json.loads(ln)["slot"] for ln in lines] == list(range(6))

    def test_csv_histogram(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["session", "--n", "2", "--trials", "5", "--seed", "1", "--out", "csv"],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "slot_type,winner,count"
        counts = [int(ln.split(",")[2]) for ln in lines[1:]]
        assert sum(counts) == 10

    def test_over_memory_budget_exits_1_without_a_pool(self, two_cpus, capsys, monkeypatch):
        def per_trial(*args):  # a session this size would exhaust memory
            raise AssertionError("a trial ran")

        monkeypatch.setattr(entaccess.session, "per_trial", per_trial)
        argv = ["session", "--n", "1000000", "--seed", "1", "--trials", "8", "--jobs", "2"]
        code, out, err = run_cli(capsys, argv)
        assert code == 1
        assert out == ""
        assert f"over the limit of {MAX_SESSION_NODE_SLOTS}: it keeps every slot's record" in err
        assert not _pool._procs and not _pool._conns

    def test_custom_slot_pattern(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["session", "--n", "2", "--seed", "0", "--slots", "uud", "--format", "jsonl"],
        )
        assert code == 0
        types = [json.loads(ln)["slot_type"] for ln in out.strip().splitlines()]
        assert types == ["uplink", "uplink", "downlink"]

    @pytest.mark.parametrize("slots", ["downlink,uplink", "d, u", "down,up"])
    def test_comma_slot_pattern_matches_golden(self, capsys, slots):
        argv = ["session", "--n", "4", "--seed", "7", "--trials", "50", "--slots", slots]
        code, out, _ = run_cli(capsys, [*argv, "--format", "jsonl"])
        assert code == 0
        assert out == (Path(__file__).parent / "golden" / "session_n4_du.txt").read_text()

    def test_jobs_do_not_change_output(self, capsys):
        argv = ["session", "--n", "3", "--trials", "6", "--seed", "4", "--format", "jsonl"]
        _, serial, _ = run_cli(capsys, argv)
        _, parallel, _ = run_cli(capsys, argv + ["--jobs", "3"])
        assert serial == parallel


def test_interpreter_exits_with_a_live_pool():
    """The kept worker pool does not stop a CLI process from exiting."""
    done = subprocess.run(
        [sys.executable, "-m", "entaccess", "fairness", "--n", "8", "--seed", "5",
         "--trials", "500", "--jobs", "2"],
        capture_output=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == (Path(__file__).parent / "golden" / "fairness_n8.txt").read_bytes()


# Runs in a fresh interpreter: imports entaccess (and, given arguments, runs
# the command line on them with stdout discarded), then prints whether any
# part of scipy was loaded.
_SCIPY_PROBE = """
import contextlib, io, sys
import entaccess
if sys.argv[1:]:
    from entaccess.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(sys.argv[1:]) == 0
print("scipy" in sys.modules)
"""


def _loads_scipy(argv: list[str]) -> bool:
    done = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, *argv], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return {"True\n": True, "False\n": False}[done.stdout]


@pytest.mark.parametrize(
    "argv",
    [
        "",
        "uplink --n 4 --seed 3",
        "elect --n 4 --seed 7",
        "anonymity --n 3",
        "export-circuit --n 4",
        "session --n 4 --seed 1 --trials 5 --format jsonl",
        "session --n 4 --seed 1 --trials 5 --format csv",
        "fairness --n 4 --seed 1 --trials 100 --format csv",
    ],
    ids=["import", "uplink", "elect", "anonymity", "export-circuit", "session-jsonl",
         "session-csv", "fairness-csv"],
)
def test_output_without_chi_square_does_not_load_scipy(argv):
    assert not _loads_scipy(argv.split())


@pytest.mark.parametrize(
    "argv",
    ["session --n 4 --seed 1 --trials 5", "fairness --n 4 --seed 1 --trials 100"],
    ids=["session", "fairness"],
)
def test_output_with_chi_square_does_not_load_scipy(argv):
    assert not _loads_scipy(argv.split())


# Runs the command line in a fresh interpreter in which ``import scipy`` fails.
_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None
from entaccess.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize(
    ("argv", "golden"),
    [
        ("fairness --n 8 --seed 5 --trials 500", "fairness_n8"),
        ("session --n 5 --seed 4 --trials 40", "session_n5_json"),
    ],
    ids=["fairness", "session"],
)
def test_chi_square_output_needs_no_scipy(argv, golden):
    done = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY, *argv.split()], capture_output=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == (Path(__file__).parent / "golden" / f"{golden}.txt").read_bytes()


class TestFairness:
    def test_csv_rows_sum_to_trials(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["fairness", "--n", "4", "--trials", "1000", "--seed", "1", "--out", "csv"],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "winner,count"
        assert len(lines) == 5
        assert sum(int(ln.split(",")[1]) for ln in lines[1:]) == 1000

    def test_json_document(self, capsys):
        code, out, _ = run_cli(
            capsys, ["fairness", "--n", "2", "--trials", "100", "--seed", "0"]
        )
        assert code == 0
        doc = json.loads(out)
        assert sum(doc["histogram"].values()) == 100
        assert "chi_square" in doc and "p_value" in doc


class TestAnonymity:
    def test_json_report(self, capsys):
        code, out, _ = run_cli(capsys, ["anonymity", "--n", "3"])
        assert code == 0
        doc = json.loads(out)
        for st in ("uplink", "downlink"):
            assert doc["results"][st]["max_deviation"] < 1e-10

    def test_too_many_nodes_fails_cleanly(self, capsys):
        code, _, err = run_cli(capsys, ["anonymity", "--n", "9"])
        assert code == 1
        assert "n <= 8" in err


class TestExportCircuit:
    def test_four_node_gate_list(self, capsys):
        code, out, _ = run_cli(capsys, ["export-circuit", "--n", "4"])
        assert code == 0
        assert out == "QUBITS 6\nCX 1 4\nCX 2 5\nCX 3 4\nCX 3 5\n"

    def test_write_to_file(self, capsys, tmp_path):
        target = tmp_path / "circuit.txt"
        code, out, _ = run_cli(capsys, ["export-circuit", "--n", "5", "--out", str(target)])
        assert code == 0
        assert out == ""
        text = target.read_text()
        assert text.startswith("QUBITS 8\n")

    def test_gate_list_of_several_writes(self, capsys, monkeypatch):
        import entaccess.cli

        monkeypatch.setattr(entaccess.cli, "_CHUNK_LINES", 7)
        code, out, _ = run_cli(capsys, ["export-circuit", "--n", "50"])
        assert code == 0
        assert out == circuit_text(50)
        assert len(out.splitlines()) > 7


class TestUsageErrors:
    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as err:
            main(["elect", "--n", "4", "--seed", "1", "--frobnicate"])
        assert err.value.code == 2

    def test_missing_seed(self):
        with pytest.raises(SystemExit) as err:
            main(["elect", "--n", "4"])
        assert err.value.code == 2

    def test_negative_seed(self):
        with pytest.raises(SystemExit) as err:
            main(["elect", "--n", "4", "--seed", "-3"])
        assert err.value.code == 2

    def test_zero_n(self):
        with pytest.raises(SystemExit) as err:
            main(["fairness", "--n", "0", "--trials", "10", "--seed", "1"])
        assert err.value.code == 2

    def test_conflicting_out_and_format(self):
        with pytest.raises(SystemExit) as err:
            main(["session", "--n", "2", "--seed", "1", "--out", "csv", "--format", "json"])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "slots, message",
        [("", "slot pattern must not be empty"), ("up,sideways", "unknown slot type 'sideways'")],
        ids=["empty", "unknown"],
    )
    def test_bad_slot_pattern(self, capsys, slots, message):
        with pytest.raises(SystemExit) as err:
            main(["session", "--n", "4", "--seed", "7", "--slots", slots])
        assert err.value.code == 2
        assert message in capsys.readouterr().err

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as err:
            main(["teleport-everything"])
        assert err.value.code == 2


class TestOutputFiles:
    @pytest.mark.parametrize(
        "argv, ext",
        [
            ("elect --n 4 --seed 7", "json"),
            ("uplink --n 3 --seed 1", "json"),
            ("uplink --n 3 --seed 1", "jsonl"),
            ("downlink --n 3 --seed 2", "json"),
            ("session --n 3 --seed 4 --trials 5", "json"),
            ("session --n 3 --seed 4 --trials 5", "jsonl"),
            ("session --n 3 --seed 4 --trials 5", "csv"),
            ("fairness --n 3 --seed 2 --trials 30", "json"),
            ("fairness --n 3 --seed 2 --trials 30", "csv"),
            ("anonymity --n 2", "json"),
            ("anonymity --n 2", "csv"),
            ("export-circuit --n 5", None),
        ],
    )
    def test_file_gets_the_stdout_bytes(self, capsys, tmp_path, argv, ext):
        argv = argv.split()
        target = tmp_path / f"x.{ext or 'txt'}"
        code, out, _ = run_cli(capsys, argv + (["--format", ext] if ext else []))
        assert code == 0
        code, empty, _ = run_cli(capsys, [*argv, "--out", str(target)])
        assert code == 0
        assert empty == ""
        assert target.read_bytes() == out.encode()

    def test_out_path_with_extension(self, capsys, tmp_path):
        target = tmp_path / "trace.jsonl"
        code, out, _ = run_cli(
            capsys,
            ["session", "--n", "2", "--trials", "2", "--seed", "8", "--out", str(target)],
        )
        assert code == 0
        assert out == ""
        lines = target.read_text().strip().splitlines()
        assert len(lines) == 4
        json.loads(lines[0])

    def test_repeated_runs_write_identical_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for target in (a, b):
            run_cli(
                capsys,
                ["session", "--n", "4", "--trials", "5", "--seed", "2", "--out", str(target)],
            )
        assert a.read_bytes() == b.read_bytes()

    def test_floats_rendered_with_twelve_significant_digits(self, capsys):
        _, out, _ = run_cli(
            capsys, ["fairness", "--n", "2", "--trials", "100", "--seed", "0"]
        )
        doc = json.loads(out)
        rendered = json.dumps(doc)
        # pinned floats survive a dump/load round trip unchanged
        assert json.loads(rendered) == doc
