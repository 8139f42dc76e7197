import json
import os
import subprocess
import sys

import pytest

import abmv
from abmv import cli, serialize, winners
from abmv.core import SAV
from abmv import manipulation as man, control as ctl

# The directory holding the imported package. The child runs in a temporary
# directory, where a relative PYTHONPATH entry such as "src" finds nothing.
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(abmv.__file__)))


def run_cli(args, cwd, env=None, module="abmv.cli"):
    """Run ``python -m <module>`` in ``cwd`` against the package under test.

    An ``ABMV_NODE_CAP`` from the calling shell is dropped so that every cap
    is the solver default unless a test sets it through ``env``.
    """
    child_env = {k: v for k, v in os.environ.items() if k != "ABMV_NODE_CAP"}
    inherited = child_env.get("PYTHONPATH")
    child_env["PYTHONPATH"] = PACKAGE_ROOT + (os.pathsep + inherited if inherited else "")
    child_env.update(env or {})
    return subprocess.run(
        [sys.executable, "-m", module, *args],
        capture_output=True, text=True, cwd=cwd, env=child_env,
    )


@pytest.fixture
def example_files(tmp_path, example1_election):
    cands, honest, manip = example1_election
    (tmp_path / "example1.json").write_text(
        json.dumps({"candidates": cands, "votes": [sorted(v) for v in honest + manip]})
    )
    (tmp_path / "example2_CD.json").write_text(
        json.dumps({"candidates": ["a", "b", "c", "d"],
                    "votes": [["b"], ["a", "c"], ["a", "d"]], "k": 1, "J": ["a"]})
    )
    (tmp_path / "manip.json").write_text(
        json.dumps({
            "candidates": cands,
            "votes": [sorted(v) for v in honest],
            "manipulators": [sorted(v) for v in manip],
            "k": 2, "variant": "CBCM", "baseline_committee": ["x", "y"],
        })
    )
    (tmp_path / "rx3c.json").write_text(
        json.dumps({"universe": ["a1", "a2", "a3"],
                    "sets": [["a1", "a2", "a3"]] * 3})
    )
    return tmp_path


def test_winners_lists_the_three_committees(example_files):
    proc = run_cli(["winners", "--rule", "sav", "-k", "2", "example1.json"], example_files)
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["x y", "x z", "y z"]


@pytest.mark.parametrize("rule", ["av", "sav", "nsav"])
def test_partition_winners_print_the_exhaustive_bytes(example_files, rule):
    # x, y and z tie for the two seats under every additive rule
    outputs = [
        run_cli(["winners", "--rule", rule, "-k", "2", "--algo", algo, "--json", "example1.json"],
                example_files)
        for algo in ("partition", "exhaustive")
    ]
    assert outputs[0].returncode == 0
    assert len(json.loads(outputs[0].stdout)["committees"]) == 3
    assert outputs[0].stdout == outputs[1].stdout


def test_package_runs_as_a_module(tmp_path):
    proc = run_cli(["--help"], tmp_path, module="abmv")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: abmv")


def test_jcc_example2_exit_zero(example_files):
    proc = run_cli(["jcc", "--rule", "mav", "-k", "1", "--J", "a", "example2_CD.json"], example_files)
    assert proc.returncode == 0 and proc.stdout.strip() == "YES"


def test_solve_manip_yes_and_common_no(example_files):
    proc = run_cli(["solve-manip", "--rule", "sav", "manip.json"], example_files)
    assert proc.returncode == 0
    proc2 = run_cli(
        ["solve-manip", "--rule", "sav", "--algo", "bruteforce", "--mode", "common", "manip.json"],
        example_files,
    )
    assert proc2.returncode == 1
    assert proc2.stdout.strip() == "NO" and proc2.stderr == ""


def test_gen_then_solve_control(example_files):
    proc = run_cli(["gen", "--kind", "CcdvSavRx3c", "-o", "inst.json", "rx3c.json"], example_files)
    assert proc.returncode == 0
    proc2 = run_cli(["solve-control", "--rule", "sav", "inst.json"], example_files)
    assert proc2.returncode == 0  # the trivial cover exists


def test_usage_error_exit_two(example_files):
    proc = run_cli(["winners", "--rule", "banana", "-k", "1", "example1.json"], example_files)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")


def test_verify_suite_exit_zero(example_files):
    proc = run_cli(["verify", "--suite", "lemma1", "--trials", "25", "--seed", "1"], example_files)
    assert proc.returncode == 0


def test_json_output_is_deterministic(example_files):
    args = ["solve-manip", "--rule", "sav", "--json", "manip.json"]
    first = run_cli(args, example_files)
    second = run_cli(args, example_files)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    payload = json.loads(first.stdout)
    assert payload["answer"] == "YES" and "witness" in payload


class TestSerialization:
    def test_election_round_trip(self, example1_full):
        obj = serialize.election_to_obj(example1_full)
        assert serialize.load_election(obj) == example1_full

    def test_manipulation_round_trip(self, example1_election):
        cands, honest, manip = example1_election
        inst = man.ManipulationInstance(SAV, "CBCM", cands, honest, manip, 2, {"x", "y"})
        obj = serialize.manipulation_instance_to_obj(inst)
        again = serialize.load_manipulation_instance(obj, SAV)
        assert again == inst

    def test_control_round_trip(self):
        inst = ctl.ControlInstance(
            "CCADV", SAV, ["a", "b"], [{"a"}, {"b"}], 1, {"a"},
            unregistered_votes=[{"a"}], budget_add=1, budget_delete=1,
        )
        obj = serialize.control_instance_to_obj(inst)
        assert serialize.load_control_instance(obj, SAV) == inst

    def test_budget_key_dispatch(self):
        obj = {"type": "CCDV", "candidates": ["a", "b"], "votes": [["a"]],
               "k": 1, "J": ["a"], "budget": 1}
        inst = serialize.load_control_instance(obj, SAV)
        assert inst.budget_delete == 1 and inst.budget_add is None

    def test_fraction_strings(self):
        from fractions import Fraction
        assert serialize.fraction_str(Fraction(7, 4)) == "7/4"
        assert serialize.fraction_str(Fraction(4, 2)) == "2"


def test_resource_cap_exit_three(tmp_path):
    big = {"candidates": [f"c{i}" for i in range(30)], "votes": []}
    (tmp_path / "big.json").write_text(json.dumps(big))
    proc = run_cli(
        ["winners", "--rule", "mav", "-k", "15", "--algo", "exhaustive", "big.json"],
        tmp_path, env={"ABMV_NODE_CAP": "1000"},
    )
    assert proc.returncode == 3
    assert proc.stderr.startswith("resource cap:")


def test_internal_error_exit_four(example_files, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("solver bug")

    monkeypatch.setattr(winners, "winning_committees", broken)
    code = cli.main(["winners", "--rule", "sav", "-k", "2", str(example_files / "example1.json")])
    assert code == cli.EXIT_INTERNAL == 4
    assert capsys.readouterr().err.startswith("internal error: RuntimeError('solver bug')")


def test_verify_reductions_fifty_trials(tmp_path):
    proc = run_cli(["verify", "--suite", "reductions", "--trials", "50", "--seed", "1"], tmp_path)
    assert proc.returncode == 0
    assert "50 trials, ok" in proc.stdout
