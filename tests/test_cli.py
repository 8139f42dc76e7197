import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import abmv
from abmv import cli, serialize, winners
from abmv.core import PAV, SAV, Election, ValidationError
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


EXHAUSTIVE_BYTES = {
    ("example1.json", "pav"): '{"committees":[["x","y","a"],["x","z","a"],["y","z","a"]],'
                              '"k":3,"optimum":"83/6","rule":"pav"}',
    ("example1.json", "abccv"): '{"committees":[["x","a","b"],["y","a","b"],["z","a","b"],["x","a","c"],'
                                '["y","a","c"],["z","a","c"],["x","b","c"],["y","b","c"],["z","b","c"],'
                                '["x","c","d1"],["y","c","d1"],["z","c","d1"],["x","b","d2"],["y","b","d2"],'
                                '["z","b","d2"],["a","b","d3"],["a","c","d3"]],"k":3,"optimum":"10","rule":"abccv"}',
    ("example1.json", "mav"): '{"committees":[["x","y","a"],["x","z","a"],["y","z","a"],["x","a","b"],'
                              '["y","a","b"],["z","a","b"],["x","a","c"],["y","a","c"],["z","a","c"],'
                              '["x","b","c"],["y","b","c"],["z","b","c"],["x","a","d1"],["y","a","d1"],'
                              '["z","a","d1"],["x","c","d1"],["y","c","d1"],["z","c","d1"],["x","a","d2"],'
                              '["y","a","d2"],["z","a","d2"],["x","b","d2"],["y","b","d2"],["z","b","d2"],'
                              '["x","d1","d2"],["y","d1","d2"],["z","d1","d2"],["x","a","d3"],["y","a","d3"],'
                              '["z","a","d3"],["a","b","d3"],["a","c","d3"],["a","d1","d3"],["a","d2","d3"]],'
                              '"k":3,"optimum":"5","rule":"mav"}',
    ("example1.json", "thiele"): '{"committees":[["x","y","a"],["x","z","a"],["y","z","a"]],'
                                 '"k":3,"optimum":"86/7","rule":"thiele"}',
    ("example2_CD.json", "pav"): '{"committees":[["a","b","c"],["a","b","d"]],"k":3,"optimum":"7/2","rule":"pav"}',
    ("example2_CD.json", "abccv"): '{"committees":[["a","b","c"],["a","b","d"],["b","c","d"]],'
                                   '"k":3,"optimum":"3","rule":"abccv"}',
    ("example2_CD.json", "mav"): '{"committees":[["a","b","c"],["a","b","d"],["b","c","d"]],'
                                 '"k":3,"optimum":"3","rule":"mav"}',
    ("example2_CD.json", "thiele"): '{"committees":[["a","b","c"],["a","b","d"]],'
                                    '"k":3,"optimum":"10/3","rule":"thiele"}',
}


@pytest.mark.parametrize("name,rule", sorted(EXHAUSTIVE_BYTES), ids="-".join)
def test_exhaustive_winners_bytes_are_pinned(example_files, capsys, name, rule):
    # recorded from the Fraction-scored enumeration; ω-Thiele is 0, 1, 4/3, 11/7
    omega = ["--omega", "0,1,4/3,11/7"] if rule == "thiele" else []
    args = ["winners", "--rule", rule, *omega, "-k", "3", "--algo", "exhaustive", "--json"]
    assert cli.main(args + [str(example_files / name)]) == 0
    assert capsys.readouterr().out == EXHAUSTIVE_BYTES[name, rule] + "\n"


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


def test_score_rejects_a_repeated_committee_member(example_files, capsys):
    path = str(example_files / "example1.json")
    assert cli.main(["score", "--rule", "av", "--committee", "x,x", path]) == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith("error:")
    assert cli.main(["score", "--rule", "av", "--committee", "x,y", path]) == cli.EXIT_YES
    assert capsys.readouterr().out.startswith("{x,y} ")


def test_usage_error_exit_two(example_files):
    proc = run_cli(["winners", "--rule", "banana", "-k", "1", "example1.json"], example_files)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")


def test_solve_manip_rejects_k_past_the_roster(tmp_path, capsys):
    path = tmp_path / "sdcm.json"
    path.write_text(json.dumps({"candidates": ["a", "b", "c"], "votes": [["a"]], "manipulators": [["b"]],
                                "k": 5, "variant": "SDCM"}))
    assert cli.main(["solve-manip", "--rule", "sav", "--algo", "bruteforce", str(path)]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == "error: need 1 <= k <= |C|\n"


@pytest.mark.parametrize(
    "args",
    [
        ["winners", "--rule", "av", "-k", "1"],
        ["score", "--rule", "av", "--candidate", "a"],
        ["jcc", "--rule", "av", "-k", "1"],
        ["solve-manip", "--rule", "av"],
        ["solve-control", "--rule", "av"],
        ["gen", "--kind", "CcdvSavRx3c"],
    ],
    ids=lambda args: args[0],
)
@pytest.mark.parametrize("document", [[1, 2], "votes", 3, None])
def test_non_object_input_exits_two(tmp_path, capsys, args, document):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(document))
    assert cli.main(args + [str(path)]) == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith("error:")


MANIP = {"candidates": ["a", "b"], "votes": [["a"]], "manipulators": [["b"]], "k": 1,
         "baseline_committee": ["a"]}


@pytest.mark.parametrize(
    "args,document,key",
    [
        (["winners", "--rule", "av", "-k", "1"], {"candidates": ["a", 1], "votes": []}, "candidates"),
        (["winners", "--rule", "av", "-k", "1"], {"candidates": ["a"], "votes": None}, "votes"),
        (["winners", "--rule", "av", "-k", "1"], {"candidates": ["a"], "votes": [[["a"]]]}, "votes"),
        (["winners", "--rule", "av", "-k", "1"], {"candidates": "ab", "votes": []}, "candidates"),
        (["winners", "--rule", "av", "-k", "1"], {"candidates": ["a", "b"], "votes": ["ab"]}, "votes"),
        (["solve-manip", "--rule", "sav"], {**MANIP, "k": True}, "k"),
        (["jcc", "--rule", "av"], {"candidates": ["a"], "votes": [], "J": "a", "k": 1}, "J"),
        (["solve-control", "--rule", "sav"],
         {"type": "CCDV", "candidates": ["a"], "votes": [["a"]], "k": 1, "J": ["a"], "budget": 1.5},
         "budget"),
        (["gen", "--kind", "CcdvSavRx3c"], {"universe": ["a", "b", "c"], "sets": "abc"}, "sets"),
    ],
    ids=["label-not-string", "votes-null", "nested-ballot", "roster-string", "ballot-string",
         "k-bool", "J-string", "budget-float", "sets-string"],
)
def test_ill_typed_key_exits_two_naming_it(tmp_path, capsys, args, document, key):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(document))
    assert cli.main(args + [str(path)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: '{key}' must be")


LABEL = st.sampled_from(["a", "b", "c", ""])
JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.floats(allow_nan=False, width=16) | LABEL,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(LABEL, inner, max_size=3),
    max_leaves=10,
)
INPUT_KEYS = [
    "candidates", "votes", "manipulators", "k", "J", "variant", "baseline_committee",
    "ballot_blocks", "type", "budget", "budget_add", "budget_delete", "unregistered_votes",
    "unregistered_candidates", "universe", "sets", "vertices", "edges", "kappa",
]
# any JSON, or objects over the input keys with values that often have the right type
INPUT_DOCUMENT = JSON_VALUE | st.dictionaries(
    st.sampled_from(INPUT_KEYS),
    st.lists(LABEL, max_size=4) | st.lists(st.lists(LABEL, max_size=3), max_size=4)
    | st.sampled_from(["CBCM", "SBCM", "SDCM", "CCAV", "CCDC", "JCC"]) | JSON_VALUE,
    max_size=10,
)
FILE_COMMANDS = [
    ["winners", "--rule", "sav", "-k", "1"],
    ["score", "--rule", "av", "--candidate", "a"],
    ["jcc", "--rule", "pav"],
    ["solve-manip", "--rule", "sav"],
    ["solve-manip", "--rule", "sav", "--algo", "bruteforce"],
    ["solve-control", "--rule", "mav"],
    ["gen", "--kind", "CcdvSavRx3c"],
    ["gen", "--kind", "ManipAvVc"],
]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(args=st.sampled_from(FILE_COMMANDS), document=INPUT_DOCUMENT)
def test_no_input_file_is_an_internal_error(args, document):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "input.json")
        with open(path, "w") as handle:
            json.dump(document, handle)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(args + [path])
    assert code != cli.EXIT_INTERNAL, err.getvalue()
    if code == cli.EXIT_USAGE:
        assert err.getvalue().startswith("error:")


def test_gen_rejects_a_source_of_the_other_problem(tmp_path, capsys):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"vertices": [], "edges": []}))
    assert cli.main(["gen", "--kind", "CcdvSavRx3c", str(path)]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == "error: CcdvSavRx3c reduces from RX3C, which takes a Rx3cInstance\n"


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
    def test_election_round_trip(self):
        obj = {"candidates": ["a", "b", "c"], "votes": [["a", "b"], [], ["c"]]}
        election = serialize.load_election(obj)
        assert election == Election(["a", "b", "c"], [{"a", "b"}, set(), {"c"}])
        assert [sorted(v) for v in election.votes] == obj["votes"]

    def test_manipulation_round_trip(self, example1_election):
        cands, honest, manip = example1_election
        inst = man.ManipulationInstance(SAV, "CBCM", cands, honest, manip, 2, {"x", "y"})
        obj = serialize.manipulation_instance_to_obj(inst)
        again = serialize.load_manipulation_instance(obj, SAV)
        assert again == inst
        # positional lists and sets normalize to tuples and frozensets
        assert inst.candidates == tuple(cands)
        assert inst.honest_votes == tuple(map(frozenset, honest))
        assert inst.manipulative_votes == tuple(map(frozenset, manip))
        assert inst.current_committee == frozenset({"x", "y"}) and inst.ballot_blocks == ()
        blocks = [[{"x"}], [], [{"y"}, ["z"]]]
        listed = man.ManipulationInstance(SAV, "CBCM", cands, honest, manip, 2.0, ["x", "y"], blocks)
        frozen = man.ManipulationInstance(
            SAV, "CBCM", tuple(cands), inst.honest_votes, inst.manipulative_votes, 2,
            frozenset({"x", "y"}),
            ((frozenset({"x"}),), (), (frozenset({"y"}), frozenset({"z"}))),
        )
        assert listed == frozen and hash(listed) == hash(frozen)
        assert type(listed.k) is int and type(listed.current_committee) is frozenset
        assert all(type(b) is frozenset for bs in listed.ballot_blocks for b in bs)
        assert serialize.load_manipulation_instance(
            serialize.manipulation_instance_to_obj(listed), SAV
        ) == listed

    def test_control_round_trip(self):
        inst = ctl.ControlInstance(
            "CCADV", SAV, ["a", "b"], [{"a"}, {"b"}], 1, {"a"},
            unregistered_votes=[{"a"}], budget_add=1, budget_delete=1,
        )
        obj = serialize.control_instance_to_obj(inst)
        assert serialize.load_control_instance(obj, SAV) == inst
        # positional lists and sets normalize to tuples and frozensets
        listed = ctl.ControlInstance(
            "CCADC", SAV, ["a", "b"], [["a"], {"b", "d"}], 2.0, ["a"], ["d"], [], 1, 1
        )
        frozen = ctl.ControlInstance(
            "CCADC", SAV, ("a", "b"), (frozenset({"a"}), frozenset({"b", "d"})), 2,
            frozenset({"a"}), ("d",), (), 1, 1,
        )
        assert listed == frozen and hash(listed) == hash(frozen)
        assert type(listed.k) is int and type(listed.distinguished) is frozenset
        assert type(listed.registered_candidates) is tuple
        assert type(listed.unregistered_candidates) is tuple
        assert all(type(v) is frozenset for v in listed.registered_votes)
        assert serialize.load_control_instance(
            serialize.control_instance_to_obj(listed), SAV
        ) == listed

    def test_source_positional_construction_normalizes(self):
        from abmv import reductions as red

        graph = red.GraphInstance(["u", "v", "w"], [["u", "v"], {"v", "w"}], 1.0)
        assert graph == red.GraphInstance(
            ("u", "v", "w"), frozenset({frozenset({"u", "v"}), frozenset({"v", "w"})}), 1
        )
        assert type(graph.vertices) is tuple and type(graph.kappa) is int
        assert all(type(e) is frozenset for e in graph.edges)
        rx3c = red.Rx3cInstance(["a", "b", "c"], [["a", "b", "c"]] * 3)
        assert rx3c.universe == ("a", "b", "c") and rx3c.sets == (("a", "b", "c"),) * 3
        assert serialize.load_source({"universe": ["a", "b", "c"], "sets": [["a", "b", "c"]] * 3}) == rx3c
        assert hash(rx3c) == hash(red.Rx3cInstance(("a", "b", "c"), (("a", "b", "c"),) * 3))

    def test_budget_key_dispatch(self):
        obj = {"type": "CCDV", "candidates": ["a", "b"], "votes": [["a"]],
               "k": 1, "J": ["a"], "budget": 1}
        inst = serialize.load_control_instance(obj, SAV)
        assert inst.budget_delete == 1 and inst.budget_add is None

    @pytest.mark.parametrize(
        "ctype,field",
        [("CCAV", "budget_add"), ("CCDV", "budget_delete"), ("CCAC", "budget_add"),
         ("CCDC", "budget_delete"), ("CCADV", None), ("CCADC", None), ("JCC", None)],
    )
    def test_budget_key_for_every_type(self, ctype, field):
        obj = {"type": ctype, "candidates": ["a", "b"], "votes": [["a"], ["b"]],
               "k": 1, "J": ["a"], "budget": 1}
        if ctype in ("CCAV", "CCADV", "JCC"):
            obj["unregistered_votes"] = [["a"]]
        if ctype in ("CCAC", "CCADC"):
            obj["unregistered_candidates"] = ["c"]
        if field is None:
            with pytest.raises(ValidationError, match=f"^{ctype} needs budget_add/budget_delete, not 'budget'$"):
                serialize.load_control_instance(obj, SAV)
            return
        inst = serialize.load_control_instance(obj, SAV)
        other = "budget_delete" if field == "budget_add" else "budget_add"
        assert getattr(inst, field) == 1 and getattr(inst, other) is None

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


# ten candidates give 36 committees of three holding a, more than the 9 ways
# to delete at most one of 8 votes
CCDV_TEN = {"type": "CCDV", "candidates": list("abcdefghij"),
            "votes": [["a", "b"], ["c"], ["d", "e"], ["a"], ["f", "g"], ["h"], ["b", "c"], ["i", "j"]],
            "k": 3, "J": ["a"], "budget_delete": 1}
CCDV_FIVE = {"type": "CCDV", "candidates": list("abcde"),
             "votes": [["a", "b"], ["c"], ["b", "c"], ["a", "d"], ["e"]],
             "k": 2, "J": ["a"], "budget_delete": 1}


@pytest.mark.parametrize(
    "instance,node_cap,algorithm",
    [
        (CCDV_TEN, None, "bruteforce"),
        # 4 committees holding a, 6 ways to delete at most one vote
        (CCDV_FIVE, None, "thiele-fpt"),
        # 4 anchors times 10 committees times 6 coefficients exceed a cap of 12
        (CCDV_FIVE, "12", "bruteforce"),
    ],
)
def test_auto_control_picks_thiele_fpt_only_when_it_accepts(
    tmp_path, monkeypatch, capsys, instance, node_cap, algorithm
):
    monkeypatch.delenv("ABMV_NODE_CAP", raising=False)
    if node_cap is not None:
        monkeypatch.setenv("ABMV_NODE_CAP", node_cap)
    (tmp_path / "inst.json").write_text(json.dumps(instance))
    code = cli.main(["solve-control", "--rule", "pav", "--json", str(tmp_path / "inst.json")])
    out = json.loads(capsys.readouterr().out)
    assert code == cli.EXIT_YES
    assert out["algorithm"] == algorithm and out["answer"] == "YES"
    # the library makes the same choice
    chosen, verdict = abmv.solve(serialize.load_control_instance(instance, PAV))
    assert chosen == algorithm and serialize.verdict_to_obj(verdict)["witness"] == out["witness"]


# the set candidates of an exact cover of nine elements by three triples
RX3C_COVER = {"universe": [f"a{i}" for i in range(9)],
              "sets": [["a0", "a1", "a2"], ["a3", "a4", "a5"], ["a6", "a7", "a8"],
                       ["a0", "a3", "a6"], ["a1", "a4", "a7"], ["a2", "a5", "a8"],
                       ["a0", "a4", "a8"], ["a1", "a5", "a6"], ["a2", "a3", "a7"]]}


def test_auto_candidate_control_runs_brute_force(tmp_path):
    """At kappa = 3 color coding's hash family passes its cap on the CCDC
    cover instance, so `auto` sends candidate control to brute force,
    which deletes the cover's set candidates."""
    (tmp_path / "rx3c.json").write_text(json.dumps(RX3C_COVER))
    proc = run_cli(["gen", "--kind", "CcdcSavRx3c", "rx3c.json", "-o", "ccdc.json"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    proc = run_cli(["solve-control", "--rule", "sav", "--json", "ccdc.json"], tmp_path)
    assert proc.returncode == cli.EXIT_YES, proc.stderr
    out = json.loads(proc.stdout)
    assert out["algorithm"] == "bruteforce" and out["answer"] == "YES"
    assert out["witness"]["deleted_candidates"] == ["c(H0)", "c(H1)", "c(H2)"]
