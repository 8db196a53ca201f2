import csv
import json
import math
import shutil
import subprocess
import sys

import pytest

from intervalagg import (
    ALL_AXIOM_IDS,
    DEFAULT_AUDIT_AXIOMS,
    Interval,
    Profile,
    RuleEvaluationError,
    maximal_rule_handle,
)
from intervalagg.cli import (
    CommandError,
    extern_rule_adapter,
    load_phantom_file,
    load_profile_document,
    main,
    parse_rule_spec,
    profile_to_document,
)

from .conftest import BENCHMARK_PROFILE, ROOT, extern_command, src_env

COMMITTEE_DOC = {"agents": [{"lo": 2, "hi": 4}, {"lo": 3, "hi": 6}, {"lo": 1, "hi": 5}]}


@pytest.fixture
def committee_file(tmp_path):
    path = tmp_path / "committee.json"
    path.write_text(json.dumps(COMMITTEE_DOC))
    return str(path)


def console_script(name):
    """Command prefix that runs the console script ``name``.

    The installed script is used when it is on PATH.  In a plain checkout
    the entry point that ``[project.scripts]`` in pyproject.toml declares
    is resolved and called through the current interpreter, the way the
    installed wrapper calls it.
    """
    installed = shutil.which(name)
    if installed is not None:
        return [installed], None
    import tomllib

    with open(ROOT / "pyproject.toml", "rb") as handle:
        target = tomllib.load(handle)["project"]["scripts"][name]
    module, _, function = target.partition(":")
    code = f"import sys; from {module} import {function}; sys.exit({function}())"
    return [sys.executable, "-c", code], src_env()


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDocuments:
    def test_profile_round_trip(self, tmp_path):
        document = profile_to_document(BENCHMARK_PROFILE)
        path = tmp_path / "p.json"
        path.write_text(json.dumps(document))
        assert load_profile_document(str(path)) == BENCHMARK_PROFILE

    def test_integral_floats_serialize_as_integers(self):
        document = profile_to_document(Profile((Interval(1.0, 2.5),)))
        assert document == {"agents": [{"lo": 1, "hi": 2.5}]}

    def test_missing_file(self):
        with pytest.raises(CommandError, match="cannot read"):
            load_profile_document("/nonexistent/profile.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(CommandError, match="not valid JSON"):
            load_profile_document(str(path))

    def test_top_level_must_be_object(self, tmp_path):
        path = tmp_path / "arr.json"
        path.write_text("[1, 2]")
        with pytest.raises(CommandError, match="must be an object"):
            load_profile_document(str(path))

    @pytest.mark.parametrize(
        "document, fragment",
        [
            ({"agents": []}, "nonempty"),
            ({"agents": [{"lo": 1}]}, "'lo' and 'hi'"),
            ({"agents": [{"lo": 1, "hi": True}]}, "must be a number"),
            ({"agents": [{"lo": 3, "hi": 2}]}, "agent 0"),
            ({"agents": [{"lo": 1, "hi": 2}], "labels": ["x", "y"]}, "labels"),
            (
                {
                    "agents": [{"lo": 1, "hi": 2}, {"lo": 3, "hi": 4}],
                    "labels": ["x", "x"],
                },
                "unique",
            ),
        ],
    )
    def test_malformed_profiles(self, tmp_path, document, fragment):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(document))
        with pytest.raises(CommandError, match=fragment):
            load_profile_document(str(path))

    def test_phantom_file_with_infinite_bounds(self, tmp_path):
        path = tmp_path / "ph.json"
        path.write_text(
            json.dumps(
                {
                    "phantoms": [
                        {"lo": "inf", "hi": "Infinity"},
                        {"lo": "-inf", "hi": 5},
                        {"lo": 0, "hi": 1},
                    ]
                }
            )
        )
        vector = load_phantom_file(str(path))
        assert len(vector) == 3
        entries = list(vector)
        assert entries[0].lo == float("inf")
        assert entries[1].lo == float("-inf") and entries[1].hi == 5.0

    def test_oversized_integer_in_profile_exits_2(self, capsys, tmp_path):
        # 10**400 is valid JSON but too large for a float.
        path = tmp_path / "huge.json"
        path.write_text('{"agents": [{"lo": 0, "hi": 1%s}]}' % ("0" * 400))
        code, out, err = run_cli(
            capsys, "aggregate", "--rule", "median", "--profile", str(path)
        )
        assert code == 2
        assert "agent 0" in err and "Traceback" not in err

    def test_oversized_integer_in_phantom_file(self, tmp_path):
        path = tmp_path / "ph.json"
        path.write_text('{"phantoms": [{"lo": 0, "hi": 1%s}]}' % ("0" * 400))
        with pytest.raises(CommandError, match="too large"):
            load_phantom_file(str(path))

    # Each is unreadable JSON: past the int digit limit, not UTF-8, and
    # nested deeper than the decoder's recursion limit.
    @pytest.mark.parametrize(
        "content",
        [
            b'{"agents": [{"lo": 0, "hi": 1' + b"0" * 4999 + b"}]}",
            b'{"agents": [{"lo": 0, "hi": 1}], "labels": ["\xff"]}',
            b"[" * 200000 + b"]" * 200000,
        ],
        ids=["5000_digits", "not_utf8", "nested_200000"],
    )
    @pytest.mark.parametrize("kind", ["profile", "phantoms"])
    def test_unreadable_json_exits_2(
        self, capsys, tmp_path, committee_file, content, kind
    ):
        path = tmp_path / "doc.json"
        path.write_bytes(content)
        if kind == "profile":
            argv = ["--rule", "median", "--profile", str(path)]
        else:
            argv = ["--rule", f"phantoms:{path}", "--profile", committee_file]
        code, _, err = run_cli(capsys, "aggregate", *argv)
        assert code == 2
        assert "not valid JSON" in err

    def test_phantom_bad_bound_string(self, tmp_path):
        path = tmp_path / "ph.json"
        path.write_text(json.dumps({"phantoms": [{"lo": "wide", "hi": 1}]}))
        with pytest.raises(CommandError, match="unrecognised bound string"):
            load_phantom_file(str(path))


class TestRuleSpecs:
    def test_named_rules(self):
        assert parse_rule_spec("median").name == "median"
        assert parse_rule_spec("maximal").name == "maximal"
        assert parse_rule_spec("averaging").name == "averaging"
        assert parse_rule_spec(" endpoint:2,3 ").name == "endpoint:2,3"

    def test_malformed_specs(self):
        with pytest.raises(CommandError, match="unrecognised rule spec"):
            parse_rule_spec("mean")
        with pytest.raises(CommandError, match="needs 'endpoint:p,q'"):
            parse_rule_spec("endpoint:2")
        with pytest.raises(CommandError, match="must be integers"):
            parse_rule_spec("endpoint:a,b")
        with pytest.raises(CommandError, match="must be integers"):
            parse_rule_spec("endpoint:1.5,2")
        # int alone would read these as endpoint:10,2 and endpoint:1,2.
        for spec in ("endpoint:1_0,2", "endpoint:\u0661,\u0662"):
            with pytest.raises(CommandError, match="must be integers") as info:
                parse_rule_spec(spec)
            assert info.value.exit_code == 2

    def test_nonpositive_quotas_are_parameter_errors(self):
        with pytest.raises(CommandError) as info:
            parse_rule_spec("endpoint:0,1")
        assert info.value.exit_code == 3

    def test_unparsable_extern_command(self):
        with pytest.raises(CommandError, match="cannot parse extern"):
            parse_rule_spec('extern:"unclosed')

    # The timeout is checked whatever the rule; a median aggregate used to
    # ignore it and exit 0.
    @pytest.mark.parametrize(
        "timeout, rule",
        [
            pytest.param(timeout, rule, id=timeout + suffix)
            for rule, suffix in (("extern", ""), ("median", "-median"))
            for timeout in ("nan", "inf", "-1", "0", "1e9")
        ],
    )
    def test_timeout_must_be_positive_and_bounded(
        self, capsys, committee_file, timeout, rule
    ):
        if rule == "extern":
            rule = f"extern:{extern_command('hang.py')}"
        code, out, err = run_cli(
            capsys, "aggregate", "--rule", rule,
            "--timeout", timeout, "--profile", committee_file,
        )
        assert code == 2
        assert out == ""
        assert "--timeout must be positive" in err

    def test_empty_extern_command(self):
        with pytest.raises(CommandError, match="command is empty"):
            parse_rule_spec("extern:   ")


class TestAggregateCommand:
    def test_median_golden(self, capsys, committee_file):
        code, out, err = run_cli(
            capsys, "aggregate", "--rule", "median", "--profile", committee_file
        )
        assert code == 0
        assert out.strip() == '{"lo": 2, "hi": 5}'

    def test_endpoint_rule_golden(self, capsys, committee_file):
        code, out, _ = run_cli(
            capsys, "aggregate", "--rule", "endpoint:1,3", "--profile", committee_file
        )
        assert code == 0
        assert out.strip() == '{"lo": 1, "hi": 4}'

    def test_averaging_golden(self, capsys, committee_file):
        code, out, _ = run_cli(
            capsys, "aggregate", "--rule", "averaging", "--profile", committee_file
        )
        assert code == 0
        assert out.strip() == '{"lo": 2, "hi": 5}'

    def test_averaging_means_one_rounding_apart_exit_0(self, capsys, tmp_path):
        # Both means round to the same float; the rule returns it and the
        # next float up instead of failing as if its parameters were bad.
        agents = [{"lo": 11.0, "hi": math.nextafter(11.0, 20.0)}]
        agents += [{"lo": 0.0, "hi": 5e-324}] * 8
        path = tmp_path / "close_means.json"
        path.write_text(json.dumps({"agents": agents}))
        code, out, err = run_cli(
            capsys, "aggregate", "--rule", "averaging", "--profile", str(path)
        )
        assert code == 0, err
        assert json.loads(out) == {"lo": 1.2222222222222223, "hi": 1.2222222222222225}

    def test_phantom_rule_from_file(self, capsys, committee_file, tmp_path):
        phantom_path = tmp_path / "median_phantoms.json"
        phantom_path.write_text(
            json.dumps(
                {
                    "phantoms": [
                        {"lo": "inf", "hi": "inf"},
                        {"lo": "inf", "hi": "inf"},
                        {"lo": "-inf", "hi": "-inf"},
                        {"lo": "-inf", "hi": "-inf"},
                    ]
                }
            )
        )
        code, out, _ = run_cli(
            capsys,
            "aggregate",
            "--rule",
            f"phantoms:{phantom_path}",
            "--profile",
            committee_file,
        )
        assert code == 0
        assert out.strip() == '{"lo": 2, "hi": 5}'

    def test_infeasible_quotas_exit_3(self, capsys, committee_file):
        code, _, err = run_cli(
            capsys, "aggregate", "--rule", "endpoint:3,3", "--profile", committee_file
        )
        assert code == 3
        assert "quotas (3, 3)" in err and "3 agents" in err

    def test_wrong_phantom_count_exit_3(self, capsys, committee_file, tmp_path):
        phantom_path = tmp_path / "short.json"
        phantom_path.write_text(
            json.dumps({"phantoms": [{"lo": 0, "hi": 1}]})
        )
        code, _, err = run_cli(
            capsys,
            "aggregate",
            "--rule",
            f"phantoms:{phantom_path}",
            "--profile",
            committee_file,
        )
        assert code == 3
        assert "n_agents + 1" in err

    def test_missing_profile_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "aggregate", "--rule", "median", "--profile", "/no/such.json"
        )
        assert code == 2
        assert "cannot read" in err

    def test_unknown_rule_exit_2(self, capsys, committee_file):
        code, _, err = run_cli(
            capsys, "aggregate", "--rule", "mystery", "--profile", committee_file
        )
        assert code == 2
        assert "unrecognised rule spec" in err


class TestExternAdapter:
    def test_matches_maximal_rule_on_random_profiles(self):
        import random

        adapter = extern_rule_adapter(extern_command("union_bounds.py"))
        maximal = maximal_rule_handle()
        rng = random.Random(3)
        for _ in range(40):
            entries = []
            for _ in range(rng.randint(1, 4)):
                lo = rng.uniform(-20, 20)
                entries.append(Interval(lo, lo + rng.uniform(0.5, 10)))
            profile = Profile(entries)
            assert adapter(profile) == maximal(profile)

    def test_cli_aggregate_through_adapter(self, capsys, committee_file):
        code, out, _ = run_cli(
            capsys,
            "aggregate",
            "--rule",
            f"extern:{extern_command('union_bounds.py')}",
            "--profile",
            committee_file,
        )
        assert code == 0
        assert out.strip() == '{"lo": 1, "hi": 6}'

    def test_garbage_output_is_evaluation_error(self):
        adapter = extern_rule_adapter(extern_command("garbage.py"))
        with pytest.raises(RuleEvaluationError, match="invalid JSON"):
            adapter(BENCHMARK_PROFILE)

    def test_garbage_rule_at_cli_exits_2(self, capsys, committee_file):
        code, _, err = run_cli(
            capsys,
            "aggregate",
            "--rule",
            f"extern:{extern_command('garbage.py')}",
            "--profile",
            committee_file,
        )
        assert code == 2
        assert "rule evaluation failed" in err

    def test_crashing_rule_is_evaluation_error(self, capsys, committee_file):
        command = extern_command("crash.py")
        with pytest.raises(
            RuleEvaluationError,
            match="rule process exited 1: crash fixture: cannot aggregate",
        ):
            extern_rule_adapter(command)(BENCHMARK_PROFILE)
        code, _, err = run_cli(
            capsys, "aggregate", "--rule", f"extern:{command}",
            "--profile", committee_file,
        )
        assert code == 2
        assert "rule evaluation failed" in err and "Traceback" not in err

    @pytest.mark.parametrize("reply", ["[1, 2]", '{"lo": 1}', "3"])
    def test_reply_that_is_not_a_bounds_object_is_evaluation_error(
        self, capsys, tmp_path, committee_file, reply
    ):
        script = tmp_path / "non_object_reply.py"
        script.write_text(f"import sys\nsys.stdin.read()\nprint({reply!r})\n")
        command = f"{sys.executable} {script}"
        with pytest.raises(
            RuleEvaluationError,
            match="rule reply must be an object with 'lo' and 'hi'",
        ):
            extern_rule_adapter(command)(BENCHMARK_PROFILE)
        code, _, err = run_cli(
            capsys, "aggregate", "--rule", f"extern:{command}",
            "--profile", committee_file,
        )
        assert code == 2
        assert "rule evaluation failed" in err and "Traceback" not in err

    # 401 digits overflow float(); 5000 pass the int digit limit of json.
    @pytest.mark.parametrize("digits", [401, 5000])
    def test_oversized_integer_reply_is_evaluation_error(
        self, capsys, tmp_path, committee_file, digits
    ):
        script = tmp_path / "huge_reply.py"
        script.write_text(
            "import sys\n"
            "sys.stdin.read()\n"
            f"print('{{\"lo\": 1' + '0' * {digits - 1} + ', \"hi\": 2}}')\n"
        )
        command = f"{sys.executable} {script}"
        with pytest.raises(RuleEvaluationError):
            extern_rule_adapter(command)(BENCHMARK_PROFILE)
        code, _, err = run_cli(
            capsys, "aggregate", "--rule", f"extern:{command}",
            "--profile", committee_file,
        )
        assert code == 2
        assert "rule evaluation failed" in err and "Traceback" not in err

    # A reply's bounds follow the number rule of profile files.
    @pytest.mark.parametrize("reply", [
        '{"lo": "1", "hi": 2}',
        '{"lo": " 1e0 ", "hi": 2}',
        '{"lo": true, "hi": 2}',
        '{"lo": 1, "hi": "2"}',
        '{"lo": null, "hi": 2}',
    ])
    def test_non_number_bound_is_evaluation_error(
        self, capsys, tmp_path, committee_file, reply
    ):
        script = tmp_path / "non_number_reply.py"
        script.write_text(f"import sys\nsys.stdin.read()\nprint({reply!r})\n")
        command = f"{sys.executable} {script}"
        with pytest.raises(RuleEvaluationError, match="not an interval"):
            extern_rule_adapter(command)(BENCHMARK_PROFILE)
        code, _, err = run_cli(
            capsys, "aggregate", "--rule", f"extern:{command}",
            "--profile", committee_file,
        )
        assert code == 2
        assert "rule evaluation failed" in err and "Traceback" not in err

    def test_deeply_nested_reply_is_evaluation_error(
        self, capsys, tmp_path, committee_file
    ):
        script = tmp_path / "deep_reply.py"
        script.write_text(
            "import sys\n"
            "sys.stdin.read()\n"
            "print('[' * 200000 + ']' * 200000)\n"
        )
        command = f"{sys.executable} {script}"
        with pytest.raises(RuleEvaluationError, match="invalid JSON"):
            extern_rule_adapter(command)(BENCHMARK_PROFILE)
        code, _, err = run_cli(
            capsys, "aggregate", "--rule", f"extern:{command}",
            "--profile", committee_file,
        )
        assert code == 2
        assert "rule evaluation failed" in err
        code, _, err = run_cli(
            capsys, "audit", "--rule", f"extern:{command}", "--n", "2",
            "--samples", "10", "--axioms", "Unanimity",
            "--out", str(tmp_path / "r.json"),
        )
        assert code == 2
        assert "audit aborted" in err

    def test_timeout_is_evaluation_error(self):
        adapter = extern_rule_adapter(extern_command("hang.py"), timeout=0.5)
        with pytest.raises(RuleEvaluationError, match="timed out"):
            adapter(BENCHMARK_PROFILE)

    # True was a 1 s timeout and "5" a bare TypeError.
    @pytest.mark.parametrize("timeout", [True, "5", None])
    def test_timeout_must_be_a_number(self, timeout):
        with pytest.raises(CommandError, match="timeout must be positive"):
            extern_rule_adapter(extern_command("hang.py"), timeout=timeout)

    def test_missing_program_is_evaluation_error(self):
        adapter = extern_rule_adapter("/no/such/binary")
        with pytest.raises(RuleEvaluationError, match="cannot launch"):
            adapter(BENCHMARK_PROFILE)


class TestAuditCommand:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--axioms", ","], "empty --axioms list"),
            (["--out", "missing/r.json"], "cannot write"),
        ],
        ids=["empty_axioms", "unwritable_out"],
    )
    def test_input_errors_print_nothing(
        self, capsys, monkeypatch, tmp_path, argv, message
    ):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(
            capsys, "audit", "--rule", "median", "--n", "3", "--samples", "5",
            "--out", "r.json", *argv,
        )
        assert code == 2
        assert out == ""
        assert message in err
        assert not (tmp_path / "r.json").exists()

    def test_axioms_help_lists_the_default_and_opt_in_ids(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "1000")  # one line per option
        with pytest.raises(SystemExit):
            main(["audit", "--help"])
        opt_in = [a for a in ALL_AXIOM_IDS if a not in DEFAULT_AUDIT_AXIOMS]
        listed = (
            f"(default: {', '.join(DEFAULT_AUDIT_AXIOMS)}; "
            f"opt-in: {', '.join(opt_in)})"
        )
        assert listed in capsys.readouterr().out

    def test_compliant_rule_exits_0_and_writes_report(
        self, capsys, tmp_path
    ):
        report_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys,
            "audit",
            "--rule",
            "endpoint:1,2",
            "--n",
            "4",
            "--samples",
            "500",
            "--seed",
            "7",
            "--out",
            str(report_path),
        )
        assert code == 0
        assert f"report written to {report_path}" in out
        data = json.loads(report_path.read_text())
        assert data["rule"] == "endpoint:1,2"
        assert all(r["failures"] == 0 for r in data["results"].values())

    def test_averaging_exits_1(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys,
            "audit",
            "--rule",
            "averaging",
            "--n",
            "3",
            "--samples",
            "300",
            "--seed",
            "7",
            "--out",
            str(report_path),
        )
        assert code == 1
        data = json.loads(report_path.read_text())
        assert data["results"]["WeakNeutrality"]["failures"] > 0

    # A child process audits in two processes; the audit's own forked
    # child must neither keep the output pipe open nor flush stdio again.
    def test_audit_child_exits_promptly_and_prints_once(self, capsys, tmp_path):
        argv = ["audit", "--rule", "averaging", "--n", "3", "--samples", "200",
                "--seed", "3", "--out"]
        child_report = tmp_path / "child.json"
        child = subprocess.run(
            [sys.executable, "-m", "intervalagg", *argv, str(child_report)],
            capture_output=True, text=True, timeout=60, env=src_env(),
        )
        report = tmp_path / "report.json"
        code, out, err = run_cli(capsys, *argv, str(report))
        assert child.returncode == code == 1
        assert child.stdout == out.replace(str(report), str(child_report))
        assert child.stdout.count("rule averaging:") == 1
        assert child.stdout.count("report written to") == 1
        assert child.stderr == err == ""
        assert child_report.read_text() == report.read_text()

    def test_zero_samples_exit_0(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys,
            "audit",
            "--rule",
            "averaging",
            "--n",
            "2",
            "--samples",
            "0",
            "--out",
            str(tmp_path / "r.json"),
        )
        assert code == 0

    def test_axiom_subset(self, capsys, tmp_path):
        report_path = tmp_path / "r.json"
        code, _, _ = run_cli(
            capsys,
            "audit",
            "--rule",
            "averaging",
            "--n",
            "2",
            "--samples",
            "200",
            "--axioms",
            "Unanimity,Anonymity",
            "--out",
            str(report_path),
        )
        assert code == 0
        data = json.loads(report_path.read_text())
        assert sorted(data["results"]) == ["Anonymity", "Unanimity"]

    def test_unknown_axiom_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "audit",
            "--rule",
            "median",
            "--n",
            "2",
            "--axioms",
            "NoSuchAxiom",
            "--out",
            str(tmp_path / "r.json"),
        )
        assert code == 2
        assert "NoSuchAxiom" in err

    @pytest.mark.parametrize("rule", ["endpoint:3,3", "phantoms"])
    def test_rule_parameters_invalid_for_n_exit_3(self, capsys, tmp_path, rule):
        if rule == "phantoms":
            path = tmp_path / "three.json"
            path.write_text(json.dumps({"phantoms": [{"lo": 0, "hi": 1}] * 3}))
            rule, n = f"phantoms:{path}", "4"
        else:
            n = "2"
        code, _, err = run_cli(
            capsys, "audit", "--rule", rule, "--n", n, "--samples", "5",
            "--out", str(tmp_path / "r.json"),
        )
        assert code == 3
        assert "Traceback" not in err

    def test_output_one_ulp_wide_gets_a_report(self, capsys, tmp_path):
        report_path = tmp_path / "r.json"
        code, _, err = run_cli(
            capsys, "audit", "--rule", f"extern:{extern_command('one_ulp.py')}",
            "--n", "3", "--samples", "3", "--seed", "0",
            "--axioms", "TranslationEquivariance", "--out", str(report_path),
        )
        assert code in (0, 1)
        assert "Traceback" not in err
        data = json.loads(report_path.read_text())
        assert data["results"]["TranslationEquivariance"]["samples"] == 3

    def test_broken_extern_rule_aborts_with_exit_2(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys,
            "audit",
            "--rule",
            f"extern:{extern_command('garbage.py')}",
            "--n",
            "2",
            "--samples",
            "50",
            "--out",
            str(tmp_path / "r.json"),
        )
        assert code == 2
        assert "audit aborted" in err
        assert "ABORTED" in out


class TestIdentifyCommand:
    def test_median_recovered(self, capsys):
        code, out, _ = run_cli(
            capsys, "identify", "--rule", "median", "--n", "3", "--samples", "50"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "staircase profile: [[1, 2], [3, 4], [5, 6]]"
        assert lines[1] == "(2,2)"

    def test_maximal_recovered(self, capsys):
        code, out, _ = run_cli(
            capsys, "identify", "--rule", "maximal", "--n", "4", "--samples", "50"
        )
        assert code == 0
        assert out.strip().splitlines()[-1] == "(1,1)"

    def test_averaging_is_not_an_endpoint_rule(self, capsys):
        code, out, _ = run_cli(
            capsys, "identify", "--rule", "averaging", "--n", "3", "--samples", "50"
        )
        assert code == 0
        assert out.strip().splitlines()[-1] == "not an endpoint rule"

    def test_extern_width_rule_refuted_by_confirmation(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "identify",
            "--rule",
            f"extern:{extern_command('widest_wins.py')}",
            "--n",
            "3",
            "--samples",
            "20",
        )
        assert code == 0
        assert out.strip().splitlines()[-1] == "not an endpoint rule"

    def test_extern_window_rule_refuted_at_read_off(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "identify",
            "--rule",
            f"extern:{extern_command('midpoint_window.py')}",
            "--n",
            "3",
            "--samples",
            "20",
        )
        assert code == 0
        assert out.strip().splitlines()[-1] == "not an endpoint rule"

    def test_zero_samples_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "identify", "--rule", "median", "--n", "3", "--samples", "0"
        )
        assert code == 2
        assert "--samples" in err

    def test_zero_agents_rejected(self, capsys):
        code, _, err = run_cli(capsys, "identify", "--rule", "median", "--n", "0")
        assert code == 2
        assert "--n" in err

    def test_rule_that_fails_prints_nothing(self, capsys):
        code, out, err = run_cli(
            capsys, "identify", "--rule", "endpoint:2,2", "--n", "2"
        )
        assert code == 3
        assert out == ""
        assert "quotas (2, 2) invalid for 2 agents" in err


class TestManipulateCommand:
    def test_averaging_manipulation_found_exits_1(self, capsys, committee_file):
        code, out, _ = run_cli(
            capsys,
            "manipulate",
            "--rule",
            "averaging",
            "--profile",
            committee_file,
            "--agent",
            "1",
        )
        assert code == 1
        assert "found manipulation for agent 1" in out
        assert "misreport:" in out and "cost drop:" in out

    def test_median_safe_exits_0(self, capsys, committee_file):
        code, out, _ = run_cli(
            capsys,
            "manipulate",
            "--rule",
            "median",
            "--profile",
            committee_file,
            "--agent",
            "2",
        )
        assert code == 0
        assert "no manipulation found" in out
        assert out.startswith("truthful outcome: [2, 5]")

    def test_penalty_preference_spec(self, capsys, committee_file):
        code, out, _ = run_cli(
            capsys,
            "manipulate",
            "--rule",
            "median",
            "--profile",
            committee_file,
            "--agent",
            "1",
            "--pref",
            "penalty:0,10",
        )
        assert code == 0

    @pytest.mark.parametrize("rule", ["median", "averaging"])
    def test_near_float_max_profile(self, capsys, tmp_path, rule):
        path = tmp_path / "huge.json"
        path.write_text(
            json.dumps(
                {
                    "agents": [
                        {"lo": -1e308, "hi": 1e308},
                        {"lo": -1.5e308, "hi": 1.2e308},
                        {"lo": 0, "hi": 1},
                    ]
                }
            )
        )
        code, out, err = run_cli(
            capsys, "manipulate", "--rule", rule, "--profile", str(path),
            "--agent", "1",
        )
        assert code in (0, 1), err
        assert "truthful outcome" in out

    def test_1001_agent_profile_exits_0(self, capsys, write_profile):
        # The clamp search tries a few hundred candidates, not about 8M.
        profile = [Interval(k, k + 1001.5) for k in range(1001)]
        path = write_profile(profile)
        code, out, err = run_cli(
            capsys, "manipulate", "--rule", "median", "--profile", str(path),
            "--agent", "7",
        )
        assert code == 0, err
        assert out.startswith("truthful outcome: [500, 1501.5]")
        assert "no manipulation found" in out

    def test_agent_out_of_range_exits_2(self, capsys, committee_file):
        code, _, err = run_cli(
            capsys,
            "manipulate",
            "--rule",
            "median",
            "--profile",
            committee_file,
            "--agent",
            "9",
        )
        assert code == 2
        assert "out of range 1..3" in err

    def test_bad_preference_spec_exits_2(self, capsys, committee_file):
        code, _, err = run_cli(
            capsys,
            "manipulate",
            "--rule",
            "median",
            "--profile",
            committee_file,
            "--agent",
            "1",
            "--pref",
            "quadratic",
        )
        assert code == 2
        assert "unrecognised preference spec" in err

    def test_bad_weights_exit_2(self, capsys, committee_file):
        code, _, err = run_cli(
            capsys,
            "manipulate",
            "--rule",
            "median",
            "--profile",
            committee_file,
            "--agent",
            "1",
            "--pref",
            "weighted:-1,1",
        )
        assert code == 2

    # Exit 1 is a found manipulation against averaging; every malformed
    # spec exits 2 with a diagnostic and prints nothing.
    @pytest.mark.parametrize(
        "pref, expected, message",
        [
            ("weighted", 1, ""),
            ("weighted:", 1, ""),
            (" weighted:2,3 ", 1, ""),
            ("weighted:1", 2, "needs 'weighted:a,b'"),
            ("weighted:1,1,1", 2, "needs 'weighted:a,b'"),
            ("weighted:a,b", 2, "weighted preference"),
            ("weighted:0,1", 2, "lower_weight must be >= 5e-324"),
            ("weighted:inf,1", 2, "finite number"),
            ("weighted:1e400,1", 2, "finite number"),
            ("weighted:nan,1", 2, "finite number"),
            ("penalty:1", 2, "needs 'penalty:lo,hi'"),
            ("penalty:x,2", 2, "penalty"),
            ("penalty:1,nan", 2, "penalty"),
            ("penalty:1e400,2", 2, "penalty"),
            ("penalty:2,1", 2, "lo < hi"),
            ("weighted:1_0,1", 2, "weighted preference values must be numbers"),
            ("weighted:\u0661,2", 2, "weighted preference values must be numbers"),
            ("penalty:1_0,20", 2, "penalty preference values must be numbers"),
            ("penalty:1,\u0662\u0660", 2, "penalty preference values must be numbers"),
        ],
    )
    def test_preference_spec_grammar(
        self, capsys, committee_file, pref, expected, message
    ):
        code, out, err = run_cli(
            capsys, "manipulate", "--rule", "averaging", "--profile",
            committee_file, "--agent", "1", "--pref", pref,
        )
        assert code == expected, err
        assert "Traceback" not in err
        if expected == 1:
            assert err == "" and "found manipulation" in out
        else:
            assert out == "" and message in err


class TestSweepCommand:
    def test_benchmark_profile_table_and_csv(self, capsys, committee_file, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        code, out, _ = run_cli(
            capsys, "sweep", "--profile", committee_file, "--out", str(csv_path)
        )
        assert code == 0
        assert "  1   1  (1, 6)" in out
        assert "  1   3  (1, 4)" in out
        assert "  2   2  (2, 5)" in out
        with open(csv_path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 6
        table = {
            (int(r["lower_quota"]), int(r["upper_quota"])): (
                float(r["lo"]),
                float(r["hi"]),
            )
            for r in rows
        }
        assert table[(1, 1)] == (1.0, 6.0)
        assert table[(2, 2)] == (2.0, 5.0)
        assert table[(3, 1)] == (3.0, 6.0)

    def test_quota_monotonicity_over_csv(self, committee_file, tmp_path, capsys):
        csv_path = tmp_path / "sweep.csv"
        run_cli(capsys, "sweep", "--profile", committee_file, "--out", str(csv_path))
        with open(csv_path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        table = {
            (int(r["lower_quota"]), int(r["upper_quota"])): (
                float(r["lo"]),
                float(r["hi"]),
            )
            for r in rows
        }
        for (p, q), (lo, hi) in table.items():
            if (p + 1, q) in table:
                assert table[(p + 1, q)][0] >= lo
            if (p, q + 1) in table:
                assert table[(p, q + 1)][1] <= hi

    def test_single_agent_profile(self, capsys, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"agents": [{"lo": 0, "hi": 9}]}))
        csv_path = tmp_path / "one.csv"
        code, out, _ = run_cli(
            capsys, "sweep", "--profile", path.as_posix(), "--out", str(csv_path)
        )
        assert code == 0
        with open(csv_path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 1
        assert rows[0]["lo"] == "0.0" and rows[0]["hi"] == "9.0"

    def test_unwritable_out_prints_nothing(self, capsys, committee_file, tmp_path):
        csv_path = tmp_path / "missing" / "sweep.csv"
        code, out, err = run_cli(
            capsys, "sweep", "--profile", committee_file, "--out", str(csv_path)
        )
        assert code == 2
        assert out == ""
        assert "cannot write" in err


class TestInstalledEntryPoints:
    def test_module_execution(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(COMMITTEE_DOC))
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "intervalagg",
                "aggregate",
                "--rule",
                "median",
                "--profile",
                str(path),
            ],
            capture_output=True,
            text=True,
            timeout=60,
            env=src_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == '{"lo": 2, "hi": 5}'

    def test_console_script(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(COMMITTEE_DOC))
        command, env = console_script("intervalagg")
        proc = subprocess.run(
            [
                *command,
                "aggregate",
                "--rule",
                "endpoint:2,2",
                "--profile",
                str(path),
            ],
            capture_output=True,
            text=True,
            timeout=60,
            env=env,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == '{"lo": 2, "hi": 5}'

    def test_import_leaves_fractions_and_decimal_unloaded(self):
        # The exact mean needs no Fraction; importing fractions (and the
        # decimal module it pulls in) would add a few ms to every CLI start.
        code = (
            "import sys, intervalagg.cli; "
            "print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=60,
            env=src_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
