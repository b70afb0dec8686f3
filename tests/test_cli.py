"""The command line front end and the architecture file formats."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from flowrefine import cli
from flowrefine.archfile import (
    elaborate_architecture,
    parse_architecture,
    render_architecture,
)
from flowrefine.cli import main

CASES = Path(__file__).parent.parent / "cases"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRoundTrips:
    @pytest.mark.parametrize("name", [
        "original.arch",
        "final.arch",
        "small_original.arch",
        "small_broken_final.arch",
        "every_rule_final.arch",
    ])
    def test_canonical_files_render_byte_identically(self, name):
        text = (CASES / name).read_text(encoding="utf-8")
        system = elaborate_architecture(parse_architecture(text))
        assert render_architecture(system) == text


class TestValidate:
    def test_consistent_architecture(self, capsys):
        code, out, _ = run_cli(capsys, "validate", str(CASES / "original.arch"))
        assert code == 0
        assert out.endswith("result: consistent\n")

    def test_machines_flag_adds_reports(self, capsys):
        code, out, _ = run_cli(
            capsys, "validate", str(CASES / "original.arch"),
            "--machines", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["ok"] is True
        assert len(data["reports"]) == 3

    @pytest.mark.parametrize("machine", ["m_PRE", "m_RDB"])
    def test_zero_modulus_is_malformed_input(self, capsys, tmp_path, machine):
        lines = (CASES / "original.arch").read_text(encoding="utf-8").splitlines(True)
        (number,) = [n for n, line in enumerate(lines, 1)
                     if line.startswith("machine %s " % machine)]
        lines[number - 1] = lines[number - 1].replace("modulus=3", "modulus=0")
        lines[number - 1] = lines[number - 1].replace("decode=no", "decode=yes")
        bad = tmp_path / "bad.arch"
        bad.write_text("".join(lines), encoding="utf-8")
        code, out, err = run_cli(capsys, "validate", str(bad), "--machines")
        assert code == 2
        assert out == ""
        assert err.startswith("error: line %d: modulus must be at least 1" % number)

    def test_unknown_relay_map_is_malformed_input(self, capsys, tmp_path):
        text = (CASES / "original.arch").read_text(encoding="utf-8")
        (number,) = [n for n, line in enumerate(text.splitlines(), 1)
                     if line.startswith("machine m_PRE ")]
        bad = tmp_path / "bad.arch"
        bad.write_text(text.replace("map=copy", "map=zip"), encoding="utf-8")
        code, out, err = run_cli(capsys, "validate", str(bad), "--machines")
        assert code == 2
        assert out == ""
        assert err == ("error: line %d: unknown relay map 'zip', "
                       "expected one of copy, encode, decode\n" % number)

    @pytest.mark.parametrize("relay, message", [
        ("(relay from=In to=I mpa=encode bogus=1 stray)", "form 'relay' takes no mpa=..."),
        ("(relay from=In to=I stray)", "form 'relay' takes no 'stray'"),
    ])
    def test_unknown_key_or_item_is_malformed_input(self, capsys, tmp_path, relay, message):
        """A misspelled key used to be dropped: the relay built as a copy
        relay and validate passed."""
        text = (CASES / "original.arch").read_text(encoding="utf-8")
        (number,) = [n for n, line in enumerate(text.splitlines(), 1)
                     if line.startswith("machine m_PRE ")]
        bad = tmp_path / "bad.arch"
        bad.write_text(text.replace("(relay from=In to=I map=copy modulus=3)", relay),
                       encoding="utf-8")
        code, out, err = run_cli(capsys, "validate", str(bad))
        assert code == 2
        assert out == ""
        assert err == "error: line %d: %s\n" % (number, message)

    @pytest.mark.parametrize("machine, edits, reader, channel", [
        ("m_PRE", (("map=copy", "map=encode"), ("alphabet In a.0 a.1 a.2", "alphabet In x y")),
         "relay map=encode", "In"),
        ("m_RDB", (("alphabet I a.0 a.1 a.2", "alphabet I x y"),), "database", "I"),
    ])
    def test_entry_reader_over_plain_tokens_is_malformed_input(
            self, capsys, tmp_path, machine, edits, reader, channel):
        text = (CASES / "original.arch").read_text(encoding="utf-8")
        for old, new in edits:
            text = text.replace(old, new)
        (number,) = [n for n, line in enumerate(text.splitlines(), 1)
                     if line.startswith("machine %s " % machine)]
        bad = tmp_path / "bad.arch"
        bad.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "validate", str(bad), "--machines")
        assert code == 2
        assert out == ""
        assert err.startswith("error: line %d: %s reads key.value tokens on %s"
                              % (number, reader, channel))

    def test_unknown_machine_name_is_reported_once_on_its_line(self, capsys, tmp_path):
        """The message used to read 'line N: line 0: unknown machine name'."""
        text = (CASES / "original.arch").read_text(encoding="utf-8")
        (number,) = [n for n, line in enumerate(text.splitlines(), 1)
                     if line.startswith("component PRE ")]
        bad = tmp_path / "bad.arch"
        bad.write_text(text.replace("machine=m_PRE", "machine=nope"), encoding="utf-8")
        code, out, err = run_cli(capsys, "validate", str(bad))
        assert (code, out) == (2, "")
        assert err == "error: line %d: unknown machine name 'nope'\n" % number

    def test_inconsistent_architecture(self, capsys, tmp_path):
        bad = tmp_path / "bad.arch"
        bad.write_text(
            (CASES / "original.arch").read_text(encoding="utf-8").replace(
                "outputs Data", "outputs R"),
            encoding="utf-8")
        code, out, _ = run_cli(capsys, "validate", str(bad))
        assert code == 1
        assert "result: INCONSISTENT" in out
        assert "outputs-component-controlled" in out


class TestSimulate:
    def test_matches_golden_run_listing(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", str(CASES / "original.arch"),
            "--env", str(CASES / "simulate_env.txt"))
        assert code == 0
        assert out == (CASES / "simulate_out.txt").read_text(encoding="utf-8")

    def test_json_count_agrees(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", str(CASES / "original.arch"),
            "--env", str(CASES / "simulate_env.txt"), "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["count"] == 13 and len(data["runs"]) == 13

    def test_env_channel_mismatch(self, capsys, tmp_path):
        env = tmp_path / "env.txt"
        env.write_text("stream Data [] [] [] []\n", encoding="utf-8")
        code, _, err = run_cli(
            capsys, "simulate", str(CASES / "original.arch"),
            "--env", str(env))
        assert code == 2
        assert err.startswith("error:")

    def test_env_horizon_mismatch(self, capsys, tmp_path):
        env = tmp_path / "env.txt"
        env.write_text("stream In [a.1]\nstream Key [a]\n", encoding="utf-8")
        code, _, err = run_cli(
            capsys, "simulate", str(CASES / "original.arch"),
            "--env", str(env))
        assert code == 2
        assert "horizon" in err


class TestCheckRefine:
    def test_system_refines_itself(self, capsys):
        code, out, _ = run_cli(
            capsys, "check-refine", str(CASES / "small_original.arch"),
            str(CASES / "small_original.arch"))
        assert code == 0
        assert out == "refines: yes\n"

    def test_coarse_horizon_misses_the_defect(self, capsys):
        code, out, _ = run_cli(
            capsys, "check-refine", str(CASES / "small_original.arch"),
            str(CASES / "small_broken_final.arch"))
        assert code == 0
        assert out == "refines: yes\n"

    def test_longer_horizon_finds_it(self, capsys):
        code, out, _ = run_cli(
            capsys, "check-refine", str(CASES / "small_original.arch"),
            str(CASES / "small_broken_final.arch"), "--horizon", "6",
            "--format", "json")
        assert code == 1
        data = json.loads(out)
        assert data["refines"] is False
        assert "counterexample" in data

    def test_interface_mismatch_is_malformed_input(self, capsys, tmp_path):
        widened = tmp_path / "widened.arch"
        widened.write_text(
            (CASES / "original.arch").read_text(encoding="utf-8").replace(
                "outputs Data", "outputs Data I"),
            encoding="utf-8")
        code, _, err = run_cli(
            capsys, "check-refine", str(CASES / "original.arch"), str(widened))
        assert code == 2
        assert "error:" in err

    def test_different_declared_bounds_are_malformed_input(self, capsys, tmp_path):
        """Each side's machines are sized by its own bounds, so the sides
        must declare the same horizon and burst unless the options set
        both."""
        short = tmp_path / "short.arch"
        short.write_text(
            (CASES / "final.arch").read_text(encoding="utf-8").replace(
                "bounds horizon=4 burst=1", "bounds horizon=2 burst=1"),
            encoding="utf-8")
        argv = ("check-refine", str(CASES / "original.arch"), str(short))
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == "error: systems differ in (horizon, burst): (4, 1) vs (2, 1)\n"
        code, out, _ = run_cli(capsys, *argv, "--horizon", "2")
        assert code == 0
        assert out == "refines: yes\n"


class TestApplyScript:
    def test_reproduces_the_golden_final_architecture(self, capsys, tmp_path):
        produced = tmp_path / "final.arch"
        code, out, _ = run_cli(
            capsys, "apply-script", str(CASES / "original.arch"),
            str(CASES / "refine.script"), "--output", str(produced))
        assert code == 0
        assert out.endswith("script: ok\n")
        assert produced.read_bytes() == (CASES / "final.arch").read_bytes()

    def test_small_script_reproduces_its_golden(self, capsys, tmp_path):
        produced = tmp_path / "small.arch"
        code, _, _ = run_cli(
            capsys, "apply-script", str(CASES / "small_original.arch"),
            str(CASES / "small_broken.script"), "--output", str(produced))
        assert code == 0
        assert produced.read_bytes() == (
            CASES / "small_broken_final.arch").read_bytes()

    def test_every_rule_script_reproduces_its_golden(self, capsys, tmp_path):
        produced = tmp_path / "every_rule.arch"
        code, out, _ = run_cli(
            capsys, "apply-script", str(CASES / "small_original.arch"),
            str(CASES / "every_rule.script"), "--output", str(produced))
        assert code == 0
        assert out.endswith("script: ok\n")
        assert produced.read_bytes() == (CASES / "every_rule_final.arch").read_bytes()

    @pytest.mark.parametrize("fmt", ["txt", "json"])
    @pytest.mark.parametrize("golden, code, argv", [
        ("apply_refine_h4", 0, ("original.arch", "refine.script")),
        ("apply_broken_h5", 1, ("original.arch", "broken.script", "--horizon", "5")),
        ("apply_small_broken_h5", 1,
         ("small_original.arch", "small_broken.script", "--horizon", "5")),
        ("apply_every_rule", 0, ("small_original.arch", "every_rule.script")),
    ])
    def test_stdout_matches_its_golden(self, capsys, golden, code, argv, fmt):
        """Every report of every step, passing and failing, byte for byte."""
        args = [str(CASES / argv[0]), str(CASES / argv[1]), *argv[2:]]
        if fmt == "json":
            args += ["--format", "json"]
        got, out, _ = run_cli(capsys, "apply-script", *args)
        assert got == code
        expected = Path(__file__).parent / "goldens" / ("%s.%s" % (golden, fmt))
        assert out == expected.read_text(encoding="utf-8")

    def test_wider_bounds_reject_the_broken_decoder(self, capsys):
        code, out, _ = run_cli(
            capsys, "apply-script", str(CASES / "small_original.arch"),
            str(CASES / "small_broken.script"), "--horizon", "5")
        assert code == 1
        assert "invariant-valid" in out
        assert out.endswith("script: FAILED\n")
        assert "step 11" not in out

    def test_excluded_environment_is_the_shortest_refused_prefix(self, capsys, tmp_path):
        """An invariant whose support covers two env channels: the tokens
        on ``In`` must be a prefix of those on ``Key``, so a token on
        ``In`` in the first interval already rules the environment out.
        The report is that one-interval prefix padded with silence,
        although ``In [] [] [a.0]`` comes first among whole histories
        ordered channel by channel."""
        script = tmp_path / "lag.script"
        script.write_text(
            "step refine-invariant component=PRE machine=(relay from=In to=I) "
            "invariant=(lag-prefix source=Key target=In)\n", encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "apply-script", str(CASES / "original.arch"), str(script),
            "--horizon", "3")
        assert code == 1
        assert out == (
            "step 1 (line 1): refine-invariant FAILED\n"
            "  refine-invariant PRE (under In-lags-Key)\n"
            "    [pass] invariant-channels: support In, Key is visible in the system\n"
            "    [FAIL] invariant-env-compatible: the invariant rules out an environment "
            "outright\n"
            "      counterexample (environment-excluded)\n"
            "        note: no history over In, Key satisfies In-lags-Key under this "
            "environment\n"
            "        inputs:\n"
            "          In [a.0] [] []\n"
            "          Key [] [] []\n"
            "script: FAILED\n")

    def test_unknown_component_in_step(self, capsys, tmp_path):
        script = tmp_path / "bad.script"
        script.write_text("step add-output component=NOPE channel=D\n",
                          encoding="utf-8")
        code, _, err = run_cli(
            capsys, "apply-script", str(CASES / "original.arch"), str(script))
        assert code == 2
        assert err == "error: line 1: step 1: no component named 'NOPE'\n"

    @pytest.mark.parametrize("step, message", [
        ("remove-output component=PRE channel=Data", "'Data' is not an output of 'PRE'"),
        ("remove-input component=PRE channel=Key", "'Key' is not an input of 'PRE'"),
        ("refine-behavior component=PRE machine=(chaos inputs=In outputs=D)",
         "replacement for 'PRE' must read ['In'] and write ['I']"),
    ], ids=["remove-output", "remove-input", "refine-behavior"])
    def test_rule_error_names_the_line_and_the_step(self, capsys, tmp_path, step, message):
        script = tmp_path / "bad.script"
        script.write_text("step add-component name=X\n\nstep %s\n" % step, encoding="utf-8")
        code, out, err = run_cli(
            capsys, "apply-script", str(CASES / "original.arch"), str(script))
        assert (code, out) == (2, "")
        assert err == "error: line 3: step 2: %s\n" % message

    def _expand_x(self, capsys, tmp_path, items):
        """Replay an expand step of a fresh Key -> D component X into a
        subsystem with ``items``, on the small architecture."""
        script = tmp_path / "expand.script"
        script.write_text(
            "step add-component name=X\n"
            "step add-output component=X channel=D\n"
            "step add-input component=X channel=Key\n"
            "step expand component=X subsystem=(system inputs=Key outputs=D\n"
            + "".join("     %s\n" % item for item in items) + "     )\n",
            encoding="utf-8")
        return run_cli(
            capsys, "apply-script", str(CASES / "small_original.arch"), str(script))

    def test_duplicate_alphabet_in_expanded_subsystem(self, capsys, tmp_path):
        """The items of (system ...) are read like architecture file lines;
        the second alphabet for F used to replace the first silently."""
        code, out, err = self._expand_x(capsys, tmp_path, [
            "(alphabet F a.0 a.1)",
            "(alphabet F a.0)",
            "(component T reads=Key writes=D,F machine=(chaos inputs=Key outputs=D,F))",
        ])
        assert (code, out) == (2, "")
        assert err == "error: line 4: duplicate alphabet for 'F'\n"

    def test_alphabet_item_redeclaring_a_host_channel_reaches_expand(self, capsys, tmp_path):
        """The item replaces the host's alphabet of D, and expand's premise
        then finds that the two disagree."""
        code, out, _ = self._expand_x(capsys, tmp_path, [
            "(alphabet D a.0)",
            "(component T reads=Key writes=D machine=(chaos inputs=Key outputs=D))",
        ])
        assert code == 1
        assert "[FAIL] bounds-compatible" in out
        assert out.endswith("script: FAILED\n")

    def test_component_interface_error_in_expanded_subsystem_names_the_line(
            self, capsys, tmp_path):
        """The reader checks a component's reads= and writes= against its
        machine's interface, one row for each."""
        for reads, writes, declared in [("D", "R", "['D'] -> ['R']"),
                                        ("Key", "F", "['Key'] -> ['F']")]:
            code, out, err = self._expand_x(capsys, tmp_path, [
                "(component T reads=Key writes=D machine=(chaos inputs=Key outputs=D))",
                "(component W reads=%s writes=%s machine=(relay from=D to=F map=copy modulus=2))"
                % (reads, writes),
            ])
            assert (code, out) == (2, "")
            assert err == ("error: line 4: component W: component W declares %s "
                           "but its machine has ['D'] -> ['F']\n" % declared)

    @pytest.mark.parametrize("machine", [
        "(adapt of=m_PRE inputs=In outputs=D)",
        "(compose m_PRE)",
        "m_PRE",
    ])
    def test_named_machine_in_expanded_subsystem(self, capsys, tmp_path, machine):
        """A script names no machines; both used to end in an AttributeError
        with exit 3."""
        script = tmp_path / "named.script"
        script.write_text(
            "step add-component name=X\n"
            "step add-output component=X channel=D\n"
            "step add-input component=X channel=In\n"
            "step expand component=X subsystem=(system inputs=In outputs=D\n"
            "     (component T reads=In writes=D\n"
            "        machine=%s))\n" % machine,
            encoding="utf-8")
        code, _, err = run_cli(
            capsys, "apply-script", str(CASES / "small_original.arch"), str(script))
        assert code == 2
        assert err == "error: line 4: unknown machine name 'm_PRE'\n"

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP D1: a replacement with no runs to the horizon "
                              "is included in anything")
    def test_replacement_without_emissions_fails_the_step(self, capsys, tmp_path):
        script = tmp_path / "mute.script"
        script.write_text("step refine-behavior component=RDB machine=(table inputs=I,Key "
                          "outputs=Data initial=z (emit z))\n", encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "apply-script", str(CASES / "small_original.arch"), str(script))
        assert code == 1
        assert out.endswith("script: FAILED\n")


class TestCaseStudyCommand:
    def test_reduced_run_succeeds(self, capsys):
        code, out, _ = run_cli(
            capsys, "case-study", "--modulus", "2", "--horizon", "3",
            "--skip-final")
        assert code == 0
        assert out.endswith("script: ok\n")

    def test_closes_with_the_check_refine_verdict(self, capsys):
        code, out, _ = run_cli(
            capsys, "case-study", "--modulus", "2", "--horizon", "3", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert set(data) == {"ok", "steps", "refines"}
        assert data["ok"] is data["refines"] is True
        assert [set(step) for step in data["steps"]] == [{"step", "label", "rule", "report"}] * 13
        assert data["steps"][-1]["label"] == "8b fold back end"

    def test_broken_decoder_fails_with_witness(self, capsys):
        code, out, _ = run_cli(
            capsys, "case-study", "--modulus", "2", "--horizon", "5",
            "--broken-dec", "--skip-final", "--format", "json")
        assert code == 1
        data = json.loads(out)
        assert data["ok"] is False
        assert "refines" not in data
        last = data["steps"][-1]
        assert (last["label"], last["rule"]) == ("6 store from decoded channel", "refine-invariant")
        assert last["report"]["ok"] is False

    def test_failing_step_counterexample_is_indented_under_its_fail_line(self, capsys):
        code, out, _ = run_cli(
            capsys, "case-study", "--modulus", "2", "--horizon", "5",
            "--broken-dec", "--skip-final")
        assert code == 1
        lines = out.splitlines()
        fail = next(i for i, line in enumerate(lines) if "[FAIL]" in line)
        indent = len(lines[fail]) - len(lines[fail].lstrip())
        witness = lines[fail + 1:-1]
        assert witness[0].lstrip().startswith("counterexample")
        assert all(len(line) - len(line.lstrip()) > indent for line in witness)
        assert lines[-1] == "script: FAILED"

    def test_step_reports_equal_apply_script_reports(self, capsys, tmp_path):
        """The built-in refinement and the shipped script print the same
        steps through the same printer; only each step's tag differs."""
        code, study, _ = run_cli(capsys, "case-study", "--skip-final")
        assert code == 0
        code, script, _ = run_cli(
            capsys, "apply-script", str(CASES / "original.arch"),
            str(CASES / "refine.script"), "--output", str(tmp_path / "final.arch"))
        assert code == 0
        untagged = [re.sub(r"^(step \d+) \([^)]*\):", r"\1:", out, flags=re.M)
                    for out in (study, script)]
        assert len(re.findall(r"^step 13:", untagged[0], flags=re.M)) == 1
        assert untagged[0] == untagged[1]

    def test_no_key_is_malformed_input(self, capsys):
        code, out, err = run_cli(capsys, "case-study", "--keys", ",")
        assert (code, out, err) == (2, "", "error: at least one key is required\n")

    def test_zero_modulus_is_malformed_input(self, capsys):
        code, out, err = run_cli(capsys, "case-study", "--modulus", "0", "--horizon", "2")
        assert code == 2
        assert out == ""
        assert err == "error: --modulus must be at least 1, got 0\n"

    @pytest.mark.parametrize("keys", ["a|b", "a,[b]", "b]"])
    def test_key_in_slice_syntax_is_malformed_input(self, capsys, keys):
        code, out, err = run_cli(capsys, "case-study", "--keys", keys, "--horizon", "2")
        bad = [k for k in keys.split(",") if any(c in k for c in "|[]")][0]
        assert code == 2
        assert out == ""
        assert err == "error: key %r holds one of , | [ ], which write slices\n" % bad


class TestMalformedInput:
    def expect_error(self, capsys, tmp_path, content, *argv):
        path = tmp_path / "input.arch"
        path.write_text(content, encoding="utf-8")
        code, _, err = run_cli(capsys, *(a if a != "@" else str(path)
                                         for a in argv))
        assert code == 2
        assert err.startswith("error:")
        return err

    def test_rename_to_a_name_that_would_not_read_back_writes_no_file(self, capsys, tmp_path):
        script = tmp_path / "s.script"
        script.write_text("step rename old=I new=J,K\n", encoding="utf-8")
        written = tmp_path / "out.arch"
        code, out, err = run_cli(capsys, "apply-script", str(CASES / "small_original.arch"),
                                 str(script), "--output", str(written))
        assert (code, out) == (2, "")
        assert err == ("error: channel 'J,K' holds one of , | [ ], which write slices, "
                       "so it would not read back\n")
        assert not written.exists()

    def test_rename_to_a_channel_holding_a_colon_writes_no_file(self, capsys, tmp_path):
        """A rename map writes old:new, so such a name would not read back."""
        script = tmp_path / "s.script"
        script.write_text("step rename old=I new=d:e\n", encoding="utf-8")
        written = tmp_path / "out.arch"
        code, out, err = run_cli(capsys, "apply-script", str(CASES / "small_original.arch"),
                                 str(script), "--output", str(written))
        assert (code, out) == (2, "")
        assert err == ("error: channel 'd:e' holds :, which writes rename maps, "
                       "so it would not read back\n")
        assert not written.exists()

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "validate", "no/such/file.arch")
        assert code == 2
        assert err.startswith("error:")

    def test_unknown_directive(self, capsys, tmp_path):
        err = self.expect_error(
            capsys, tmp_path, "bounds horizon=2 burst=1\nwires A B\n",
            "validate", "@")
        assert "wires" in err

    def test_unbalanced_parens(self, capsys, tmp_path):
        self.expect_error(
            capsys, tmp_path,
            "bounds horizon=2 burst=1\nmachine m (chaos\n",
            "validate", "@")

    def test_duplicate_keys(self, capsys, tmp_path):
        self.expect_error(
            capsys, tmp_path,
            "bounds horizon=2 burst=1\nbounds horizon=3 burst=1\n",
            "validate", "@")

    def test_bad_bounds(self, capsys, tmp_path):
        self.expect_error(
            capsys, tmp_path, "bounds horizon=0 burst=1\n", "validate", "@")

    def test_horizon_override_must_be_positive(self, capsys):
        code, _, err = run_cli(
            capsys, "validate", str(CASES / "original.arch"), "--horizon", "0")
        assert code == 2
        assert err == "error: --horizon must be at least 1, got 0\n"

    @pytest.mark.parametrize("argv", [
        ("validate", "original.arch"),
        ("simulate", "original.arch", "--env", "simulate_env.txt"),
        ("check-refine", "original.arch", "final.arch"),
        ("apply-script", "original.arch", "refine.script"),
        ("case-study",),
    ])
    @pytest.mark.parametrize("option", ["--horizon", "--burst"])
    def test_bounds_override_names_the_option(self, capsys, argv, option):
        """A value below 1 blames the option, not a line of some file."""
        argv = tuple(str(CASES / a) if "." in a else a for a in argv)
        code, out, err = run_cli(capsys, *argv, option, "0")
        assert code == 2
        assert out == ""
        assert err == "error: %s must be at least 1, got 0\n" % option

    def test_unknown_rule_in_script(self, capsys, tmp_path):
        script = tmp_path / "s.script"
        script.write_text("step widen component=RDB channel=D\n",
                          encoding="utf-8")
        code, _, err = run_cli(
            capsys, "apply-script", str(CASES / "original.arch"), str(script))
        assert code == 2
        assert err == ("error: line 1: unknown rule 'widen' (known: add-component, add-input, "
                       "add-output, expand, fold, refine-behavior, refine-invariant, "
                       "remove-component, remove-input, remove-output, rename)\n")

    def test_wrong_step_keys(self, capsys, tmp_path):
        script = tmp_path / "s.script"
        script.write_text("\nstep add-output component=RDB\n", encoding="utf-8")
        code, _, err = run_cli(
            capsys, "apply-script", str(CASES / "original.arch"), str(script))
        assert code == 2
        assert err == "error: line 2: rule 'add-output' takes channel, component; got component\n"

    @pytest.mark.parametrize("message", ["a,b", "a|b", "[a]", "a]"])
    def test_message_in_slice_syntax(self, capsys, tmp_path, message):
        """No env file or table row could write such a message, and a
        counterexample would print ``a,b`` as ``[a,b]``, two messages."""
        err = self.expect_error(
            capsys, tmp_path, "bounds horizon=2 burst=1\nalphabet In x %s\n" % message,
            "validate", "@")
        assert err == ("error: line 2: alphabet 'In': message %r holds one of , | [ ], "
                       "which write slices\n" % message)

    @pytest.mark.parametrize("content, message", [
        ("bounds horizon=2 burst=1\nmachine m (chaos)\nmachine m (chaos)\n",
         "line 3: duplicate machine 'm'"),
        ("alphabet In x\n", "line 1: missing bounds line"),
        # Bounds out of range blame the bounds line, wherever it is.
        ("# bounds come last\nalphabet In x\ninputs In\n\nbounds horizon=0 burst=1\n",
         "line 5: horizon must be at least 1"),
        ("bounds horizon=2 burst=1\nalphabet D x\noutputs D\n"
         "machine m_A (adapt of=m_A outputs=D)\ncomponent A writes=D machine=m_A\n",
         "line 4: machine 'm_A' is defined in terms of itself"),
        # Each name the reader takes must read back as itself once rendered.
        ("bounds horizon=2 burst=1\nalphabet a,b x\n",
         "line 2: channel 'a,b' holds one of , | [ ], which write slices"),
        ("bounds horizon=2 burst=1\nalphabet c:d x\n",
         "line 2: channel 'c:d' holds :, which writes rename maps"),
        ("bounds horizon=2 burst=1\ninputs In c:d\n",
         "line 2: channel 'c:d' holds :, which writes rename maps"),
        ("bounds horizon=2 burst=1\n\noutputs [D]\n",
         "line 3: channel '[D]' holds one of , | [ ], which write slices"),
        ("bounds horizon=2 burst=1\ncomponent C|1 machine=m\n",
         "line 2: component 'C|1' holds one of , | [ ], which write slices"),
        ("bounds horizon=2 burst=1\ncomponent C reads=In,c:d machine=m\n",
         "line 2: channel 'c:d' holds :, which writes rename maps"),
        ("bounds horizon=2 burst=1\ncomponent C writes=a]b machine=m\n",
         "line 2: channel 'a]b' holds one of , | [ ], which write slices"),
        # Of two faults on a line, a repeated key on the line comes before an
        # unknown directive, and one in a form before any later fault.
        ("bounds horizon=2 burst=1\nwires x=1 x=2\n", "line 2: duplicate x=..."),
        ("bounds horizon=2 burst=1\nmachine m (relay a=1 a=2) x=\n", "line 2: duplicate a=..."),
    ])
    def test_architecture_error(self, capsys, tmp_path, content, message):
        err = self.expect_error(capsys, tmp_path, content, "validate", "@")
        assert err == "error: %s\n" % message

    @pytest.mark.parametrize("content, message", [
        ("stream\n", "line 1: stream needs a channel name"),
        ("stream In [] [] [] []\nstream In [] [] [] []\n", "line 2: duplicate stream for 'In'"),
        ("stream In [a.1]|[a.2] [] [] []\n", "line 1: expected a plain interval, got '[a.1]|[a.2]'"),
        ("stream In - [] [] []\n", "line 1: expected a plain interval, got '-'"),
        ("# no streams\n", "line 1: environment declares no streams"),
        ("stream In [] []\nstream Key [] [] []\n", "line 2: streams have differing lengths"),
        # An unknown directive comes before a repeated key on its line.
        ("wires x=1 x=2\n", "line 1: unknown directive 'wires'"),
    ])
    def test_environment_error(self, capsys, tmp_path, content, message):
        err = self.expect_error(capsys, tmp_path, content,
                                "simulate", str(CASES / "final.arch"), "--env", "@")
        assert err == "error: %s\n" % message

    @pytest.mark.parametrize("subsystem, message", [
        ("(subsystem inputs=Key)", "line 2: expected a (system ...) form"),
        ("(system inputs=Key outputs=D stray)", "line 2: unexpected 'stray' inside system"),
        ("(system inputs=Key outputs=D (wires A))", "line 2: unknown system entry 'wires'"),
        ("(system inputs=K:ey outputs=D)",
         "line 2: channel 'K:ey' holds :, which writes rename maps"),
        ("(system inputs=Key outputs=[D])",
         "line 2: channel '[D]' holds one of , | [ ], which write slices"),
        ("(system inputs=Key outputs=D (alphabet c:d x))",
         "line 2: channel 'c:d' holds :, which writes rename maps"),
        ("(system inputs=Key outputs=D (component X|1 writes=D machine=m))",
         "line 2: component 'X|1' holds one of , | [ ], which write slices"),
        ("(system inputs=Key outputs=D (component Y reads=c:d writes=D machine=m))",
         "line 2: channel 'c:d' holds :, which writes rename maps"),
    ])
    def test_subsystem_error(self, capsys, tmp_path, subsystem, message):
        script = "step add-component name=X\nstep expand component=X subsystem=%s\n" % subsystem
        err = self.expect_error(capsys, tmp_path, script,
                                "apply-script", str(CASES / "small_original.arch"), "@")
        assert err == "error: %s\n" % message

    def test_bad_interval_token(self, capsys, tmp_path):
        env = tmp_path / "env.txt"
        env.write_text("stream In [a.1 [a.2] [] []\nstream Key [] [] [] []\n",
                       encoding="utf-8")
        code, _, err = run_cli(
            capsys, "simulate", str(CASES / "original.arch"),
            "--env", str(env))
        assert code == 2
        assert err.startswith("error:")


class TestInternalErrors:
    def test_unexpected_exception_exits_3_with_one_line(self, capsys, monkeypatch):
        def crash(args):
            raise RuntimeError("boom\n  at the second line")

        monkeypatch.setattr(cli, "cmd_validate", crash)
        code, out, err = run_cli(capsys, "validate", str(CASES / "original.arch"))
        assert code == 3
        assert out == ""
        assert err == "internal error: RuntimeError: boom at the second line\n"


class TestSubprocess:
    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "flowrefine.cli",
             "validate", str(CASES / "original.arch")],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.endswith("result: consistent\n")

    @pytest.mark.parametrize("argv, expected", [
        (("check-refine", "small_original.arch", "small_broken_final.arch", "--horizon", "4"), 0),
        (("apply-script", "original.arch", "refine.script", "--horizon", "3"), 0),
        # Rejected with a rendered counterexample, which must not vary either.
        (("apply-script", "small_original.arch", "small_broken.script", "--horizon", "5"), 1),
    ], ids=["argv0", "argv1", "argv2"])
    def test_output_does_not_depend_on_the_hash_seed(self, argv, expected):
        argv = [str(CASES / a) if a.endswith((".arch", ".script")) else a for a in argv]
        outputs = []
        for seed in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, "-m", "flowrefine.cli"] + argv,
                env=dict(os.environ, PYTHONHASHSEED=seed),
                capture_output=True, text=True)
            assert proc.returncode == expected, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
