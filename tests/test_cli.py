"""Command-line surface: argument handling, report artifacts, exit codes."""

import json
import os
from fractions import Fraction

import pytest

from otbec import _fanout, cli, exact_oracle, protocol_core
from otbec.cli import DEFAULT_SEED, build_parser, main, parse_prob

SIM_FLAGS = [
    "--variant", "p1", "--n", "64", "--p1", "0.5", "--p2", "0.5",
    "--r1", "1/8", "--r2", "1/8", "--lambda-prime", "1/16",
]


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_parse_prob_forms():
    assert parse_prob("0.25") == 0.25
    assert parse_prob("3/8") == Fraction(3, 8)
    assert isinstance(parse_prob("3/8"), Fraction)
    for bad in ("1.5", "-0.1", "9/8", 1.5, -0.1):
        with pytest.raises(ValueError):
            parse_prob(bad)
    with pytest.raises(ValueError, match="zero denominator"):
        parse_prob("1/0")


def test_zero_denominator_flag_exits_2(tmp_path, capsys):
    out = tmp_path / "sim.json"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", *SIM_FLAGS, "--p1", "1/0", "--trials", "5", "--out", str(out)])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value, reason", [
    ("1/0", "probability 1/0 has a zero denominator"),
    ("1.5", "probability 1.5 not in [0, 1]"),
])
def test_refused_probability_flag_names_its_reason(tmp_path, capsys, value, reason):
    out = tmp_path / "sim.json"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", *SIM_FLAGS, "--p1", value, "--trials", "5", "--out", str(out)])
    assert exc.value.code == 2
    assert f"argument --p1: {reason}" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_writes_report(tmp_path, capsys):
    out = tmp_path / "sim.json"
    code, stdout, _ = run(capsys, "simulate", *SIM_FLAGS,
                          "--trials", "40", "--out", str(out))
    assert code == 0
    assert f"seed: {DEFAULT_SEED}" in stdout
    report = json.loads(out.read_text())
    assert report["schema_version"] == "1"
    assert report["seed"] == DEFAULT_SEED
    assert report["command"] == "simulate"
    results = report["results"]
    assert results["trials"] == 40
    assert 0.0 <= results["abort_rate"]["estimate"] <= 1.0
    assert set(results["per_link"]) == {"1", "2"}
    assert results["per_link"]["1"]["correctness_rate"] == 1.0


def test_simulate_byte_identical_on_rerun(tmp_path, capsys):
    out = tmp_path / "rep.json"
    argv = ["simulate", *SIM_FLAGS, "--trials", "60", "--out", str(out)]
    assert main(list(argv)) == 0
    first = out.read_bytes()
    assert main(list(argv)) == 0
    assert out.read_bytes() == first
    capsys.readouterr()


def test_rate_violation_exits_2(tmp_path, capsys):
    out = tmp_path / "x.json"
    code, _, stderr = run(capsys, "simulate", "--variant", "p1", "--n", "64",
                          "--p1", "0.5", "--p2", "0.5", "--r1", "0.9",
                          "--r2", "1/8", "--trials", "5", "--out", str(out))
    assert code == 2
    assert "rate constraint violated" in stderr
    assert not out.exists()


def test_rate_on_the_bound_exits_2(tmp_path, capsys):
    # min(0.7, 1 - 0.7) - 0.05 is exactly 1/4; a float check let r = 1/4 through
    out = tmp_path / "x.json"
    code, _, stderr = run(capsys, "simulate", "--variant", "p1", "--n", "8",
                          "--p1", "0.7", "--p2", "0.7", "--r1", "1/4", "--r2", "1/4",
                          "--lambda", "0.05", "--lambda-prime", "1/8", "--out", str(out))
    assert code == 2
    assert "need r1 < min(p1, 1-p1) - lambda = 0.25, got 0.25" in stderr
    assert not out.exists()


def test_run_paths_build_no_distribution_objects(tmp_path, capsys, monkeypatch):
    # the distribution classes are the entropy toolkit; campaigns, audits and
    # the oracle compute on tallies and integer numerators instead
    from otbec import entropy

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__} built on a run path")

    monkeypatch.setattr(entropy.FiniteDistribution, "__init__", refuse)
    monkeypatch.setattr(entropy.JointDistribution, "__init__", refuse)
    for argv in (
        ["simulate", *SIM_FLAGS, "--trials", "20"],
        ["audit", "--variant", "p1", "--trials", "50"],
        ["audit", "--variant", "p2", "--p1", "0.75", "--p2", "0.75", "--trials", "50"],
        ["oracle", "--spec", "choice-vs-sets", "--spec", "unchosen-vs-pooled",
         "--spec", "phase1-cross-knowledge", "--compare-mc", "20"],
    ):
        code, _, stderr = run(capsys, *argv, "--out", str(tmp_path / "r.json"))
        assert (code, stderr) == (0, ""), argv


def test_oracle_budget_exits_3(tmp_path, capsys):
    # the first size over its limit is refused, before any state estimate
    for n in ("9", "20000"):
        code, _, stderr = run(capsys, "oracle", "--n", n, "--set-size", "3",
                              "--out", str(tmp_path / "o.json"))
        assert code == 3
        assert f"enumeration budget exceeded: n = {n} exceeds budget n <= 8\n" in stderr
        assert "estimated states" not in stderr
        assert not (tmp_path / "o.json").exists()


def test_an_over_budget_spec_is_refused_before_any_enumeration(tmp_path, capsys, monkeypatch):
    # only the second spec's phase-1 set size is over budget; the first is never enumerated
    monkeypatch.setattr(_fanout, "_cpu_count", lambda: 1)
    calls = []
    enumerate_protocol = cli.enumerate_protocol

    def counted(*args):
        calls.append(args[0])
        return enumerate_protocol(*args)

    monkeypatch.setattr(cli, "enumerate_protocol", counted)
    out = tmp_path / "o.json"
    code, stdout, stderr = run(capsys, "oracle", "--spec", "choice-vs-sets",
                               "--spec", "phase1-cross-knowledge", "--phase1-size", "3",
                               "--out", str(out))
    assert code == 3
    assert "enumeration budget exceeded: set size 3 exceeds budget 2" in stderr
    assert calls == []
    assert stdout == "" and not out.exists()


@pytest.mark.parametrize("argv, target, reason", [
    pytest.param(["simulate", *SIM_FLAGS, "--trials", "5"], "missing/dir/r.json",
                 "does not exist", id="simulate"),
    pytest.param(["audit"], "missing/dir/r.json", "does not exist", id="audit"),
    pytest.param(["oracle"], "missing/dir/r.json", "does not exist", id="oracle"),
    pytest.param(["region", "--p1", "0.5", "--p2", "0.5"], "missing/dir/r.json",
                 "does not exist", id="region"),
    pytest.param(["simulate", *SIM_FLAGS, "--trials", "5"], "existing-dir",
                 "is a directory", id="out-is-a-directory"),
    pytest.param(["region", "--p1", "0.7", "--p2", "0.4"], "r.json",
                 "is a directory", id="region-csv-is-a-directory"),
])
def test_unwritable_out_exits_4(tmp_path, capsys, monkeypatch, argv, target, reason):
    # the report path (and region's CSV path beside it) is checked before the
    # subcommand starts, not after its run
    def never(*args, **kwargs):
        raise AssertionError("the subcommand ran")

    monkeypatch.setattr(cli, f"cmd_{argv[0]}", never)
    (tmp_path / "existing-dir").mkdir()
    (tmp_path / "r.csv").mkdir()
    code, stdout, stderr = run(capsys, *argv, "--out", str(tmp_path / target))
    assert code == 4
    assert "i/o failure" in stderr and reason in stderr
    assert stdout == ""
    assert not (tmp_path / "r.json").exists()


def test_region_refuses_a_csv_path_that_is_the_report_path(tmp_path, capsys):
    out = tmp_path / "r.csv"
    code, stdout, stderr = run(capsys, "region", "--p1", "0.5", "--p2", "0.5", "--out", str(out))
    assert code == 2
    assert f"region CSV {out}" in stderr and f"report --out {out}" in stderr
    assert stdout == "" and not out.exists()


def test_reports_get_the_mode_a_plain_open_gives(tmp_path, capsys):
    # under umask 022: 0o644 for a new report, the region CSV, and a 0o644
    # report written again
    old = os.umask(0o022)
    try:
        out = tmp_path / "regions.json"
        assert run(capsys, "region", "--p1", "0.7", "--p2", "0.4", "--out", str(out))[0] == 0
        report = tmp_path / "sim.json"
        for _ in range(2):
            assert run(capsys, "simulate", *SIM_FLAGS, "--trials", "5", "--out", str(report))[0] == 0
            modes = [oct(p.stat().st_mode & 0o777) for p in (out, out.with_suffix(".csv"), report)]
            assert modes == ["0o644"] * 3
    finally:
        os.umask(old)


def test_a_decoder_that_always_fails_is_reported_as_decode_errors(tmp_path, capsys, monkeypatch):
    # no honest run fails to decode, so only a broken decoder shows that a
    # DecodeError is counted as one, never as a correct or an aborted link
    def broken(*args):
        raise protocol_core.DecodeError(protocol_core.OtCode.HASH_MISMATCH, "broken decoder")

    monkeypatch.setattr(protocol_core, "decode_chosen", broken)
    out = tmp_path / "r.json"
    code, _, _ = run(capsys, "simulate", *SIM_FLAGS, "--trials", "300", "--out", str(out))
    assert code == 0
    results = json.loads(out.read_text())["results"]
    assert results["correctness_rate"] == 0.0
    for link in ("1", "2"):
        row = results["per_link"][link]
        assert row["counts"] == {"completed": 0, "aborted": 0, "decode-error": 300,
                                 "no-second-phase": 0}
        assert row["correctness_rate"] == 0.0

    code, _, _ = run(capsys, "audit", *SIM_FLAGS, "--trials", "300", "--out", str(out))
    assert code == 0
    results = json.loads(out.read_text())["results"]
    rows = {row["condition"]: row for row in results["conditions"]}
    assert rows["chosen-message correctness"]["verdict"] == "violated"
    assert results["summary"]["conditions_clean"] is False


def test_two_phase_abort_reasons_count_each_link_under_its_phase(tmp_path, capsys):
    out = tmp_path / "p2.json"
    code, _, _ = run(capsys, "simulate", "--variant", "p2", "--n", "40", "--p1", "0.9",
                     "--p2", "0.9", "--r1", "1/20", "--r2", "1/20", "--lambda", "1/40",
                     "--lambda-prime", "1/40", "--trials", "400", "--out", str(out))
    assert code == 0
    results = json.loads(out.read_text())["results"]
    reasons = results["abort_reasons"]
    aborted = {link: results["per_link"][link]["counts"]["aborted"] for link in ("1", "2")}
    # a phase-1 shortfall loses both links; phase 2 can lose the second link alone
    assert set(reasons) == {"phase-1", "phase-2"}
    assert reasons["phase-1"] == 2 * aborted["1"]
    assert reasons["phase-1"] + reasons["phase-2"] == aborted["1"] + aborted["2"]

    code, _, _ = run(capsys, "simulate", "--variant", "p2", "--n", "64", "--r1", "1/16",
                     "--r2", "1/16", "--lambda", "1/32", "--lambda-prime", "1/64",
                     "--trials", "50", "--out", str(out))
    assert code == 0
    results = json.loads(out.read_text())["results"]
    missing = results["per_link"]["2"]["counts"]["no-second-phase"]
    assert missing > 0
    assert results["abort_reasons"].get("no-second-phase") == missing
    # a link the parameters never run is not an abort
    assert [results["per_link"][link]["abort"]["estimate"] for link in ("1", "2")] == [0.0, 0.0]
    assert results["abort_rate"]["estimate"] == 0.0


def test_single_phase_abort_reasons_count_every_aborted_link(tmp_path, capsys):
    out = tmp_path / "p1.json"
    code, _, _ = run(capsys, "simulate", "--variant", "p1", "--n", "16", "--p1", "0.25",
                     "--p2", "0.25", "--r1", "3/16", "--r2", "3/16", "--lambda", "0.05",
                     "--lambda-prime", "1/16", "--trials", "300", "--seed", "101",
                     "--out", str(out))
    assert code == 0
    results = json.loads(out.read_text())["results"]
    aborted = [results["per_link"][link]["counts"]["aborted"] for link in ("1", "2")]
    assert aborted == [56, 55]
    # both links run in one phase, so each aborted link counts once under it
    assert results["abort_reasons"] == {"single-phase": 111}


def test_atomic_write_leaves_no_temp_files(tmp_path, capsys):
    out = tmp_path / "sim.json"
    run(capsys, "simulate", *SIM_FLAGS, "--trials", "10", "--out", str(out))
    assert {p.name for p in tmp_path.iterdir()} == {"sim.json"}


def test_oracle_default_rows_show_zero_leakage(tmp_path, capsys):
    out = tmp_path / "oracle.json"
    code, _, _ = run(capsys, "oracle", "--out", str(out))
    assert code == 0
    rows = json.loads(out.read_text())["results"]
    assert [r["spec"] for r in rows] == ["choice-vs-sets", "choice-pair-vs-sets"]
    for row in rows:
        assert row["mi_exact"] == "0"
        assert row["mi"] == 0.0
        assert row["arithmetic"] == "rational"


def test_oracle_decimal_probabilities_are_exact(tmp_path, capsys):
    reports = []
    for p in ("0.5", "1/2"):
        out = tmp_path / f"oracle-{p.replace('/', '-')}.json"
        code, _, _ = run(capsys, "oracle", "--p1", p, "--p2", p, "--out", str(out))
        assert code == 0
        reports.append(json.loads(out.read_text()))
    assert reports[0]["results"] == reports[1]["results"]
    assert reports[0]["config"]["tiny"]["p1"] == "1/2"
    assert [row["mi_exact"] for row in reports[0]["results"]] == ["0", "0"]
    assert reports[0]["results"][0]["abort_mass_exact"] == "1/8"


@pytest.mark.parametrize("flags", [
    ("--spec", "choice-vs-sets", "--p1", "1"),
    ("--spec", "phase1-cross-knowledge", "--p1", "0"),
    ("--spec", "choice-vs-sets", "--n", "2", "--set-size", "2"),
])
def test_oracle_all_abort_instance_reports_no_conditioned_mi(tmp_path, capsys, flags):
    # every branch aborts, so the information given success is undefined, not an error
    out = tmp_path / "oracle.json"
    code, _, _ = run(capsys, "oracle", *flags, "--out", str(out))
    assert code == 0
    (row,) = json.loads(out.read_text())["results"]
    assert row["abort_mass_exact"] == "1"
    assert row["mi_exact"] == "0"
    assert row["mi_given_success"] is None
    assert row["mi_given_success_exact"] is None


def test_oracle_spec_choices_are_the_oracle_specs():
    _, registry = build_parser()
    (spec,) = [action for action in registry["oracle"]._actions if action.dest == "spec"]
    assert tuple(spec.choices) == tuple(exact_oracle.SPECS)


def test_oracle_compare_mc(tmp_path, capsys):
    out = tmp_path / "oracle.json"
    code, _, _ = run(capsys, "oracle", "--compare-mc", "400", "--out", str(out))
    assert code == 0
    for row in json.loads(out.read_text())["results"]:
        mc = row["mc"]
        assert mc["trials"] == 400
        assert mc["within_band"]
        assert mc["max_deviation"] <= mc["band"]


def test_region_emits_csv_and_containment(tmp_path, capsys):
    out = tmp_path / "reg.json"
    code, stdout, _ = run(capsys, "region", "--p1", "0.5", "--p2", "0.5",
                          "--check-containment", "--out", str(out))
    assert code == 0
    csv_path = tmp_path / "reg.csv"
    assert str(csv_path) in stdout
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "region_label,R1,R2"
    assert any(line.startswith("noncolluding-outer,") for line in lines[1:])
    results = json.loads(out.read_text())["results"]
    labels = {r["label"] for r in results["regions"]}
    assert "colluding-inner" in labels and "timesharing-hull" in labels
    checks = {(c["outer"], c["inner"]): c for c in results["containment"]}
    cap = checks[("noncolluding-outer", "noncolluding-capacity")]
    assert cap["contained"] is False and "not contained" in cap["note"]
    assert checks[("colluding-outer", "colluding-inner")]["contained"] is True


def test_region_general_bounds_from_channel_file(tmp_path, capsys):
    from otbec.rates import ChannelSpec
    chan = tmp_path / "chan.json"
    chan.write_text(json.dumps(ChannelSpec.bec_pair(0.7, 0.4).to_json()))
    out = tmp_path / "reg.json"
    code, _, _ = run(capsys, "region", "--channel", str(chan), "--theorem", "2",
                     "--out", str(out))
    assert code == 0
    results = json.loads(out.read_text())["results"]
    general = [r for r in results["regions"] if "theorem-2" in r["label"]]
    assert len(general) == 1
    by_axis = {(a1, a2): b for a1, a2, b in map(tuple, general[0]["constraints"])}
    assert by_axis[(1.0, 0.0)] == pytest.approx(0.12, abs=1e-6)


_BEC = {"outputs": [[0, 0], [0, "e"], ["e", 1], [1, 1]],
        "rows": [[0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5]]}


@pytest.mark.parametrize("field, value", [
    ("outputs", [0, 1, 2, 3]),
    ("rows", [["a", 0.5, 0.5, 0.0], [0.0, 0.0, 0.5, 0.5]]),
    ("rows", [[float("nan"), 0.5, 0.5, 0.0], [0.0, 0.0, 0.5, 0.5]]),
    ("rows", [[True, False, False, False], [0.0, 0.0, 0.5, 0.5]]),
    ("outputs", [[0, 0], [0, "e"], ["e", 1], [0, 0]]),
    ("outputs", [[0, 0, 0], [0, "e"], ["e", 1], [1, 1]]),
    ("outputs", ["ab", [0, "e"], ["e", 1], [1, 1]]),
    ("rows", [[0.5, 0.5 + 1e-12, -1e-12, 0.0], [0.0, 0.0, 0.5, 0.5]]),
    ("rows", [1, 2]),
], ids=["outputs-not-pairs", "string-entry", "nan-entry", "boolean-entries",
        "duplicate-outputs", "three-element-output", "string-output", "negative-entry",
        "rows-not-lists"])
def test_region_refuses_a_malformed_channel_file(tmp_path, capsys, field, value):
    chan = tmp_path / "chan.json"
    chan.write_text(json.dumps({**_BEC, field: value}))
    out = tmp_path / "reg.json"
    code, stdout, stderr = run(capsys, "region", "--channel", str(chan), "--out", str(out))
    assert code == 2 and "error:" in stderr
    assert stdout == "" and not out.exists() and not out.with_suffix(".csv").exists()


def test_region_requires_erasure_probs_without_channel(tmp_path, capsys):
    code, _, stderr = run(capsys, "region", "--out", str(tmp_path / "r.json"))
    assert code == 2
    assert "p1" in stderr


@pytest.mark.parametrize("flags, message", [
    (["--check-containment"], "--check-containment needs --p1 and --p2"),
    (["--p1", "0.5"], "region needs both --p1 and --p2 (or a --channel file)"),
], ids=["check-containment", "p1-only"])
def test_region_refuses_missing_erasure_probs_before_the_grid_search(
        tmp_path, capsys, monkeypatch, flags, message):
    from otbec.rates import ChannelSpec

    def never(*args, **kwargs):
        raise AssertionError("cli.general_upper_bounds ran")

    monkeypatch.setattr(cli, "general_upper_bounds", never)
    chan = tmp_path / "chan.json"
    chan.write_text(json.dumps(ChannelSpec.bec_pair(0.5, 0.5).to_json()))
    out = tmp_path / "r.json"
    code, stdout, stderr = run(capsys, "region", "--channel", str(chan), *flags, "--out", str(out))
    assert code == 2
    assert f"error: {message}\n" in stderr
    assert stdout == "" and not out.exists() and not out.with_suffix(".csv").exists()


def test_audit_wiretapper_reads_nothing(tmp_path, capsys):
    out = tmp_path / "aud.json"
    code, _, _ = run(capsys, "audit", *SIM_FLAGS, "--trials", "600",
                     "--attacker", "wiretapper", "--out", str(out))
    assert code == 0
    results = json.loads(out.read_text())["results"]
    row = results["attacks"][0]
    # 600 trials cannot pin the estimate below the zero-verdict cutoff, so
    # assert the one-sided claim: no detected advantage
    assert row["verdict"] != "advantage detected"
    assert row["ci"][0] <= 0.0 <= row["ci"][1]
    assert results["summary"]["conditions_clean"] is True


@pytest.mark.parametrize("flags", [
    ["--order", "1", "--link", "2"],
    ["--order", "2", "--p2", "0.5", "--link", "1"],
])
def test_audit_of_a_link_the_parameters_never_run_exits_2_before_any_trial(
        tmp_path, capsys, monkeypatch, flags):
    # the phase-1 receiver's p <= 1/2 leaves no leftover set, so the other link never runs
    def never(*args, **kwargs):
        raise AssertionError("the campaign ran")

    monkeypatch.setattr(cli, "generate_runs", never)
    out = tmp_path / "aud.json"
    code, _, stderr = run(capsys, "audit", *SIM_FLAGS, "--variant", "p2", *flags,
                          "--trials", "50", "--out", str(out))
    assert code == 2
    assert "second phase violated" in stderr and "no-second-phase" in stderr
    assert not out.exists()


@pytest.mark.parametrize("command, flags, constraint", [
    ("simulate", ["--lambda-prime", "0"], "lambda-prime range"),
    ("simulate", ["--r1", "0"], "lambda-prime range"),
    ("simulate", ["--r2", "0"], "lambda-prime range"),
    ("simulate", ["--s1", "0"], "verification hash length"),
    ("audit", ["--s2", "0"], "verification hash length"),
])
def test_a_zero_rate_exits_2_with_its_constraint_before_any_trial(
        tmp_path, capsys, monkeypatch, command, flags, constraint):
    # snapping to multiples of 1/n would lift the zero to 1/n and run with it
    def never(*args, **kwargs):
        raise AssertionError("the campaign ran")

    monkeypatch.setattr(cli, "generate_runs", never)
    out = tmp_path / "r.json"
    code, _, stderr = run(capsys, command, *SIM_FLAGS, *flags, "--trials", "5", "--out", str(out))
    assert code == 2
    assert f"error: {constraint} violated" in stderr
    assert not out.exists()


@pytest.mark.parametrize("argv, work", [
    (["simulate", *SIM_FLAGS, "--trials", "5"], "generate_runs"),
    (["audit", *SIM_FLAGS, "--trials", "60"], "generate_runs"),
    (["oracle"], "enumerate_protocol"),
])
def test_each_run_path_calls_its_work_function_through_the_cli_binding(
        tmp_path, capsys, monkeypatch, argv, work):
    # a timing harness ends set-up at the first call of cli.generate_runs (campaigns,
    # audits) or cli.enumerate_protocol (oracle) made in the calling process
    calls = []
    original = getattr(cli, work)

    def counted(*args, **kwargs):
        calls.append(os.getpid())
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, work, counted)
    code, _, _ = run(capsys, *argv, "--out", str(tmp_path / "r.json"))
    assert code == 0
    assert os.getpid() in calls


@pytest.mark.parametrize("argv, payload, work, message", [
    (["simulate", *SIM_FLAGS, "--trials", "0"], None, "generate_runs",
     "--trials must be at least 1, got 0"),
    (["audit", *SIM_FLAGS], {"trials": -3}, "generate_runs", "--trials must be at least 1, got -3"),
    (["oracle", "--n", "6", "--set-size", "2", "--spec", "choice-vs-sets",
      "--spec", "choice-pair-vs-sets", "--compare-mc", "-1"], None, "enumerate_protocol",
     "--compare-mc must be at least 0, got -1"),
    (["oracle"], {"compare-mc": -1}, "enumerate_protocol", "--compare-mc must be at least 0, got -1"),
    (["region", "--p1", "0.7", "--p2", "0.4", "--grid", "0"], None, "_write_atomic",
     "--grid must be at least 101, got 0"),
    (["region", "--p1", "0.7", "--p2", "0.4"], {"grid": 100}, "_write_atomic",
     "--grid must be at least 101, got 100"),
])
def test_a_count_below_its_floor_exits_2_before_any_work(
        tmp_path, capsys, monkeypatch, argv, payload, work, message):
    def never(*args, **kwargs):
        raise AssertionError(f"cli.{work} ran")

    monkeypatch.setattr(cli, work, never)
    if payload is not None:
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps(payload))
        argv = [*argv, "--config", str(conf)]
    out = tmp_path / "r.json"
    code, _, stderr = run(capsys, *argv, "--out", str(out))
    assert code == 2
    assert f"error: {message}" in stderr
    assert not out.exists()


@pytest.mark.parametrize("flags, payload", [
    (["--spec", "choice-vs-sets", "--spec", "choice-vs-sets", "--compare-mc", "50"], None),
    (["--compare-mc", "50"],
     {"spec": ["unchosen-vs-own", "phase1-cross-knowledge", "unchosen-vs-own"]}),
])
def test_a_repeated_spec_exits_2_before_any_work(tmp_path, capsys, monkeypatch, flags, payload):
    def never(*args, **kwargs):
        raise AssertionError("cli.enumerate_protocol ran")

    monkeypatch.setattr(cli, "enumerate_protocol", never)
    if payload is not None:
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps(payload))
        flags = [*flags, "--config", str(conf)]
    out = tmp_path / "r.json"
    code, _, stderr = run(capsys, "oracle", *flags, "--out", str(out))
    repeated = flags[1] if payload is None else payload["spec"][0]
    assert code == 2
    assert f"error: --spec {repeated} is given more than once" in stderr
    assert not out.exists()


def test_seed_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("OTBEC_SEED", "777")
    out = tmp_path / "o.json"
    code, stdout, _ = run(capsys, "oracle", "--out", str(out))
    assert code == 0
    assert "seed: 777" in stdout
    assert json.loads(out.read_text())["seed"] == 777


def test_seed_flag_beats_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("OTBEC_SEED", "777")
    out = tmp_path / "o.json"
    run(capsys, "oracle", "--seed", "5", "--out", str(out))
    assert json.loads(out.read_text())["seed"] == 5


@pytest.mark.parametrize("subcommand, extra", [
    ("simulate", ["--trials", "5"]),
    ("audit", ["--trials", "5"]),
    ("oracle", []),
    ("region", ["--p1", "0.5", "--p2", "0.5"]),
])
def test_negative_seed_exits_2(subcommand, extra, tmp_path, capsys, monkeypatch):
    out = tmp_path / "r.json"
    code, _, stderr = run(capsys, subcommand, *extra, "--seed", "-5", "--out", str(out))
    assert code == 2
    assert "--seed must be a non-negative integer, got -5" in stderr
    monkeypatch.setenv("OTBEC_SEED", "-5")
    code, _, stderr = run(capsys, subcommand, *extra, "--out", str(out))
    assert code == 2
    assert "OTBEC_SEED must be a non-negative integer, got -5" in stderr
    assert not out.exists()


@pytest.mark.parametrize("value, message", [
    ("seven", "OTBEC_SEED must be an integer, got 'seven'"),
    ("-5", "OTBEC_SEED must be a non-negative integer, got -5"),
])
def test_a_refused_otbec_seed_exits_2_and_writes_no_report(
        tmp_path, capsys, monkeypatch, value, message):
    monkeypatch.setenv("OTBEC_SEED", value)
    out = tmp_path / "r.json"
    code, stdout, stderr = run(capsys, "simulate", *SIM_FLAGS, "--trials", "5", "--out", str(out))
    assert code == 2
    assert stderr == f"error: {message}\n"
    assert stdout == "" and not out.exists()


def test_config_file_mirrors_flags(tmp_path, capsys):
    out = tmp_path / "sim.json"
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({
        "variant": "p1", "n": 64, "p1": "0.5", "p2": "0.5",
        "r1": "1/8", "r2": "1/8", "lam_prime": "1/16",
        "trials": 25, "out": str(out),
    }))
    code, _, _ = run(capsys, "simulate", "--config", str(conf))
    assert code == 0
    assert json.loads(out.read_text())["results"]["trials"] == 25
    # explicit flags win over config values
    code, _, _ = run(capsys, "simulate", "--config", str(conf), "--trials", "30")
    assert code == 0
    assert json.loads(out.read_text())["results"]["trials"] == 30


def test_config_rejects_unknown_key(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"variant": "p1", "bogus": 1}))
    code, _, stderr = run(capsys, "simulate", "--config", str(conf))
    assert code == 2
    assert "unknown config key 'bogus'" in stderr


@pytest.mark.parametrize("subcommand, payload, message", [
    ("simulate", {"trials": 2.5}, "config key 'trials' must be an integer, got 2.5"),
    ("simulate", {"trials": True}, "config key 'trials' must be an integer, got true"),
    ("simulate", {"trials": None}, "config key 'trials' must be an integer, got null"),
    ("simulate", {"variant": "p3"}, "config key 'variant' must be one of p1, p2, got \"p3\""),
    ("simulate", {"order": 3}, "config key 'order' must be one of 1, 2, got 3"),
    ("simulate", {"p1": 1.5}, "config key 'p1' must be a probability, got 1.5"),
    ("simulate", {"out": 5}, "config key 'out' must be a string, got 5"),
    ("oracle", {"set_size": 1.5}, "config key 'set_size' must be an integer, got 1.5"),
    ("oracle", {"spec": "choice-vs-sets"}, "config key 'spec' must be a list"),
    ("oracle", {"spec": ["nope"]}, "config key 'spec' must be one of"),
    ("region", {"check-containment": 1},
     "config key 'check-containment' must be true or false, got 1"),
    ("simulate", {"p1": "1/0"}, "config key 'p1' must be a probability, got \"1/0\""),
    ("simulate", {"p1": "1/0"},
     "config key 'p1' must be a probability, got \"1/0\": probability 1/0 has a zero denominator"),
    ("simulate", {"p1": 1.5},
     "config key 'p1' must be a probability, got 1.5: probability 1.5 not in [0, 1]"),
])
def test_config_values_get_the_flag_checks(tmp_path, capsys, subcommand, payload, message):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps(payload))
    out = tmp_path / "report.json"
    code, _, stderr = run(capsys, subcommand, "--config", str(conf), "--out", str(out))
    assert code == 2
    assert f"error: {message}" in stderr
    assert not out.exists()


def test_config_strings_go_through_the_flag_type(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"n": "64", "order": "2", "trials": "3", "s1": None,
                                "r1": "1/8", "r2": "1/8", "lam_prime": "1/16"}))
    out = tmp_path / "sim.json"
    code, _, _ = run(capsys, "simulate", "--config", str(conf), "--out", str(out))
    assert code == 0
    report = json.loads(out.read_text())
    assert report["config"]["params"]["n"] == 64 and report["config"]["params"]["order"] == 2
    assert report["results"]["trials"] == 3


@pytest.mark.parametrize("key, flag", [
    ("lambda-prime", "--lambda-prime"),
    ("lam_prime", "--lambda-prime"),
    ("lambda", "--lambda"),
])
def test_config_keys_resolve_by_flag_name_or_dest(tmp_path, capsys, key, flag):
    base = ["simulate", "--variant", "p1", "--n", "64", "--r1", "1/8", "--r2", "1/8",
            "--trials", "3"]
    by_flag = tmp_path / "flag.json"
    assert main([*base, flag, "1/32", "--out", str(by_flag)]) == 0
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({key: "1/32"}))
    by_config = tmp_path / "config.json"
    code, _, _ = run(capsys, *base, "--config", str(conf), "--out", str(by_config))
    assert code == 0
    params = json.loads(by_config.read_text())["config"]["params"]
    assert params == json.loads(by_flag.read_text())["config"]["params"]
    assert params["lam" if flag == "--lambda" else "lam_prime"] == "1/32"
