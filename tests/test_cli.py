"""Command-line surface: argument handling, report artifacts, exit codes."""

import json
from fractions import Fraction

import pytest

from otbec.cli import DEFAULT_SEED, main, parse_prob

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


def test_oracle_budget_exits_3(tmp_path, capsys):
    code, _, stderr = run(capsys, "oracle", "--n", "9", "--set-size", "3",
                          "--out", str(tmp_path / "o.json"))
    assert code == 3
    assert "enumeration budget exceeded" in stderr
    # announced-sets-1 at n=9, set size 3: 2^9 * 2 * C(9,3)^2 weighted states
    assert stderr.count("7225344") == 1


def test_unwritable_out_exits_4(tmp_path, capsys):
    target = tmp_path / "missing" / "dir" / "r.json"
    code, _, stderr = run(capsys, "simulate", *SIM_FLAGS,
                          "--trials", "5", "--out", str(target))
    assert code == 4
    assert "i/o failure" in stderr


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


def test_region_requires_erasure_probs_without_channel(tmp_path, capsys):
    code, _, stderr = run(capsys, "region", "--out", str(tmp_path / "r.json"))
    assert code == 2
    assert "p1" in stderr


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
    ("region", {"all": 1}, "config key 'all' must be true or false, got 1"),
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
