import importlib.util
import io
import json
import sys
import time
from pathlib import Path

import pytest

from overq import cli, congruences
from overq.cli import main
from overq.identities import IdentityCase, IdentityReport
from overq.expr import eta_series
from overq.series import EXACT

ETA = sys.modules["overq.eta"]  # the package's eta function shadows the submodule


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


# --- identities ----------------------------------------------------------------


def test_identities_single_key():
    code, text = run_cli(["identities", "--only", "D4", "--order", "300"])
    assert code == 0
    rows = [line for line in text.splitlines() if line.startswith("D4")]
    assert len(rows) == 1 and "PASS" in rows[0]


def test_identities_all_pass_small_order():
    code, text = run_cli(["identities", "--order", "60"])
    assert code == 0
    assert "17/17 identities passed" in text


def test_identities_unknown_key_is_usage_error():
    code, _ = run_cli(["identities", "--only", "nope"])
    assert code == 2


def test_identities_zero_order_is_usage_error():
    code, _ = run_cli(["identities", "--order", "0"])
    assert code == 2


def test_identities_failure_exits_one(monkeypatch):
    import overq.cli as cli

    bad = IdentityCase(key="bogus", lhs=eta_series("f1"), rhs=eta_series("f2"))
    monkeypatch.setattr(cli, "builtin_identities", lambda: (bad,))
    monkeypatch.setattr(cli, "identity_registry", lambda: {"bogus": bad})
    code, text = run_cli(["identities", "--order", "10"])
    assert code == 1
    assert "FAIL" in text


# --- verify ----------------------------------------------------------------------


def test_verify_single_family():
    code, text = run_cli(["verify", "pbar-8n+7-mod32", "--t-max", "6", "--n-max", "25"])
    assert code == 0
    assert "pbar-8n+7-mod32" in text and "pass" in text


def test_verify_unknown_key():
    code, _ = run_cli(["verify", "no-such-key"])
    assert code == 2


def test_verify_requires_keys():
    code, _ = run_cli(["verify"])
    assert code == 2


def test_verify_all_small_grid():
    code, text = run_cli(
        ["verify", "all", "--t-max", "4", "--n-max", "6", "--alpha-max", "0",
         "--i-max", "1", "--j-max", "1"]
    )
    assert code == 0
    assert "0 blocking failure(s)" in text


def test_verify_json_is_versioned_and_deterministic():
    argv = [
        "verify", "all", "--include-conjectures", "--format", "json",
        "--t-max", "3", "--n-max", "5", "--alpha-max", "0",
        "--i-max", "1", "--j-max", "1",
    ]
    code1, text1 = run_cli(argv)
    code2, text2 = run_cli(argv)
    assert code1 == code2 == 0  # conjecture failures never block
    assert text1 == text2
    doc = json.loads(text1)
    assert doc["schema"] == "overq-report/1"
    verdicts = {row["key"]: row["verdict"] for row in doc["results"]}
    assert verdicts["opt-8n+4-mod-2^{2i+4}"] == "conjecture-fail"
    assert verdicts["pbar-8n+7-mod32"] == "pass"
    failing = next(r for r in doc["results"] if r["key"] == "opt-8n+4-mod-2^{2i+4}")
    assert failing["witnesses"][0]["n"] == 0
    assert failing["witnesses"][0]["value"] == 32


def test_verify_excludes_conjectures_by_default():
    code, text = run_cli(
        ["verify", "all", "--format", "json", "--t-max", "2", "--n-max", "4",
         "--alpha-max", "0", "--i-max", "1", "--j-max", "1"]
    )
    assert code == 0
    doc = json.loads(text)
    keys = {row["key"] for row in doc["results"]}
    assert "opt-8n+4-mod-2^{2i+4}" not in keys
    assert "pbar-8n+7-mod32" in keys


def test_verify_csv_lists_witnesses():
    code, text = run_cli(
        ["verify", "opt-8n+4-mod-2^{2i+4}", "--include-conjectures", "--format", "csv",
         "--i-max", "1", "--n-max", "5"]
    )
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "key,params,n,value,modulus,expected"
    assert any(line.startswith("opt-8n+4-mod-2^{2i+4},i=1;r=1,0,32,64,0") for line in lines[1:])


# --- oracle ----------------------------------------------------------------------


def test_oracle_zero_tuple_csv():
    code, text = run_cli(["oracle", "--t", "0", "--upto", "5", "--format", "csv"])
    assert code == 0
    assert text.splitlines() == [
        "family,parameter,n,count",
        "overpartition-tuples,0,0,1",
        "overpartition-tuples,0,1,0",
        "overpartition-tuples,0,2,0",
        "overpartition-tuples,0,3,0",
        "overpartition-tuples,0,4,0",
        "overpartition-tuples,0,5,0",
    ]


def test_oracle_cross_checks_both_families():
    code, text = run_cli(["oracle", "--t", "1", "--opt", "1", "--upto", "40"])
    assert code == 0
    assert "all counts match" in text


def test_oracle_default_runs_small_parameters():
    code, text = run_cli(["oracle", "--upto", "12"])
    assert code == 0
    assert text.count("PASS") == 14  # overpartition and odd-part, sizes 0..6


def test_oracle_counts_and_expands_a_repeated_size_once(monkeypatch):
    # Each distinct size is counted and checked once, by gf_mismatch, and a
    # passing run expands no exact series: the GF is read only for the value
    # reported at a failing size.
    calls = []

    def counted(name):
        real = getattr(cli, name)

        def wrapper(*args):
            calls.append((name, *args[:2]))
            return real(*args)

        monkeypatch.setattr(cli, name, wrapper)

    for name in ("count_overpartition_tuples", "count_opt_tuples", "gf_mismatch", "family_gf"):
        counted(name)
    expansions = []

    def recorded(name):
        expand = getattr(ETA, name)

        def wrapper(factors, ring, order):
            expansions.append((name, str(factors), ring, order))
            return expand(factors, ring, order)

        monkeypatch.setattr(ETA, name, wrapper)

    for name in ("expand_eta_quotient", "_expand_thetas"):
        recorded(name)
    argv = ["oracle", "--t", "2", "--t", "1", "--t", "2", "--opt", "3", "--opt", "3",
            "--upto", "8", "--format", "json"]
    code, text = run_cli(argv)
    assert code == 0
    assert sorted(calls) == sorted([
        ("count_overpartition_tuples", 2, 8), ("gf_mismatch", "overpartition", 2),
        ("count_overpartition_tuples", 1, 8), ("gf_mismatch", "overpartition", 1),
        ("count_opt_tuples", 3, 8), ("gf_mismatch", "opt", 3),
    ])
    assert expansions == []
    results = json.loads(text)["results"]
    assert [(row["family"], row["parameter"]) for row in results] == [
        ("overpartition-tuples", 2), ("overpartition-tuples", 1), ("overpartition-tuples", 2),
        ("opt-tuples", 3), ("opt-tuples", 3),
    ]
    assert results[0] == results[2] and results[3] == results[4]
    assert all(row["matches_gf"] for row in results)

    count = cli.count_overpartition_tuples

    def corrupted(t, upto):
        table = count(t, upto)
        return table._replace(counts=table.counts[:5] + (table.counts[5] + 1,) + table.counts[6:])

    monkeypatch.setattr(cli, "count_overpartition_tuples", corrupted)
    calls.clear()
    code, text = run_cli(argv)
    assert code == 1
    assert [call for call in calls if call[0] == "family_gf"] == [("family_gf", "overpartition", 2)]
    # the value at n = 5, read once, as phi(-q)^-2
    assert expansions == [("_expand_thetas", "((1, -2),)", EXACT, 6)]
    results = json.loads(text)["results"]
    assert [row["matches_gf"] for row in results] == [False, False, False, True, True]


# --- replay ----------------------------------------------------------------------


def test_replay_width_32_only():
    code, text = run_cli(["replay", "--width", "32"])
    assert code == 0
    lines = text.splitlines()
    assert len(lines) == 1 and "rows  16" in lines[0] and "PASS" in lines[0]


def test_replay_width_16_only():
    code, text = run_cli(["replay", "--width", "16"])
    assert code == 0
    assert "rows   8" in text and "PASS" in text


def test_replay_single_step():
    code, text = run_cli(["replay", "--step", "G4-odd", "--t", "7", "--order", "200"])
    assert code == 0
    assert "G4-odd" in text and "PASS" in text


def test_replay_step_missing_parameter(capsys):
    code, text = run_cli(["replay", "--step", "G4-odd"])
    assert code == 2 and text == ""
    assert capsys.readouterr().err == "error: step G4-odd needs --t\n"


def test_replay_step_out_of_domain(capsys):
    code, text = run_cli(["replay", "--step", "G4-even", "--t", "3"])
    assert code == 2 and text == ""
    assert capsys.readouterr().err == "error: parameters {'t': 3} outside the domain of G4-even\n"


def test_replay_unknown_step(capsys):
    code, text = run_cli(["replay", "--step", "nope", "--t", "1"])
    assert code == 2 and text == ""
    assert capsys.readouterr().err == "error: unknown dissection step 'nope'\n"


def test_replay_step_extra_parameter(capsys):
    code, text = run_cli(["replay", "--step", "G4-odd", "--t", "3", "--i", "2"])
    assert code == 2 and text == ""
    assert capsys.readouterr().err == "error: step G4-odd takes no --i\n"


def test_replay_everything_small_order():
    code, text = run_cli(["replay", "--order", "80"])
    assert code == 0
    assert "table mod 16" in text and "table mod 32" in text
    assert "opt-4n+3-i1" in text
    assert "FAIL" not in text


# --- config file and output files -------------------------------------------------


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("t-max=3\nn-max=5\nformat=json\n# comment\n")
    code, text = run_cli(["verify", "pbar-8n+7-mod32", "--config", str(cfg)])
    assert code == 0
    doc = json.loads(text)
    assert doc["config"]["t_max"] == 3
    assert doc["config"]["n_max"] == 5


def test_flags_win_over_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("t-max=3\nformat=json\n")
    code, text = run_cli(
        ["verify", "pbar-8n+7-mod32", "--config", str(cfg), "--format", "table", "--n-max", "4"]
    )
    assert code == 0
    with pytest.raises(json.JSONDecodeError):
        json.loads(text)


def test_bad_config_file_is_usage_error(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("nonsense=1\n")
    code, _ = run_cli(["verify", "pbar-8n+7-mod32", "--config", str(cfg)])
    assert code == 2
    cfg.write_text("n-max=zero\n")
    code, _ = run_cli(["verify", "pbar-8n+7-mod32", "--config", str(cfg)])
    assert code == 2


def test_out_dir_writes_report_file(tmp_path):
    out_dir = tmp_path / "reports"
    code, text = run_cli(
        ["identities", "--only", "D1", "--order", "50", "--format", "json",
         "--out", str(out_dir)]
    )
    assert code == 0
    written = (out_dir / "identities.json").read_text()
    assert written.strip() == text.strip()
    assert json.loads(written)["schema"] == "overq-report/1"


def test_out_dir_that_cannot_be_made_is_usage_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, text = run_cli(
        ["identities", "--only", "D1", "--order", "20", "--out", str(blocker / "x")]
    )
    err = capsys.readouterr().err
    assert code == 2 and text == ""
    assert err.startswith("error: cannot create report directory") and "Traceback" not in err


def test_out_file_that_cannot_be_written_is_usage_error(tmp_path, capsys):
    (tmp_path / "identities.txt").mkdir()
    code, text = run_cli(
        ["identities", "--only", "D1", "--order", "20", "--out", str(tmp_path)]
    )
    err = capsys.readouterr().err
    assert code == 2 and "1/1 identities passed" in text
    assert err.startswith("error: cannot write report") and "Traceback" not in err


@pytest.mark.parametrize("flag", ["--jobs", "--seed"])
def test_removed_jobs_and_seed_flags_are_usage_errors(flag):
    code, _ = run_cli(["identities", "--order", "40", flag, "1"])
    assert code == 2


@pytest.mark.parametrize("line", ["jobs=1", "seed=0"])
def test_removed_jobs_and_seed_config_keys_are_usage_errors(tmp_path, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    code, _ = run_cli(["identities", "--order", "40", "--config", str(cfg)])
    assert code == 2


def test_report_config_block_keeps_fixed_jobs_and_seed():
    code, text = run_cli(["identities", "--only", "D1", "--order", "20", "--format", "json"])
    assert code == 0
    config = json.loads(text)["config"]
    assert config["jobs"] == 1 and config["seed"] == 0


@pytest.mark.parametrize(
    "argv, line",
    [
        (["verify", "opt-8n+7-mod-2^{i+4}"], "i-max=0"),
        (["verify", "pbar-8n+7-mod32"], "t-max=-5"),
        (["verify", "pbar-8n+7-mod32"], "include-conjectures=maybe"),
        (["verify", "pbar-8n+7-mod32"], "format=xml"),
        (["oracle", "--t", "1"], "upto=-3"),
        (["identities", "--only", "D1"], "order=0"),
    ],
    ids=lambda value: " ".join(value) if isinstance(value, list) else value,
)
def test_config_values_are_checked_like_flags(tmp_path, argv, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    code, text = run_cli([*argv, "--config", str(cfg)])
    assert code == 2 and text == ""


def test_config_switch_is_read(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("include-conjectures=true\nformat=json\n")
    code, text = run_cli(
        ["verify", "all", "--t-max", "1", "--n-max", "2", "--alpha-max", "0",
         "--i-max", "1", "--j-max", "1", "--config", str(cfg)]
    )
    assert code == 0
    keys = {row["key"] for row in json.loads(text)["results"]}
    assert "opt-8n+4-mod-2^{2i+4}" in keys


@pytest.mark.parametrize(
    "argv",
    [
        ["identities", "--t-max", "3"],
        ["identities", "--primes-only"],
        ["identities", "--n-max", "9"],
        ["identities", "--upto", "9"],
        ["verify", "all", "--upto", "9"],
        ["verify", "all", "--order", "9"],
        ["oracle", "--order", "40"],
        ["oracle", "--n-max", "9"],
        ["replay", "--t-max", "3"],
        ["replay", "--t", "5", "--r", "3", "--width", "16"],
        ["replay", "--t", "5"],
        ["replay", "--width", "16", "--step", "G4-odd", "--t", "3"],
        ["replay", "--width", "16", "--order", "80"],
        ["replay", "--step", "G4-odd", "--t", "3", "--r", "9", "--i", "4"],
        ["replay", "--step", "G4-odd", "--t", "3", "--r", "9"],
        ["replay", "--step", "opt-4n+3-i1", "--r", "1", "--t", "3"],
    ],
    ids=" ".join,
)
def test_flags_a_command_does_not_read_are_usage_errors(argv):
    code, text = run_cli(argv)
    assert code == 2 and text == ""


def test_primes_only_without_a_prime_scan_family_is_usage_error(tmp_path, capsys):
    code, text = run_cli(
        ["verify", "opt-8n+7-mod-2^{i+4}", "--primes-only", "--i-max", "1", "--n-max", "5"]
    )
    assert code == 2 and text == ""
    assert "--primes-only" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("primes-only=true\n")
    code, text = run_cli(["verify", "pbar-n-mod2", "--n-max", "5", "--config", str(cfg)])
    assert code == 2 and text == ""


def test_primes_only_scans_prime_sizes_of_a_prime_scan_family():
    code, text = run_cli(
        ["verify", "pbar-8n+7-mod32", "pbar-n-mod2", "--t-max", "10", "--n-max", "5",
         "--primes-only", "--format", "json"]
    )
    assert code == 0
    tried = {row["key"]: row["params_tried"] for row in json.loads(text)["results"]}
    assert tried == {"pbar-8n+7-mod32": 4, "pbar-n-mod2": 11}  # t in {2, 3, 5, 7}; t in 0..10


def test_config_key_a_command_does_not_read_is_usage_error(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("t-max=3\n")
    code, _ = run_cli(["identities", "--only", "D1", "--config", str(cfg)])
    assert code == 2
    cfg.write_text("order=600\n")
    code, text = run_cli(["verify", "pbar-8n+7-mod32", "--config", str(cfg)])
    assert code == 2 and text == ""


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize(
    "keys, setting, message",
    [
        (["opt-8n+7-mod-2^{i+4}"], "t-max=3", "--t-max sizes only families with a t axis"),
        (["pbar-8n+7-mod32"], "alpha-max=9", "--alpha-max sizes only families with an alpha axis"),
        (["pbar-2^{2a+2}n+2^{2a+1}-mod4"], "i-max=2", "--i-max sizes only families with an i axis"),
        (["pbar-n-mod2", "opt-3n+1-mod-3^i2"], "j-max=2",
         "--j-max sizes only families with a j axis"),
    ],
    ids=["t-max", "alpha-max", "i-max", "j-max"],
)
def test_grid_setting_no_selected_family_reads_is_usage_error(
    tmp_path, capsys, keys, setting, message, source
):
    if source == "flag":
        name, _, value = setting.partition("=")
        argv = ["verify", *keys, "--" + name, value]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(setting + "\n")
        argv = ["verify", *keys, "--config", str(cfg)]
    code, text = run_cli(argv)
    assert code == 2 and text == ""
    assert capsys.readouterr().err == f"error: {message}, and none is selected\n"


# A tiny run for each (command, setting) pair, and the setting's flag at a
# value other than its default.
SETTING_CASES = {
    ("identities", "order"): (["identities", "--only", "D1"], ["--order", "20"]),
    ("identities", "format"): (
        ["identities", "--only", "D1", "--order", "20"], ["--format", "csv"]
    ),
    ("verify", "n_max"): (["verify", "pbar-8n+7-mod32", "--t-max", "1"], ["--n-max", "3"]),
    ("verify", "t_max"): (["verify", "pbar-8n+7-mod32", "--n-max", "3"], ["--t-max", "1"]),
    ("verify", "i_max"): (["verify", "opt-8n+7-mod-2^{i+4}", "--n-max", "3"], ["--i-max", "1"]),
    ("verify", "j_max"): (
        ["verify", "opt-3n+1-mod-3^i2^{j+1}", "--n-max", "3", "--i-max", "1"],
        ["--j-max", "1"],
    ),
    ("verify", "alpha_max"): (
        ["verify", "pbar-2^{2a+2}n+2^{2a+1}-mod4", "--t-max", "1", "--n-max", "3"],
        ["--alpha-max", "0"],
    ),
    ("verify", "include_conjectures"): (
        ["verify", "all", "--t-max", "1", "--n-max", "2", "--alpha-max", "0", "--i-max", "1",
         "--j-max", "1"],
        ["--include-conjectures"],
    ),
    ("verify", "primes_only"): (
        ["verify", "pbar-8n+7-mod32", "--t-max", "5", "--n-max", "3"], ["--primes-only"]
    ),
    ("verify", "format"): (
        ["verify", "pbar-8n+7-mod32", "--t-max", "1", "--n-max", "3"], ["--format", "csv"]
    ),
    ("oracle", "upto"): (["oracle", "--t", "1"], ["--upto", "5"]),
    ("oracle", "format"): (["oracle", "--t", "1", "--upto", "5"], ["--format", "csv"]),
    ("replay", "order"): (
        ["replay", "--step", "opt-2n+1", "--i", "2", "--r", "1"], ["--order", "60"]
    ),
    ("replay", "format"): (["replay", "--width", "16"], ["--format", "csv"]),
}


@pytest.mark.parametrize(
    "command, dest",
    [
        pytest.param(command, dest, id=f"{command}-{dest}")
        for dest, (_, _, readers) in cli._OPTIONS.items()
        for command in readers
    ],
)
def test_every_setting_a_command_accepts_changes_its_report(command, dest):
    # A setting accepted and then ignored would report the same at both values.
    base, other = SETTING_CASES[command, dest]
    reports = []
    for argv in (base, base + other):
        if dest != "format":
            argv = argv + ["--format", "json"]
        code, text = run_cli(argv)
        assert code in (0, 1), argv
        reports.append(text if dest == "format" else json.loads(text)["results"])
    assert reports[0] != reports[1]


def test_replay_step_with_all_its_parameters():
    code, text = run_cli(["replay", "--step", "opt-2n+1", "--i", "2", "--r", "1", "--order", "60"])
    assert code == 0
    assert text.startswith("step opt-2n+1") and "PASS" in text


@pytest.mark.parametrize("only", [",", "", " , ,"])
def test_only_naming_no_identity_key_is_usage_error(capsys, only):
    code, text = run_cli(["identities", "--only", only, "--order", "10"])
    assert code == 2 and text == ""
    assert capsys.readouterr().err == "error: --only names no identity key\n"


def test_repeated_identity_key_is_usage_error(capsys):
    code, text = run_cli(["identities", "--only", "D1,D4,D1", "--order", "20"])
    assert code == 2 and text == ""
    assert capsys.readouterr().err == "error: repeated identity keys: D1\n"


def test_repeated_family_key_is_usage_error(capsys):
    code, text = run_cli(
        ["verify", "pbar-n-mod2", "pbar-8n+1-mod2", "pbar-n-mod2", "--t-max", "2", "--n-max", "3"]
    )
    assert code == 2 and text == ""
    assert capsys.readouterr().err == "error: repeated family keys: pbar-n-mod2\n"


def test_config_order_with_width_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("order=100\n")
    code, text = run_cli(["replay", "--width", "16", "--config", str(cfg)])
    assert code == 2 and text == ""
    assert "takes no --order" in capsys.readouterr().err
    cfg.write_text("format=csv\n")  # a key --width does read is still taken
    code, text = run_cli(["replay", "--width", "16", "--config", str(cfg)])
    assert code == 0 and text == "type,key,params,status\ntable,mod16,,PASS\n"


def test_verify_over_the_order_budget_is_usage_error(capsys):
    # a = 2 asks for order 128*20001, over the 2,000,000 budget: refused
    # before any series is built, with no traceback.
    code, text = run_cli(
        ["verify", "pbar-2^{2a+3}n+5*2^{2a}-mod4", "--n-max", "20000", "--alpha-max", "4",
         "--t-max", "1"]
    )
    assert code == 2 and text == ""
    assert capsys.readouterr().err == (
        "error: pbar-2^{2a+3}n+5*2^{2a}-mod4: working order 2560128 "
        "(to reach 128*20000+80) exceeds budget 2000000\n"
    )


@pytest.mark.parametrize(
    "argv,setting",
    [
        (["identities", "--only", "D1,B1-p2-k3"], "order"),
        (["oracle", "--t", "2", "--opt", "1"], "upto"),
    ],
)
def test_exact_orders_over_the_budget_are_usage_errors(
    monkeypatch, tmp_path, capsys, argv, setting
):
    flag = "--" + setting
    code, _ = run_cli(argv + [flag, str(cli.MAX_EXACT_ORDER + 1)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {setting} {cli.MAX_EXACT_ORDER + 1} exceeds budget {cli.MAX_EXACT_ORDER}\n"
    )
    monkeypatch.setattr(cli, "MAX_EXACT_ORDER", 30)
    code, text = run_cli(argv + [flag, "30"])
    assert code == 0 and text
    code, text = run_cli(argv + [flag, "31"])
    assert code == 2 and text == ""
    assert capsys.readouterr().err == f"error: {setting} 31 exceeds budget 30\n"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{setting}=31\n")  # a config-file value is held to the same budget
    code, text = run_cli(argv + ["--config", str(cfg)])
    assert code == 2 and text == ""
    assert capsys.readouterr().err == f"error: {setting} 31 exceeds budget 30\n"


@pytest.mark.parametrize("source", ["flag", "config"])
def test_replay_over_the_step_budget_is_usage_error(tmp_path, capsys, source):
    # With no --step, replay runs every registered step; the first refuses
    # order 250001 (over MAX_WORKING_ORDER // 8) before it evaluates anything.
    if source == "flag":
        argv = ["replay", "--order", "250001"]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("order=250001\n")
        argv = ["replay", "--config", str(cfg)]
    code, text = run_cli(argv)
    assert code == 2 and text == ""
    assert capsys.readouterr().err == "error: order 250001 exceeds the step working budget\n"


def _refuse_work(monkeypatch):
    """Make every grid build, count and step check fail the test if it runs."""

    def built(*args, **kwargs):
        raise AssertionError("work ran before the budget check")

    monkeypatch.setattr(congruences, "default_grid", built)
    monkeypatch.setattr(congruences, "verify_identity", built)
    monkeypatch.setattr(cli, "count_overpartition_tuples", built)
    monkeypatch.setattr(cli, "count_opt_tuples", built)


@pytest.mark.parametrize(
    "argv,err",
    [
        (
            ["verify", "all", "--t-max", "100000000"],
            "grid of 2500000729 points exceeds budget 200000",
        ),
        (
            ["replay", "--step", "opt-2n+1", "--i", "400", "--r", "1"],
            "step opt-2n+1: --i 400 exceeds budget 64",
        ),
        (
            ["oracle", "--upto", "600", "--t", "1000"],
            "overpartition-tuples size 1000 at upto 600 exceeds budget: "
            "size * (upto + 1) > 70000",
        ),
        (
            ["replay", "--step", "opt-2n+1", "--i", "64", "--r", "63", "--order", "5000"],
            "order 5000 exceeds the step working budget",  # about 30 s of work
        ),
        (
            # f1^-252 (8 bits) mod 32 (6 bits) to order 4 * 52083 + 3: work 10,000,080
            ["replay", "--step", "opt-4n+3-i1", "--r", "63", "--order", "52083"],
            "order 52083 exceeds the step working budget",
        ),
    ],
)
def test_over_budget_sizes_are_refused_before_any_work(monkeypatch, capsys, argv, err):
    _refuse_work(monkeypatch)
    start = time.process_time()
    code, text = run_cli(argv)
    assert time.process_time() - start < 1
    assert code == 2 and text == ""
    assert capsys.readouterr().err == f"error: {err}\n"


@pytest.mark.parametrize(
    "argv",
    [
        [],  # every default point, to order 500
        ["--step", "opt-2n+1", "--i", "64", "--r", "1", "--order", "500"],  # 0.54 s
        ["--step", "opt-2n+1", "--i", "64", "--r", "63", "--order", "1000"],  # 1.6 s
        ["--step", "G32", "--t", "16", "--order", "20000"],  # 0.23 s
        ["--step", "M1", "--t", "6", "--order", "60000"],  # 0.64 s
        ["--step", "G16", "--t", "64", "--order", "250000"],  # 4.1 s, work 10M exactly
        ["--step", "opt-4n+3-i1", "--r", "63", "--order", "52082"],  # work 9,999,888, the edge
    ],
)
def test_step_work_budget_admits_runs_of_seconds(monkeypatch, argv):
    # the budget alone is under test: a step that passes it is not evaluated
    def unchecked(case, order):
        return IdentityReport(case.key, case.modulus, order, ok=True, params=case.params)

    monkeypatch.setattr(congruences, "verify_identity", unchecked)
    code, text = run_cli(["replay", *argv])
    assert code == 0 and "PASS" in text


def test_verify_grid_budget_counts_axis_products(monkeypatch, capsys):
    # pbar-n-mod2 has one axis, t = 0..9: 10 points, the budget's edge
    monkeypatch.setattr(congruences, "MAX_GRID_POINTS", 10)
    code, _ = run_cli(["verify", "pbar-n-mod2", "--t-max", "9", "--n-max", "5"])
    assert code == 0
    _refuse_work(monkeypatch)
    with pytest.raises(AssertionError, match="work ran"):  # the guard is on the run's path
        run_cli(["verify", "pbar-n-mod2", "--t-max", "9", "--n-max", "5"])
    code, text = run_cli(["verify", "pbar-n-mod2", "--t-max", "10", "--n-max", "5"])
    assert code == 2 and text == ""
    assert capsys.readouterr().err == "error: grid of 11 points exceeds budget 10\n"
    # summed over families, before the domain and prime filters: i = 0..1, r = 0..15
    monkeypatch.setattr(congruences, "MAX_GRID_POINTS", 10 + 2 * 16 - 1)
    code, _ = run_cli(
        ["verify", "pbar-8n+7-mod32", "opt-8n+7-mod-2^{i+4}", "--t-max", "9", "--i-max", "1",
         "--primes-only"]
    )
    assert code == 2
    assert capsys.readouterr().err == "error: grid of 42 points exceeds budget 41\n"


def test_default_and_bench_grids_are_within_the_grid_budget(monkeypatch):
    # every family on the default grid (the bench scan) tries 2,649 axis points
    assert 2649 <= congruences.MAX_GRID_POINTS
    monkeypatch.setattr(congruences, "MAX_GRID_POINTS", 2649)
    built = []
    monkeypatch.setattr(
        congruences, "default_grid", lambda family, config: built.append(family) or []
    )
    families = congruences.builtin_families()
    assert congruences.run_families(families, congruences.RunConfig()) is not None
    assert built == list(families)  # the run reached the stand-in grid builder
    built.clear()
    monkeypatch.setattr(congruences, "MAX_GRID_POINTS", 2648)
    with pytest.raises(congruences.BudgetError, match="grid of 2649 points"):
        congruences.run_families(families, congruences.RunConfig())
    assert built == []


def test_step_parameter_budget_edges(monkeypatch, capsys):
    code, text = run_cli(["replay", "--step", "G32", "--t", "64"])
    assert code == 0 and "PASS" in text
    _refuse_work(monkeypatch)
    for argv in (["--step", "G32", "--t", "65"], ["--step", "opt-2n+1-i1", "--r", "65"]):
        code, text = run_cli(["replay", *argv])
        assert code == 2 and text == ""
        name, value = argv[2:]
        assert capsys.readouterr().err == (
            f"error: step {argv[1]}: {name} {value} exceeds budget 64\n"
        )


def _bench_expected():
    path = Path(__file__).resolve().parents[1] / "bench" / "expected.py"
    spec = importlib.util.spec_from_file_location("bench_expected", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_oracle_size_budget_edges(monkeypatch, capsys):
    # the default sizes 0..6 pass at every upto, and so do the bench sizes
    assert 6 * (cli.MAX_EXACT_ORDER + 1) <= cli.MAX_ORACLE_WORK
    bench = _bench_expected()
    assert bench.ORACLE_MAX_SIZE * (bench.ORACLE_UPTO + 1) <= cli.MAX_ORACLE_WORK
    monkeypatch.setattr(cli, "MAX_ORACLE_WORK", 30)
    code, text = run_cli(["oracle", "--upto", "5", "--t", "5", "--opt", "5"])
    assert code == 0 and text
    _refuse_work(monkeypatch)
    code, text = run_cli(["oracle", "--upto", "5", "--t", "5", "--opt", "6"])
    assert code == 2 and text == ""
    assert capsys.readouterr().err == (
        "error: opt-tuples size 6 at upto 5 exceeds budget: size * (upto + 1) > 30\n"
    )
    code, _ = run_cli(["oracle", "--upto", "0", "--t", "31"])  # upto 0 still counts one slot
    assert code == 2
    assert "size 31 at upto 0" in capsys.readouterr().err
