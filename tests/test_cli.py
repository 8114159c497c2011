import json
import os
import subprocess
import sys
import time

import pytest

import rsrforge.discovery as discovery
from rsrforge import cli
from rsrforge.discovery import InferConfig

PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_cli(*argv, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(PKG_ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "rsrforge.cli", *argv],
        capture_output=True,
        cwd=PKG_ROOT,
        env=env,
        timeout=600,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_infer_linear_exit_zero():
    code, out, _err = run_cli(
        "infer", "--function", "linear", "--degree", "1",
        "--samples", "50", "--seed", "7",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["error"] is None
    identities = [p["identity"] for p in doc["properties"].values()]
    assert "f(r + x) - f(r) - f(x) = 0" in identities
    assert doc["config"]["seed"] == 7  # snapshot embedded


def test_infer_gamma_exit_two():
    code, out, _err = run_cli(
        "infer", "--function", "gamma", "--degree", "2",
        "--samples", "60", "--seed", "7",
    )
    assert code == 2
    doc = json.loads(out)
    assert doc["properties"] == {}
    assert doc["error"]


def test_infer_unknown_function_exit_one():
    code, out, err = run_cli("infer", "--function", "nosuch", "--seed", "1")
    assert code == 1
    assert out == b""
    assert b"error" in err


def test_infer_malformed_input_exit_one():
    for argv in (
        ("--function", "linear", "--box", "5"),
        ("--function", "linear", "--box=3,-3"),
        ("--function", "linear", "--box=2,2"),
        ("--expr", "pow(x)"),
        ("--program", "taylor:sigmoid:x"),
        ("--program", "taylor:sigmoid:0"),
    ):
        code, out, err = run_cli("infer", *argv, "--seed", "1")
        assert code == 1, argv
        assert out == b""
        lines = err.decode().splitlines()
        assert lines[-1].startswith("error: ") and "Traceback" not in err.decode()
        if argv[0] == "--program":
            assert argv[1] in lines[-1]


@pytest.mark.parametrize(
    "argv",
    [
        ("infer", "--function", "linear", "--samples", "0"),
        ("infer", "--function", "linear", "--max-denominator", "0"),
        ("bench", "--names", "linear", "--epsilon", "0"),
        ("bench", "--names", "linear", "--max-degree", "0"),
        ("bench", "--names", "linear", "--samples", "0"),
        ("bench", "--names", "linear", "--repetitions", "0"),
        ("infer", "--expr", "x", "--arity", "0", "--degree", "1"),
        ("infer", "--expr", "x", "--arity", "-2", "--degree", "1"),
        ("infer", "--function", "linear", "--arity", "0"),
        ("bench", "--names", "linear", "--workers", "-1"),
        ("infer", "--function", "linear", "--arity", "2", "--degree", "1"),
        ("infer", "--program", "taylor:exp:10", "--arity", "2", "--degree", "1"),
        ("infer", "--expr", "x^2", "--degree", "1", "--epsilon", "nan"),
        ("infer", "--expr", "x^2", "--degree", "1", "--epsilon", "inf"),
        ("bench", "--names", "linear", "--epsilon", "nan"),
        ("bench", "--names", "linear", "--epsilon", "inf"),
    ],
)
def test_out_of_range_setting_exit_one(argv):
    code, out, err = run_cli(*argv, "--seed", "1")
    text = err.decode()
    assert code == 1, argv
    assert out == b"", argv
    assert "Traceback" not in text
    assert len([ln for ln in text.splitlines() if ln.startswith("error:")]) == 1


def test_too_few_samples_exit_one_before_sampling(monkeypatch, capsys):
    # split needs 5 rows; with fewer, nothing is drawn before the error
    calls = []
    draw = discovery.draw_samples
    monkeypatch.setattr(
        discovery, "draw_samples", lambda *args: calls.append(args) or draw(*args)
    )
    for argv in (
        ["infer", "--function", "linear", "--samples", "4", "--seed", "1"],
        ["bench", "--names", "linear,squared", "--samples", "4", "--workers", "1"],
    ):
        assert cli.main(argv) == 1, argv
        assert calls == [], argv
    out, err = capsys.readouterr()
    assert out == ""
    errors = [ln for ln in err.splitlines() if ln.startswith("error:")]
    assert errors == ["error: m must be at least 5"] * 2


@pytest.mark.parametrize(
    "argv, env_seed",
    [
        (("infer", "--expr", "x", "--degree", "1", "--seed", "-1"), None),
        (("infer", "--expr", "x", "--degree", "1"), "-1"),
        (("verify", "--expr", "f(x)", "--function", "linear", "--seed", "-1"), None),
        (("verify", "--expr", "f(x)", "--function", "linear"), "-1"),
        (("bench", "--names", "linear", "--repetitions", "1", "--seed", "-1"), None),
        (("bench", "--names", "linear", "--repetitions", "1"), "-1"),
    ],
)
def test_negative_seed_exit_one(argv, env_seed):
    env_extra = {"RSRFORGE_SEED": env_seed} if env_seed else None
    code, out, err = run_cli(*argv, env_extra=env_extra)
    text = err.decode()
    assert code == 1, argv
    assert out == b"", argv
    assert "Traceback" not in text
    errors = [ln for ln in text.splitlines() if ln.startswith("error:")]
    assert len(errors) == 1 and "seed" in errors[0]


@pytest.mark.parametrize(
    "argv, env_seed",
    [
        (("infer", "--expr", "x", "--degree", "1"), "abc"),
        (("verify", "--expr", "f(x)", "--function", "linear"), "abc"),
        (("bench", "--names", "linear", "--repetitions", "1"), "1.5"),
    ],
)
def test_non_integer_env_seed_exit_one(argv, env_seed):
    code, out, err = run_cli(*argv, env_extra={"RSRFORGE_SEED": env_seed})
    text = err.decode()
    assert code == 1, argv
    assert out == b"", argv
    assert "Traceback" not in text
    assert text.splitlines() == [
        f"error: RSRFORGE_SEED must be an integer, got {env_seed!r}"
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ("infer", "--expr", "3^100000*x", "--degree", "1"),
        ("infer", "--expr", "1" * 5000 + "*x", "--degree", "1"),
        ("verify", "--expr", "f(x) - 3^5000", "--function", "linear"),
    ],
)
def test_huge_constant_exit_one(argv):
    code, out, err = run_cli(*argv, "--seed", "1")
    text = err.decode()
    assert code == 1, argv
    assert out == b"", argv
    assert "Traceback" not in text
    errors = [ln for ln in text.splitlines() if ln.startswith("error:")]
    assert len(errors) == 1 and len(errors[0]) < 200, errors


def test_over_budget_expansion_fails_on_the_exact_channel():
    # the expansion of the two powers would take minutes; it stops at the
    # term budget, and an over-budget identity never reaches 256 bits
    expr = "f(x+r) - f(x) - f(r) + (x+r)^2000*(x-r)^2000"
    t0 = time.perf_counter()
    code, out, err = run_cli(
        "verify", "--expr", expr, "--function", "linear", "--seed", "1"
    )
    assert time.perf_counter() - t0 < 15
    assert code == 2 and "Traceback" not in err.decode()
    doc = json.loads(out)
    assert (doc["status"], doc["channel"]) == ("fail", "symbolic_exact")
    assert "budget" in doc["reason"]


def test_infer_config_defaults_come_from_infer_config():
    code, out, _ = run_cli(
        "infer", "--function", "squared", "--degree", "1", "--seed", "1"
    )
    assert code == 0
    config = json.loads(out)["config"]
    defaults = InferConfig().snapshot()
    for key in defaults.keys() - {"max_degree", "seed"}:
        assert config[key] == defaults[key], key
    assert (config["max_degree"], config["seed"]) == (1, 1)


def test_infer_program_and_expr_oracles():
    code, out, _ = run_cli(
        "infer", "--program", "taylor:sigmoid:30", "--degree", "1",
        "--samples", "40", "--seed", "3", "--box=-4,4",
    )
    assert code in (0, 2)
    json.loads(out)

    code, out, _ = run_cli(
        "infer", "--expr", "x^2", "--degree", "1", "--samples", "40", "--seed", "3",
    )
    assert code == 0
    doc = json.loads(out)
    assert any("f(x - r)" in p["identity"] for p in doc["properties"].values())


def test_infer_rejects_overflowing_power_rows():
    # x^400 overflows a double for |x| above about 5.9; those rows are
    # redrawn like any other out-of-domain row instead of ending the run
    code, out, err = run_cli(
        "infer", "--expr", "x", "--queries", "x^400,x,r", "--degree", "1", "--seed", "1",
    )
    assert code == 2
    assert b"Traceback" not in err
    assert json.loads(out)["properties"] == {}


def test_verify_pass_and_fail_and_error():
    code, out, _ = run_cli(
        "verify", "--expr", "f(x)+f(y)-f(x+y)", "--function", "linear", "--seed", "1",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass" and doc["channel"] == "symbolic_exact"

    code, out, _ = run_cli(
        "verify", "--expr", "f(x+y)-f(x)-f(y)", "--function", "sin", "--seed", "1",
    )
    assert code == 2
    doc = json.loads(out)
    assert doc["status"] == "fail" and doc["reason"]

    code, _out, err = run_cli(
        "verify", "--expr", "f(x +", "--function", "sin", "--seed", "1",
    )
    assert code == 1
    assert b"error" in err


def test_verify_malformed_config_exit_one():
    for argv in (
        ("--function", "sign", "--expr", "f(x*r) - f(x)*f(r)", "--hp-bits", "32"),
        ("--function", "linear", "--expr", "f(x+r) - f(x) - f(r)", "--hp-bits", "32"),
        ("--function", "linear", "--expr", "f(x+r) - f(x) - f(r)", "--hp-points", "0"),
    ):
        code, out, err = run_cli("verify", *argv, "--seed", "1")
        assert code == 1, argv
        assert out == b""
        lines = err.decode().splitlines()
        assert lines[-1].startswith("error: ") and "Traceback" not in err.decode()


def test_verify_property_file(tmp_path):
    record = {"identity": "f(r + x) - f(r) - f(x) = 0"}
    path = tmp_path / "prop.json"
    path.write_text(json.dumps(record))
    code, out, _ = run_cli(
        "verify", "--property-file", str(path), "--function", "linear", "--seed", "2",
    )
    assert code == 0
    assert json.loads(out)["status"] == "pass"


@pytest.mark.parametrize(
    "content,message",
    [
        (None, "not found or unreadable"),
        ("f(x) = 0", "is not JSON: Expecting value: line 1 column 1 (char 0)"),
        (
            '{"properties": {"p1": {"identity": "f(x) = 0"}}}',
            "is not one property record: it needs an 'identity' string",
        ),
    ],
)
def test_bad_property_file_message(tmp_path, content, message):
    path = tmp_path / "prop.json"
    if content is not None:
        path.write_text(content)
    code, out, err = run_cli(
        "verify", "--property-file", str(path), "--function", "linear", "--seed", "1",
    )
    assert code == 1
    assert out == b""
    want = f"error: property file {str(path)!r} {message}"
    assert err.decode().splitlines() == [want]


def test_bench_rows_and_bad_selection():
    code, out, _ = run_cli(
        "bench", "--names", "linear,squared", "--repetitions", "1",
        "--seed", "11", "--format", "table", "--samples", "60",
    )
    assert code == 0
    lines = out.decode().splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("linear") and lines[2].startswith("squared")

    code, out, err = run_cli("bench", "--names", "nosuch", "--seed", "1")
    assert code == 1
    assert out == b""

    code, _, _ = run_cli("bench", "--filter", "nonsense", "--seed", "1")
    assert code == 1


def test_bench_names_are_stripped():
    # spaces around a comma-separated name select the same entries
    argv = ("--repetitions", "1", "--seed", "11", "--format", "json", "--samples", "60")
    code, spaced, err = run_cli("bench", "--names", " linear, squared ", *argv)
    assert code == 0, err.decode()
    _, plain, _ = run_cli("bench", "--names", "linear,squared", *argv)
    assert spaced == plain


@pytest.mark.parametrize(
    "argv,message",
    [
        (("bench", "--names", "linear,nope"), "unknown benchmark names: nope"),
        (("infer", "--function", "nope"), "no benchmark entry named 'nope'"),
        (("bench", "--filter", "category=nope"), "no entries in category 'nope'"),
        # an empty selection is an error, not the whole registry
        (
            ("bench", "--names", ""),
            "--names expects a comma list of benchmark names, got ''",
        ),
        (
            ("bench", "--names", "linear,"),
            "--names expects a comma list of benchmark names, got 'linear,'",
        ),
        (("bench", "--filter", ""), "--filter expects category=<name>, got ''"),
    ],
)
def test_unknown_registry_name_message(argv, message):
    code, out, err = run_cli(*argv, "--seed", "1")
    assert code == 1
    assert out == b""
    assert err.decode().splitlines() == [f"error: {message}"]


@pytest.mark.parametrize(
    "argv,message",
    [
        (("x^2", "x+r,x+r"), "duplicate coordinate 0 in query group 'x+r'"),
        (("x^2", "x,x"), "duplicate coordinate 0 in query group 'x'"),
        (
            ("x^2", "x+r,r+x"),
            "basis terms must be pairwise distinct: f(r + x) repeats",
        ),
        (
            ("x*y", "x+r", "--arity", "2"),
            "query group 'x+r' does not cover all 2 coordinates",
        ),
    ],
)
def test_invalid_query_basis_exit_one(argv, message):
    expr, queries, *rest = argv
    code, out, err = run_cli(
        "infer", "--expr", expr, "--queries", queries, *rest,
        "--degree", "1", "--seed", "1",
    )
    lines = err.decode().splitlines()
    assert code == 1 and out == b""
    assert "Traceback" not in err.decode()
    assert [ln for ln in lines if ln.startswith("error:")] == [f"error: {message}"]


@pytest.mark.parametrize(
    "queries,message",
    [
        # an empty --queries is an error, not the default query class
        ("", "--queries expects a comma list of queries, got ''"),
        (" ", "--queries expects a comma list of queries, got ' '"),
        ("x+r,", "--queries expects a comma list of queries, got 'x+r,'"),
        ("x+r,,x", "--queries expects a comma list of queries, got 'x+r,,x'"),
        ("x+r,x+", "--queries 'x+r,x+': unexpected token '' (at position 2)"),
    ],
)
def test_bad_query_list_exit_one(queries, message):
    code, out, err = run_cli(
        "infer", "--expr", "3*x", "--queries", queries, "--degree", "1", "--seed", "1"
    )
    assert code == 1 and out == b""
    assert err.decode().splitlines() == [f"error: {message}"]


def test_library_key_error_is_not_a_clean_exit(monkeypatch):
    def broken(args, cfg_file):
        return {}["missing"]

    monkeypatch.setattr(cli, "cmd_list_functions", broken)
    with pytest.raises(KeyError):
        cli.main(["list-functions"])


def test_bench_category_filter_uses_degree_three():
    code, out, _ = run_cli(
        "bench", "--filter", "category=hyperbolic", "--repetitions", "1",
        "--seed", "4", "--format", "json", "--samples", "60",
    )
    assert code == 0
    doc = json.loads(out)
    assert {r["name"] for r in doc["rows"]} == {"sinh", "cosh", "tanh"}
    assert all(r["degree"] == 3 for r in doc["rows"])


def test_determinism_infer_verify_bench():
    argv_sets = [
        ("infer", "--function", "squared", "--degree", "1",
         "--samples", "50", "--seed", "13"),
        ("verify", "--expr", "f(x*r)-f(x)-f(r)", "--function", "log", "--seed", "13"),
        ("bench", "--names", "linear,cube", "--repetitions", "1",
         "--seed", "13", "--format", "json", "--samples", "60"),
    ]
    for argv in argv_sets:
        _, out1, _ = run_cli(*argv)
        _, out2, _ = run_cli(*argv)
        assert out1 == out2, f"stdout differs for {argv}"


def test_env_seed_default():
    _, out1, _ = run_cli(
        "infer", "--function", "squared", "--degree", "1", "--samples", "40",
        env_extra={"RSRFORGE_SEED": "99"},
    )
    _, out2, _ = run_cli(
        "infer", "--function", "squared", "--degree", "1", "--samples", "40",
        "--seed", "99",
    )
    assert json.loads(out1) == json.loads(out2)


def test_config_file_resolution(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[infer]\nsamples = 40\nepsilon = 0.001\n")
    code, out1, _ = run_cli(
        "--config", str(cfg), "infer", "--function", "squared",
        "--degree", "1", "--seed", "21",
    )
    assert code == 0
    assert json.loads(out1)["config"]["m"] == 40
    # explicit flag beats the file
    code, out2, _ = run_cli(
        "--config", str(cfg), "infer", "--function", "squared",
        "--degree", "1", "--seed", "21", "--samples", "60",
    )
    assert json.loads(out2)["config"]["m"] == 60
    # other sections are left to their subcommands
    cfg.write_text("[infer]\nsamples = 40\n[verify]\nhp_points = 8\n")
    code, out3, _ = run_cli(
        "--config", str(cfg), "infer", "--function", "squared",
        "--degree", "1", "--seed", "21",
    )
    assert code == 0 and out3 == out1
    # a malformed value or a key the section does not read is an error
    for text, needle in (
        ("[infer]\nsamples = abc\n", "'abc'"),
        ("[infer]\nsampels = 50\n", "'sampels'"),
    ):
        cfg.write_text(text)
        code, out, err = run_cli(
            "--config", str(cfg), "infer", "--function", "squared", "--seed", "21"
        )
        assert code == 1 and out == b"", text
        lines = err.decode().splitlines()
        assert lines[-1].startswith("error: ") and needle in lines[-1], text


def test_replay_from_snapshot():
    """The embedded config snapshot reproduces the run bit for bit."""
    argv = ("infer", "--function", "cube", "--degree", "2",
            "--samples", "60", "--seed", "17")
    _, out1, _ = run_cli(*argv)
    snap = json.loads(out1)["config"]
    replay = (
        "infer", "--function", snap["oracle"],
        "--degree", str(snap["max_degree"]),
        "--samples", str(snap["m"]),
        "--seed", str(snap["seed"]),
        "--epsilon", str(snap["epsilon"]),
        "--max-denominator", str(snap["max_denominator"]),
    )
    _, out2, _ = run_cli(*replay)
    assert out1 == out2


def test_list_functions():
    code, out, _ = run_cli("list-functions")
    assert code == 0
    lines = out.decode().splitlines()
    assert len(lines) == 81
    code, out, _ = run_cli("list-functions", "--format", "json")
    doc = json.loads(out)
    assert len(doc) == 80 and doc[0]["name"] == "linear"


def test_stdout_is_pure_json_for_infer():
    _, out, err = run_cli(
        "infer", "--function", "linear", "--degree", "1",
        "--samples", "40", "--seed", "2",
    )
    json.loads(out)  # the whole stdout is one document
    assert b"info:" in err
