import io
import json
import re

import pytest

from fdq.cli import RunConfig, config_load, run_command
from fdq.errors import ConfigError, UnknownSuite
from fdq.suites import property_suite, suite_names


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_command(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


# -- single-shot commands -----------------------------------------------------------


def test_star_command():
    code, out, _ = run(["star", "--product", "weyl", "--n", "1", "q1", "p1"])
    assert code == 0
    assert out == "q1*p1 + (1/2*i)*l\n"


def test_functional_command():
    code, out, _ = run(["functional", "--delta", "0", "--product", "weyl",
                        "1/2*(p1^2+q1^2)", "--square"])
    assert code == 0
    assert out == "(-1/4)*l^2\n"


def test_deformed_functional_command():
    code, out, _ = run(["functional", "--delta", "0", "--deform",
                        "--product", "weyl", "1/2*(p1^2+q1^2)", "--square"])
    assert code == 0
    assert out == "1/4*l^2\n"


def test_morita_command():
    for diff, expected in (("3", "equivalent"), ("1/2", "not_equivalent"),
                           ("l", "not_equivalent")):
        code, out, _ = run(["morita", "--m", "1", "--diff", diff])
        assert code == 0
        assert out.strip() == expected


def test_commutator_command():
    code, out, _ = run(["commutator", "q1", "p1"])
    assert code == 0
    assert out == "(i)*l\n"


def test_starexp_command():
    code, out, _ = run(["starexp", "--order", "2", "q1"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "e0 = 1"
    assert lines[1] == "e1 = (-1)*q1"
    assert lines[2] == "e2 = 1/2*q1^2"


def test_schroedinger_command():
    code, out, _ = run(["schroedinger", "--kind", "weyl", "q1*p1"])
    assert code == 0
    assert out == "((-i)*q1*l)*d/dq1 + (-1/2*i)*l\n"


def test_fock_commands():
    code, out, _ = run(["fock", "--rep", "z1*zb1"])
    assert code == 0
    assert out == "(2*yb1*l)*d/dyb1\n"
    code, out, _ = run(["fock", "--inner", "yb1", "yb1"])
    assert code == 0
    assert out == "2*l\n"


def test_gns_command_json():
    code, out, _ = run(["gns", "--omega", '[["1","0"],["0","0"]]', "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["basis"] == ["E11", "E21"]


def test_gns_of_a_definite_deformed_functional():
    # det = 2l + l^2: the Gram is definite, and its elimination divides by
    # the non-constant pivot 1 + l next to exact zeros.
    code, out, err = run(["gns", "--omega", '[["1+l","l"],["l","2*l"]]',
                          "--K", "3"])
    assert (code, err) == (0, "")
    assert out == ("dimension 4; basis E11 E12 E21 E22\n"
                   "gram[0] = 1 + l, l, 0, 0\n"
                   "gram[1] = l, 2*l, 0, 0\n"
                   "gram[2] = 0, 0, 1 + l, l\n"
                   "gram[3] = 0, 0, l, 2*l\n")


def test_gns_reads_an_exact_zero_times_a_lossy_power_as_zero():
    # 0*l^3 at K = 3 is an exact zero, as "0" is: the Gram is decided.
    for entry in ("0", "0*l^3", "l^3*0"):
        code, out, err = run(["gns", "--omega", f'[["1","0"],["0","{entry}"]]',
                              "--K", "3"])
        assert (code, err) == (0, "")
        assert out == "dimension 2; basis E11 E21\ngram[0] = 1, 0\n" \
            "gram[1] = 0, 1\n"


def test_gns_of_the_zero_functional_exits_3_with_one_line():
    code, out, err = run(["gns", "--omega", '[["0","0"],["0","0"]]'])
    assert (code, out) == (3, "")
    assert err == ("error: ShapeMismatch: omega vanishes on every b* x b: "
                   "the GNS quotient is 0-dimensional\n")


def test_project_command():
    code, out, _ = run(["project", "--K", "3",
                        "--p0", '[["1/2","1/2"],["1/2","1/2"]]',
                        "--deform", '[["0","1"],["0","0"]]'])
    assert code == 0
    assert "1/2 + (-1/4)*l + 1/8*l^2" in out


def test_axioms_command():
    code, out, _ = run(["axioms", "--product", "weyl", "--degree", "2",
                        "--K", "4"])
    assert code == 0
    assert "associativity: pass" in out


def test_rieffel_command(tmp_path):
    f_path = tmp_path / "f.json"
    e_path = tmp_path / "e.json"
    f_path.write_text(json.dumps(
        {"base": {"m": 1}, "rank": 2,
         "gram": [["1", "0"], ["0", "1"]]}))
    e_path.write_text(json.dumps(
        {"base": {"m": 1}, "rank": 1, "gram": [["1"]]}))
    code, out, _ = run(["rieffel", str(f_path), str(e_path)])
    assert code == 0
    assert "rank 2" in out


def test_json_output_is_valid_json():
    code, out, _ = run(["star", "--json", "q1", "p1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["type"] == "observable"


# -- exit-code contract ---------------------------------------------------------------


def test_usage_error_exit_2():
    code, _, _ = run(["star", "q1"])          # missing argument
    assert code == 2
    code, _, _ = run(["nonsense"])
    assert code == 2


def test_usage_and_help_go_to_the_given_streams(capsys):
    code, out, err = run(["stra", "q1"])
    assert code == 2 and out == ""
    assert err.startswith("usage: fdq")
    assert err.splitlines()[-1].startswith(
        "fdq: error: argument command: invalid choice: 'stra'")
    code, out, err = run(["star", "q1"])
    assert code == 2 and out == "" and err.startswith("usage: fdq star")
    code, out, err = run(["star", "--help"])
    assert code == 0 and err == "" and out.startswith("usage: fdq star")
    assert capsys.readouterr() == ("", "")


def test_main_writes_usage_and_help_to_the_process_streams(capsys):
    from fdq.cli import main
    with pytest.raises(SystemExit) as exc:
        main(["stra", "q1"])
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", run(["stra", "q1"])[2])
    with pytest.raises(SystemExit) as exc:
        main(["star", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr() == (run(["star", "--help"])[1], "")


def test_parser_is_built_once_per_process(monkeypatch):
    import fdq.cli as cli_mod
    builds = []
    build = cli_mod._build_parser

    def counted():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli_mod, "_build_parser", counted)
    monkeypatch.setattr(cli_mod, "_parser_cache", (None, None))
    assert run(["star", "q1", "p1"])[0] == 0
    assert run(["stra", "q1"])[0] == 2
    assert run(["star", "q1", "q1 + "])[0] == 3
    assert run(["morita", "--m", "1", "--diff", "3"])[0] == 0
    assert len(builds) == 1
    monkeypatch.setattr(cli_mod, "suite_names", lambda: ["roundtrip", "all"])
    assert run(["suite", "star-axioms"])[0] == 2
    assert len(builds) == 2
    assert run(["star", "q1", "p1"])[0] == 0
    assert len(builds) == 2


def test_no_state_carries_between_calls():
    code, out, _ = run(["star", "--json", "q1", "p1"])
    assert code == 0 and json.loads(out)["type"] == "observable"
    assert run(["star", "q1", "p1"]) == (0, "q1*p1 + (1/2*i)*l\n", "")
    assert run(["fock", "--inner", "yb1", "yb1"]) == (0, "2*l\n", "")
    assert run(["fock", "--rep", "z1*zb1"]) == (0, "(2*yb1*l)*d/dyb1\n", "")
    square = ["functional", "--delta", "0", "--product", "weyl",
              "1/2*(p1^2+q1^2)", "--square"]
    assert run(square + ["--deform"]) == (0, "1/4*l^2\n", "")
    assert run(square) == (0, "(-1/4)*l^2\n", "")
    assert "l^2" not in run(["--K", "2", "star", "q1^2", "p1^2"])[1]
    assert "l^2" in run(["star", "q1^2", "p1^2"])[1]


def test_core_error_exit_3_and_no_traceback():
    code, out, err = run(["star", "q1", "q1 + "])
    assert code == 3
    assert "Traceback" not in out and "Traceback" not in err
    assert err.startswith("error: ParseError:")


def test_suite_failures_exit_1(monkeypatch):
    # A fabricated failing suite exercises the exit-1 path deterministically.
    from fdq import suites as suites_mod

    def failing(config, rng):
        r = suites_mod._Runner("failing")
        r.check("always fails", False)
        return r

    monkeypatch.setitem(suites_mod._SUITES, "failing", failing)
    import fdq.cli as cli_mod
    monkeypatch.setattr(cli_mod, "suite_names",
                        lambda: list(suites_mod._SUITES) + ["all"])
    code, out, _ = run(["suite", "failing"])
    assert code == 1
    assert "FAIL always fails" in out


def test_suite_timings_go_to_the_given_stream(capsys):
    code, out, err = run(["suite", "morita"])
    assert code == 0 and out.startswith("suite morita")
    assert re.fullmatch(r"\[morita\] \d+\.\d\ds\n", err)
    assert capsys.readouterr() == ("", "")


def test_main_writes_suite_timings_to_the_process_stderr(capsys):
    from fdq.cli import main
    with pytest.raises(SystemExit) as exc:
        main(["suite", "morita"])
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.out == run(["suite", "morita"])[1]
    assert re.fullmatch(r"\[morita\] \d+\.\d\ds\n", captured.err)


def test_roundtrip_summary_fails_with_wrong_parser(monkeypatch):
    from fdq import suites as suites_mod
    from fdq.exprio import parse

    def wrong_parse(text, n, order, chart):
        return parse(text, n, order, chart) + parse("1", n, order, chart)

    monkeypatch.setattr(suites_mod, "parse", wrong_parse)
    [report] = property_suite("roundtrip", RunConfig(K=2))
    assert "parse/print identity on 1000 generated values" in report.failures


def test_error_mapping_golden(tmp_path):
    bad_spec = tmp_path / "bad_spec.json"
    bad_spec.write_text('{"type": "nonsense"}')
    bad_module = tmp_path / "bad_module.json"
    bad_module.write_text(json.dumps(
        {"base": {"m": 1}, "rank": 2,
         "gram": [["1", "l"], ["0", "1"]]}))
    other = tmp_path / "unit_module.json"
    other.write_text(json.dumps(
        {"base": {"m": 1}, "rank": 1, "gram": [["1"]]}))
    cases = [
        (["star", "q1", "q1 +"], "ParseError"),
        (["star", "q1", "z1 + q1"], "MixedChart"),
        (["star", "q1", "q7"], "UnknownVariable"),
        (["star", "--K", "0", "q1", "p1"], "ConfigError"),
        (["star", "--product", f"custom:{bad_spec}", "q1", "p1"],
         "SchemaError"),
        (["project", "--p0", '[["2","0"],["0","0"]]'], "DefectNotSmall"),
        (["gns", "--omega", '[["-1","0"],["0","0"]]'], "PositivityRefuted"),
        (["project", "--p0", '[["1","0"]]'], "ShapeMismatch"),
        (["morita", "--m", "2", "--diff", "3"], "RankMismatch"),
        (["rieffel", str(bad_module), str(other)], "NotHermitian"),
    ]
    for argv, name in cases:
        code, _, err = run(argv)
        assert code == 3, (argv, err)
        assert err.startswith(f"error: {name}:"), (argv, err)


_HOSTILE_FILES = {
    "series.json": {"type": "series", "K": 1, "coeffs": [[1, 1, 0, 1]]},
    "equiv.json": {"type": "equiv_operator", "n": 1, "K": 2,
                   "generator": []},
    "rank.json": {"base": {"m": 1}, "rank": "2", "gram": [["1"]]},
    "unit.json": {"base": {"m": 1}, "rank": 1, "gram": [["1"]]},
    "m2.json": {"base": {"m": 2}, "rank": 1, "gram": [["1"]]},
    "rank2.json": {"base": {"m": 1}, "rank": 2,
                   "gram": [["1", "0"], ["0", "1"]]},
    "indefinite.json": {"base": {"m": 1}, "rank": 2,
                        "gram": [["-1", "0"], ["0", "1"]]},
}


@pytest.mark.parametrize("argv, name", [
    (["star", "--product", "custom:{dir}/series.json", "q1", "p1"],
     "SchemaError"),
    (["star", "--product", "custom:{dir}/equiv.json", "q1", "p1"],
     "SchemaError"),
    (["gns", "--omega", "[[1,0],[0,1]]"], "ConfigError"),
    (["gns", "--omega", "5"], "ConfigError"),
    (["project", "--p0", '[["1"]]', "--deform", "[[1]]"], "ConfigError"),
    (["rieffel", "{dir}/rank.json", "{dir}/unit.json"], "SchemaError"),
    (["axioms", "--degree", "-1"], "ConfigError"),
    (["starexp", "--order", "-1", "q1"], "ConfigError"),
    (["gns", "--omega", '[["1","0"]]'], "ShapeMismatch"),
    (["rieffel", "{dir}/m2.json", "{dir}/rank2.json"], "ShapeMismatch"),
    (["gns", "--omega", '[["1","-3/5","-3/5"],["-3/5","1","-3/5"],'
      '["-3/5","-3/5","1"]]', "--K", "2"], "PositivityRefuted"),
    (["gns", "--omega", '[["1","0"],["0","1"]]', "--deform",
      '[["0","1"],["0","0"]]', "--K", "2"], "PositivityRefuted"),
    (["rieffel", "{dir}/unit.json", "{dir}/indefinite.json"],
     "PositivityRefuted"),
])
def test_hostile_input_exits_3_with_one_line(tmp_path, argv, name):
    for file_name, payload in _HOSTILE_FILES.items():
        (tmp_path / file_name).write_text(json.dumps(payload))
    code, out, err = run([a.format(dir=tmp_path) for a in argv])
    assert (code, out) == (3, "")
    assert err.startswith(f"error: {name}: ") and err.count("\n") == 1


def test_precision_exhausted_reachable(tmp_path):
    # Induction whose Gram products push all content past the truncation
    # order cannot certify its degeneracy space.
    f_path = tmp_path / "f.json"
    e_path = tmp_path / "e.json"
    f_path.write_text(json.dumps(
        {"base": {"m": 1}, "rank": 1, "gram": [["l^3"]]}))
    e_path.write_text(json.dumps(
        {"base": {"m": 1}, "rank": 1, "gram": [["l^3"]]}))
    code, _, err = run(["rieffel", str(f_path), str(e_path), "--K", "4"])
    assert code == 3
    assert err.startswith("error: PrecisionExhausted:")


def test_axioms_at_k1_exhausts_precision():
    # C_1 is read from the l^1 coefficients, which K = 1 does not store.
    code, out, err = run(["axioms", "--product", "weyl", "--degree", "2",
                          "--K", "1"])
    assert (code, out) == (3, "")
    assert err == ("error: PrecisionExhausted: correspondence_c1 needs "
                   "K >= 2: the l^1 coefficient is not stored at K = 1\n")


def _holo_flat_spec(K):
    """l (d_z (x) d_z + d_zb (x) d_zb) as a custom star_product payload."""
    zero = [0, 1, 0, 1]
    l = {"type": "series", "K": K, "coeffs": ([zero, [1, 1, 0, 1]]
                                              + [zero] * (K - 2))[:K]}
    o = {"type": "series", "K": K, "coeffs": [zero] * K}
    return {"type": "star_product", "kind": "custom", "n": 1, "chart": "holo",
            "K": K, "pairing": [[l, o], [o, l]]}


def test_axioms_check_c1_on_the_holomorphic_chart(tmp_path):
    # The l^1 commutator of this product vanishes, so C_1 is not i{z, zb}.
    for K in (4, 1):
        (tmp_path / f"holo{K}.json").write_text(json.dumps(_holo_flat_spec(K)))
    code, out, err = run(["axioms", "--product", f"custom:{tmp_path}/holo4.json",
                          "--degree", "2", "--K", "4"])
    assert (code, err) == (0, "")
    assert out == ("unit: pass\ncorrespondence_c0: pass\n"
                   "correspondence_c1: FAIL witness (z1, zb1)\nhermitian: pass\n"
                   "associativity: pass\n")
    code, out, err = run(["axioms", "--product", f"custom:{tmp_path}/holo1.json",
                          "--degree", "2", "--K", "1"])
    assert (code, out) == (3, "")
    assert err == ("error: PrecisionExhausted: correspondence_c1 needs "
                   "K >= 2: the l^1 coefficient is not stored at K = 1\n")


@pytest.mark.parametrize("chart", ["fock", "wave"])
def test_axioms_reject_a_chart_without_a_bracket(tmp_path, chart):
    l = {"type": "series", "K": 4,
         "coeffs": [[0, 1, 0, 1], [1, 1, 0, 1], [0, 1, 0, 1], [0, 1, 0, 1]]}
    spec = {"type": "star_product", "kind": "custom", "n": 1, "chart": chart,
            "K": 4, "pairing": [[l]]}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    assert run(["axioms", "--product", f"custom:{tmp_path}/spec.json"]) == (
        3, "", "error: SignatureMismatch: correspondence_c1 needs the Poisson "
        f"bracket, which chart '{chart}' does not have\n")


def test_unknown_suite_error():
    cfg = RunConfig()
    with pytest.raises(UnknownSuite):
        property_suite("does-not-exist", cfg)


# -- config ------------------------------------------------------------------------------


def test_config_defaults():
    class Args:
        pass

    cfg = config_load(Args())
    assert (cfg.K, cfg.n, cfg.product, cfg.output) == (6, 1, "weyl", "text")


def test_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(K=0)
    with pytest.raises(ConfigError):
        RunConfig(n=0)
    with pytest.raises(ConfigError):
        RunConfig(product="bogus")
    with pytest.raises(ConfigError):
        RunConfig(output="yaml")


def test_config_file_and_flag_override(tmp_path):
    path = tmp_path / "fdq.conf"
    path.write_text("# comment\nK = 4\nproduct = wick\n")

    class Args:
        config = str(path)

    cfg = config_load(Args())
    assert cfg.K == 4 and cfg.product == "wick"

    class Args2:
        config = str(path)
        K = 8

    cfg2 = config_load(Args2())
    assert cfg2.K == 8 and cfg2.product == "wick"


def test_config_env_fallback(tmp_path, monkeypatch):
    path = tmp_path / "env.conf"
    path.write_text("n = 2\n")
    monkeypatch.setenv("FDQ_CONFIG", str(path))

    class Args:
        pass

    cfg = config_load(Args())
    assert cfg.n == 2


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.conf"
    path.write_text("verbosity = 3\n")

    class Args:
        config = str(path)

    with pytest.raises(ConfigError) as exc:
        config_load(Args())
    assert "verbosity" in str(exc.value)


def test_config_custom_product(tmp_path):
    import fdq.exprio as exprio
    from fdq.star import wick

    path = tmp_path / "wick.json"
    path.write_text(json.dumps(exprio.serialize(wick(1, 6))))
    code, out, _ = run(["star", "--product", f"custom:{path}", "q1", "q1"])
    assert code == 0
    assert out == "q1^2 + 1/2*l\n"


# -- determinism ---------------------------------------------------------------------------


def test_suite_output_deterministic():
    first = run(["suite", "morita", "--seed", "17"])
    second = run(["suite", "morita", "--seed", "17"])
    assert first[0] == second[0] == 0
    assert first[1] == second[1]


def test_suite_names_exposed():
    names = suite_names()
    assert "all" in names and "star-axioms" in names
