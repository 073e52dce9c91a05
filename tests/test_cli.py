import argparse
import json
import os
import pathlib
import subprocess
import sys

import pytest
from mpmath import mpf

from jacdecomp import cli, constructions, cover, legendre, numerics


def run_cli(capsys, *argv):
    status = cli.main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def run_json(capsys, *argv):
    status, out, err = run_cli(capsys, *argv, "--format", "json")
    return status, json.loads(out), out


def test_construct_genus2_json(capsys):
    status, payload, _ = run_json(capsys, "construct", "genus2", "--l1", "2", "--l2", "-1")
    assert status == 0
    assert payload["construction"]["eta1"] == "-0.5"
    assert payload["construction"]["eta2"] == "0.25"
    assert payload["genus"] == 2
    assert len(payload["branch"]) == 5


def test_construct_genus2_domain_error(capsys):
    status, out, err = run_cli(capsys, "construct", "genus2", "--l1", "1", "--l2", "2")
    assert status == 2
    assert "not admissible" in err


def test_construct_irreducible_genus(capsys):
    status, payload, _ = run_json(
        capsys, "construct", "irreducible", "--lambdas", "2,3,4")
    assert status == 0
    assert payload["genus"] == 5
    assert len(payload["equations"]) == 3


def test_construct_reducible_explicit_mu(capsys):
    status, payload, _ = run_json(
        capsys, "construct", "reducible", "--lambda", "2", "--mu", "5,7")
    assert status == 0
    assert payload["genus"] == 3
    assert payload["construction"]["s"] == 3
    assert len(payload["equations"]) == 3
    assert all(eq.startswith("w_") and "^2 = " in eq for eq in payload["equations"])


@pytest.mark.parametrize("argv", [
    ["reducible", "--chain", "2,3,4,5,6"],
    ["reducible", "--lambda", "2", "--mu", "5,7,0.3+1.1i,-2i"],
    ["genus9", "--lambda", "2", "--mu", "0.3+1.1i"],
])
def test_decompose_derives_no_equations(argv, capsys, monkeypatch):
    def refuse(params):
        raise AssertionError("equations derived")
    monkeypatch.setattr(constructions, "derive_equations_reducible", refuse)
    status, payload, _ = run_json(capsys, "decompose", *argv)
    assert status == 0
    assert payload["factors"]
    # construct goes through the patched function, so the patch is live
    with pytest.raises(AssertionError, match="equations derived"):
        cli.main(["construct", *argv])


def test_construct_genus9(capsys):
    status, payload, _ = run_json(
        capsys, "construct", "genus9", "--lambda", "2", "--mu", "0.3+1.1i")
    assert status == 0
    assert payload["genus"] == 9
    assert len(payload["construction"]["derived_mu"]) == 2


def test_genus9_with_a_nearly_singular_pairing_square(capsys):
    # the square of x -> 1e-5/x has determinant 1e-10, below the tolerance
    status, payload, _ = run_json(
        capsys, "construct", "genus9", "--lambda", "1e-5", "--mu", "0.3+1.1i")
    assert status == 0
    assert payload["genus"] == 9
    status, payload, _ = run_json(
        capsys, "verify", "g5", "--l1", "1e-5", "--l2", "0.3+1.1i")
    assert status == 0
    assert payload["ok"] is True


def test_decompose_irreducible_r4(capsys):
    status, payload, _ = run_json(
        capsys, "decompose", "irreducible", "--lambdas", "2,3,4,5")
    assert status == 0
    assert payload["genus"] == 13
    assert payload["genus_sum"] == 13
    assert payload["kani_rosen_ok"] is True
    assert len(payload["factors"]) == 9
    genera = sorted(f["genus"] for f in payload["factors"])
    assert genera == [1, 1, 1, 1, 1, 2, 2, 2, 2]


def test_decompose_chain_orbit_tags(capsys):
    status, payload, _ = run_json(
        capsys, "decompose", "reducible", "--chain", "2,3,4")
    assert status == 0
    tags = sorted(f["orbit_of"] for f in payload["factors"])
    assert tags == ["2", "3", "4"]
    assert all(f["genus"] == 1 for f in payload["factors"])


def test_decompose_even_chain_pads_with_auxiliary(capsys):
    status, payload, _ = run_json(
        capsys, "decompose", "reducible", "--chain", "2,3,4,5")
    assert status == 0
    assert payload["genus"] == 9  # bound value for four prescribed factors
    assert payload["kani_rosen_ok"] is True
    assert len(payload["construction"]["chain"]) == 5
    tags = {f["orbit_of"] for f in payload["factors"] if f["genus"] == 1}
    assert {"2", "3", "4", "5"} <= tags


def test_decompose_genus2(capsys):
    status, payload, _ = run_json(
        capsys, "decompose", "genus2", "--l1", "2", "--l2", "5")
    assert status == 0
    assert len(payload["factors"]) == 2
    assert all(f["genus"] == 1 for f in payload["factors"])
    tags = sorted(f["orbit_of"] for f in payload["factors"])
    assert tags == ["2", "5"]


def test_json_roundtrip_byte_identity(capsys):
    status, payload, raw = run_json(
        capsys, "decompose", "irreducible", "--lambdas", "2,3,4,5")
    assert json.dumps(payload, sort_keys=True, indent=2) + "\n" == raw


def test_verify_identities(capsys):
    status, payload, _ = run_json(capsys, "verify", "identities", "--max", "24")
    assert status == 0
    assert payload["ok"] is True
    assert len(payload["checks"]) == 44
    assert all(entry["pass"] for entry in payload["checks"].values())


def test_verify_bound(capsys):
    status, payload, _ = run_json(capsys, "verify", "bound", "--r", "6")
    assert status == 0
    assert payload["checks"]["bound_r6"]["bound"] == 25


def test_verify_g5(capsys):
    status, payload, _ = run_json(capsys, "verify", "g5", "--l1", "2", "--l2", "5")
    assert status == 0
    assert payload["checks"]["elliptic_count"]["count"] == 5


def test_verify_g13_reference_example(capsys):
    status, payload, _ = run_json(
        capsys, "verify", "g13",
        "--l1", "2", "--l2", "(4+1.4142135623730951i)/3")
    assert status == 0
    assert payload["ok"] is True
    assert payload["checks"]["elliptic_count"]["count"] == 13


def test_verify_g13_violation_exits_nonzero(capsys):
    status, payload, _ = run_json(capsys, "verify", "g13", "--l1", "2", "--l2", "3")
    assert status == 1
    assert payload["ok"] is False
    assert payload["checks"]["constraint"]["pass"] is False
    assert payload["checks"]["constraint"]["residual"] == "9"


def test_verify_crosscheck_s3(capsys):
    status, payload, _ = run_json(
        capsys, "verify", "crosscheck", "--s", "3", "--seed", "5")
    assert status == 0
    assert payload["checks"]["sampled_identity"]["pass"] is True
    names = [k for k in payload["checks"] if k.startswith("closed_form_w_")]
    assert len(names) == 3


def test_verify_crosscheck_s4(capsys):
    status, payload, _ = run_json(
        capsys, "verify", "crosscheck", "--s", "4", "--seed", "9")
    assert status == 0
    names = [k for k in payload["checks"] if k.startswith("closed_form_w_")]
    assert len(names) == 7


def test_text_output_mentions_genus(capsys):
    status, out, _ = run_cli(capsys, "construct", "genus2", "--l1", "2", "--l2", "-1")
    assert status == 0
    assert "genus = 2" in out
    assert "eta1 = -0.5" in out


def test_reducible_requires_selector(capsys):
    status, out, err = run_cli(capsys, "construct", "reducible")
    assert status == 2


def test_reducible_chain_rejects_lambda_and_mu(capsys):
    for extra in (["--lambda", "2", "--mu", "5,7"], ["--lambda", "2"], ["--mu", "5,7"]):
        status, out, err = run_cli(capsys, "construct", "reducible", "--chain", "2,3,4",
                                   *extra, "--format", "json")
        assert status == 2
        assert out == ""
        assert err == "error: --chain cannot be combined with --lambda or --mu\n"


@pytest.mark.parametrize("argv", [
    ["decompose", "irreducible", "--lambdas", "2,,3,4"],
    ["decompose", "irreducible", "--lambdas", "2,3,4,"],
    ["construct", "reducible", "--chain", "2,3,,4"],
    ["construct", "reducible", "--lambda", "2", "--mu", "5,7,"],
])
def test_empty_list_entry_exits_2(capsys, argv):
    status, out, err = run_cli(capsys, *argv, "--format", "json")
    assert status == 2
    assert out == ""
    assert err == "error: empty complex literal\n"


def test_verify_identities_below_three_exits_2(capsys):
    for value in ("2", "0", "-1"):
        status, out, err = run_cli(capsys, "verify", "identities", "--max", value,
                                   "--format", "json")
        assert status == 2
        assert out == ""
        assert err == "error: identities are stated for --max >= 3, got %s\n" % value


def test_crosscheck_s_above_the_cap_exits_2(capsys, monkeypatch):
    # refused before any parameter is drawn: 2^s times the precision is
    # capped at 2^23, so s <= 16 at 128 bits and s <= 7 at 65,536
    monkeypatch.setattr(legendre, "random_admissible", None)
    for value, bits in (("17", "128"), ("64", "128"), ("1000000000", "128"),
                        ("9", "65536"), ("8", "65536")):
        status, out, err = run_cli(capsys, "verify", "crosscheck", "--s", value,
                                   "--precision", bits, "--format", "json")
        assert status == 2
        assert out == ""
        assert err == ("error: crosscheck is capped at 2^s * precision <= 2^23 (its tables "
                       "hold 2^s entries), got s = %s at %s bits\n" % (value, bits))
    for value, bits in (("16", "128"), ("7", "65536")):
        with pytest.raises(TypeError):  # past the cap, at the patched draw
            cli.main(["verify", "crosscheck", "--s", value, "--precision", bits])


def test_identities_max_above_the_cap_exits_2(capsys, monkeypatch):
    status, payload, _ = run_json(capsys, "verify", "identities", "--max", "256")
    assert status == 0 and len(payload["checks"]) == 2 * 254
    # refused before any identity is evaluated
    monkeypatch.setattr(cover, "reducible_genus_sum_identity", None)
    for value in ("257", "100000"):
        status, out, err = run_cli(capsys, "verify", "identities", "--max", value,
                                   "--format", "json")
        assert status == 2
        assert out == ""
        assert err == "error: identities are capped at --max <= 256, got %s\n" % value


def test_bound_r_above_the_cap_exits_2(capsys, monkeypatch):
    status, payload, _ = run_json(capsys, "verify", "bound", "--r", "1024")
    assert status == 0 and payload["checks"]["bound_r1024"]["pass"]
    # refused before the bound is computed; 29000 used to fail while rendering
    monkeypatch.setattr(constructions, "genus_upper_bound", None)
    for value in ("1025", "29000", "100000"):
        status, out, err = run_cli(capsys, "verify", "bound", "--r", value)
        assert status == 2
        assert out == ""
        assert err == "error: bound is capped at r <= 1024, got %s\n" % value


def _refuse(*args, **kwargs):
    raise AssertionError("built past the rank cap")


def _values(count) -> str:
    return ",".join(str(k) for k in range(2, count + 2))


@pytest.mark.parametrize("command", ["construct", "decompose"])
@pytest.mark.parametrize("selector, above, at", [
    (["irreducible", "--lambdas"], 17, 16),           # rank: the count
    (["reducible", "--lambda", "2", "--mu"], 32, 30),  # rank: count // 2 + 1
    (["reducible", "--lambda", "2", "--mu"], 33, 30),
    (["reducible", "--chain"], 32, 30),               # 32 pad to 33 values, s = 18
    (["reducible", "--chain"], 33, 31),
])
def test_rank_above_the_cap_exits_2(capsys, monkeypatch, command, selector, above, at):
    # refused from the list length, before any validation, solve or build
    for name in ("build_irreducible", "ReducibleParams", "chain_with_auxiliary",
                 "solve_mu_chain", "build_reducible"):
        monkeypatch.setattr(constructions, name, _refuse)
    status, out, err = run_cli(capsys, command, *selector, _values(above))
    assert (status, out) == (2, "")
    assert err == "error: construct and decompose are capped at deck rank <= 16, got 17\n"
    # rank 16 passes the cap and reaches the patched builders
    with pytest.raises(AssertionError):
        cli.main([command, *selector, _values(at)])


def test_construct_irreducible_at_the_rank_cap(capsys):
    status, payload, _ = run_json(capsys, "construct", "irreducible", "--lambdas", _values(16))
    assert status == 0 and payload["construction"]["r"] == 16


def test_infinite_epsilon_exits_2(capsys):
    # inf and nan are not bodies of the literal grammar, nor is anything
    # else float() reads: 1e-9_0 would read as 1e-90
    for value in ("inf", "nan", "1e-9_0", "abc", "(1e-9)", "2e-9i", "0x1p-30", ""):
        status, out, err = run_cli(capsys, "construct", "irreducible", "--lambdas", "2,3,4",
                                   "--epsilon", value, "--format", "json")
        assert status == 2
        assert out == ""
        assert err == "error: epsilon must be a decimal or p/q number, got %r\n" % value


def test_epsilon_quotients_follow_the_literal_grammar(capsys):
    for value, want in (("1/2.5e9", mpf(1) / mpf("2.5e9")), (" 1/3 ", mpf(1) / 3)):
        numerics.set_epsilon(value)
        assert numerics.epsilon() == want
    status, out, err = run_cli(capsys, "construct", "irreducible", "--lambdas", "2,3,4",
                               "--epsilon", "1/0.0", "--format", "json")
    assert (status, out, err) == (2, "", "error: zero denominator in epsilon '1/0.0'\n")


def test_epsilon_of_one_or_more_exits_2(capsys):
    # 0 and 1 are branch values of every construction, so they would
    # collide; the message names the bound, not a parameter
    for lambdas, value in (("2,3,4", "1"), ("200,300,400", "1"), ("2,3,4", "7.5")):
        status, out, err = run_cli(capsys, "construct", "irreducible", "--lambdas", lambdas,
                                   "--epsilon", value, "--format", "json")
        assert status == 2
        assert out == ""
        assert err == "error: epsilon must be below 1, got %r\n" % value


def test_epsilon_past_the_digit_limit_exits_2(capsys):
    # mpf reads the text through int(), which refuses more than 4300 digits
    value = "0." + "0" * 5000 + "1"
    status, out, err = run_cli(capsys, "construct", "irreducible", "--lambdas", "2,3,4",
                               "--epsilon", value, "--format", "json")
    assert status == 2
    assert out == ""
    assert err == "error: epsilon has a number of more than 4300 digits\n"
    # a malformed value gets the grammar's message, however many digits it holds
    value = "x" + "1" * 5000
    status, out, err = run_cli(capsys, "construct", "irreducible", "--lambdas", "2,3,4",
                               "--epsilon", value, "--format", "json")
    assert status == 2
    assert out == ""
    assert err == "error: epsilon must be a decimal or p/q number, got %r\n" % value


def test_seed_is_a_crosscheck_option():
    for argv in (["verify", "bound", "--r", "4"], ["construct", "genus2", "--l1", "2",
                                                   "--l2", "-1"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--seed", "5"])
        assert exc.value.code == 2


def test_parser_is_built_once():
    assert cli.make_parser() is cli.make_parser()


def test_second_call_constructs_no_parser(capsys, monkeypatch):
    argv = ["verify", "bound", "--r", "4"]
    assert cli.main(argv) == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert cli.main(argv) == 0
    assert built == []
    capsys.readouterr()


def test_usage_error_leaves_the_parser_intact(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["decompose", "irreducible", "--format", "json"])
    assert exc.value.code == 2
    assert "--lambdas" in capsys.readouterr().err
    status, out, _ = run_cli(capsys, "decompose", "reducible", "--chain", "2,3,4,5,6",
                             "--format", "json")
    golden = pathlib.Path(__file__).with_name("golden") / "decompose_chain_r5.json"
    assert status == 0
    assert out == golden.read_text()


@pytest.mark.parametrize("argv", [
    ["verify", "bound"],
    ["construct", "genus2", "--l1", "2", "--l2", "3", "--precision", "abc"],
])
def test_usage_errors_are_one_line(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")


def test_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "bound", "--help"])
    captured = capsys.readouterr()
    assert exc.value.code == 0
    assert captured.out.startswith("usage: jacdecomp verify bound")
    assert captured.err == ""


@pytest.mark.parametrize("argv", [
    ["reducible", "--lambda", "2", "--mu", "3,4,5,6,7,8,9,10,11,12,13,14"],
    ["reducible", "--chain", "2,-1.5,0.3+1.1i,3/4,-2i"],
    ["genus9", "--lambda", "2", "--mu", "0.3+1.1i"],
])
def test_construct_formats_each_distinct_root_once(argv, monkeypatch):
    derived, calls = [], []
    derive = constructions.derive_equations_reducible
    monkeypatch.setattr(constructions, "derive_equations_reducible",
                        lambda params: derived.extend(derive(params)) or derived)
    monkeypatch.setattr(cli, "format_point",
                        lambda p: calls.append(p) or numerics.format_point(p))
    built = cli.build_from_args(cli.make_parser().parse_args(["construct", *argv]))
    calls.clear()
    rendered = built["equations"]()
    roots = {id(root) for eq in derived for root in eq.roots}
    assert len(rendered) == len(derived)
    assert len(calls) == len(derived) + len(roots)
    assert len(calls) < sum(1 + len(eq.roots) for eq in derived)


def test_precision_env_variable():
    env = dict(os.environ, JACDECOMP_PRECISION="200")
    script = "import jacdecomp, mpmath; print(mpmath.mp.prec)"
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "200"


def test_precision_flag(capsys):
    import mpmath

    status, _, _ = run_cli(capsys, "construct", "genus2", "--l1", "2", "--l2", "-1",
                           "--precision", "160")
    assert status == 0
    assert mpmath.mp.prec == 160


def test_overflowing_literal_exits_2(capsys):
    status, out, err = run_cli(capsys, "construct", "irreducible",
                               "--lambdas", "1e400,2,3", "--format", "json")
    assert status == 2
    assert out == ""
    assert err == "error: literal '1e400' exceeds the double range\n"


@pytest.mark.parametrize("literal, message", [
    ("(2)/0", "zero denominator in '(2)/0'"),
    ("(2)/inf", "malformed complex literal '(2)/inf'"),
    ("(2+i)/nan", "malformed complex literal '(2+i)/nan'"),
    ("(5)/1_000", "malformed complex literal '(5)/1_000'"),
    ("(2)/3i", "malformed complex literal '(2)/3i'"),
    ("(2)/", "malformed complex literal '(2)/'"),
    ("(2)/3/4/5", "malformed complex literal '(2)/3/4/5'"),
    ("2+1/0i", "zero denominator in '2+1/0i'"),
    pytest.param("1" * 5000, "literal '%s' has a number of more than 4300 digits"
                 % ("1" * 5000), id="5000-digit-body"),
])
def test_divisor_after_a_parenthesis_obeys_the_grammar(capsys, literal, message):
    status, out, err = run_cli(capsys, "construct", "irreducible",
                               "--lambdas", literal + ",3,4")
    assert status == 2
    assert out == ""
    assert err == "error: %s\n" % message


def test_deeply_nested_literal_is_read(capsys):
    deep = "(" * 1200 + "2" + ")" * 1200
    status, payload, _ = run_json(capsys, "construct", "irreducible",
                                  "--lambdas", deep + ",3,4")
    assert status == 0
    assert payload["construction"]["lambdas"][0] == "2"


def test_derived_value_beyond_the_double_range_exits_2(capsys):
    # eta1 = (l1 - 1)/(l2 - 1) = 5e309 is finite but does not fit a double;
    # l1 lies within 1e-301 of inf, so it is admitted under a tolerance below
    # that
    status, out, err = run_cli(capsys, "construct", "genus2", "--l1", "1e301",
                               "--l2", "1.000000002", "--epsilon", "1e-400",
                               "--format", "json")
    assert status == 2
    assert out == ""
    assert err == "error: value 5.0e+309 exceeds the double range\n"


@pytest.mark.parametrize("argv, message", [
    (["decompose", "irreducible", "--lambdas", "1e12,2,3"],
     "lambda_1 = 1000000000000 is not admissible (too close to inf)"),
    (["decompose", "irreducible", "--lambdas", "1e-12,2,3"],
     "lambda_1 = 9.9999999999999998e-13 is not admissible (too close to 0 or 1)"),
    (["decompose", "reducible", "--chain", "2,3,1e9"],
     "lambda_3 = 1000000000 is not admissible (too close to inf)"),
    (["construct", "genus2", "--l1", "3e40", "--l2", "7e40"],
     "lambda_1 = 3.0000000000000002e+40 is not admissible (too close to inf)"),
    (["verify", "g5", "--l1", "1e300", "--l2", "1.7976931348623157e308"],
     "lambda_1 = 1.0000000000000001e+300 is not admissible (too close to inf)"),
    # two distinct parameters that both render as 100000000: 5e-9 apart,
    # 5e-25 in the chordal metric
    (["decompose", "irreducible", "--lambdas", "100000000,100000000.000000005,3"],
     "lambda_1 and lambda_2 coincide within tolerance (100000000)"),
])
def test_inputs_near_inf_are_measured_on_the_sphere(capsys, argv, message):
    status, out, err = run_cli(capsys, *argv, "--format", "json")
    assert (status, out, err) == (2, "", "error: %s\n" % message)


def python_with_precision_env(value, *args):
    env = dict(os.environ)
    env.pop("JACDECOMP_PRECISION", None)
    if value is not None:
        env["JACDECOMP_PRECISION"] = value
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def test_bad_precision_env_variable_exits_2():
    for value in ("abc", "52", ""):
        out = python_with_precision_env(value, "-m", "jacdecomp.cli", "verify", "bound",
                                        "--r", "4")
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr == ("error: JACDECOMP_PRECISION must be an integer of at "
                              "least 53 bits, got %r\n" % value)


@pytest.mark.parametrize("bits", ["65537", "1000000000"])
def test_precision_above_the_cap_exits_2_before_any_work(capsys, monkeypatch, bits):
    import mpmath

    def no_work(args):
        raise AssertionError("verify ran")

    monkeypatch.setattr(cli, "cmd_verify", no_work)
    before = mpmath.mp.prec
    status, out, err = run_cli(capsys, "verify", "crosscheck", "--s", "3",
                               "--precision", bits)
    assert (status, out) == (2, "")
    assert err == "error: precision is capped at <= 65536 bits, got %s\n" % bits
    assert mpmath.mp.prec == before


def test_precision_env_variable_above_the_cap_exits_2():
    out = python_with_precision_env("1000000", "-m", "jacdecomp.cli", "verify", "crosscheck",
                                    "--s", "3")
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == "error: JACDECOMP_PRECISION is capped at <= 65536 bits, got '1000000'\n"


def test_unset_precision_env_variable_keeps_default():
    out = python_with_precision_env(None, "-c", "import jacdecomp, mpmath; print(mpmath.mp.prec)")
    assert out.stdout.strip() == "128"


def test_closed_stdout_exits_141_without_a_traceback():
    # 221 kB of output, far more than a pipe holds, so the command still
    # writes when the reader has closed the pipe after one line
    proc = subprocess.Popen([sys.executable, "-m", "jacdecomp.cli", "decompose", "irreducible",
                             "--lambdas", "2,3,4,5,6,7,8,9,10,11", "--format", "json"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    assert proc.stderr.read() == b""
    assert proc.wait() == 141


def test_console_entry_point():
    out = subprocess.run([sys.executable, "-m", "jacdecomp.cli",
                          "verify", "bound", "--r", "4"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert "9" in out.stdout
