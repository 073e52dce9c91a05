"""Golden CLI corpus: fixed invocations whose stdout must stay byte-identical.

Each case in ``CASES`` runs ``jacdecomp <argv> --format json`` in-process and
compares stdout with ``tests/golden/<name>.json`` byte for byte; each case in
``TEXT_CASES`` runs ``jacdecomp <argv>`` (text format) against
``tests/golden/<name>.txt``.  The expected files were recorded before the
rewrites that they guard.  To re-record after an intended output change:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import pathlib
import sys

import pytest

from jacdecomp import cli

GOLDEN = pathlib.Path(__file__).with_name("golden")

CASES = {
    "decompose_irreducible_r3": ["decompose", "irreducible", "--lambdas", "2,3,4"],
    "decompose_irreducible_r4": ["decompose", "irreducible", "--lambdas",
                                 "2,-1.5,0.3+1.1i,3/4"],
    "decompose_irreducible_r5": ["decompose", "irreducible", "--lambdas",
                                 "2,-2i,(4+1.4142135623730951i)/3,-0.7+0.2i,5"],
    "decompose_irreducible_r6": ["decompose", "irreducible", "--lambdas",
                                 "1.5+1.5i,1.5-1.5i,-1,2.25,0.5i,-2.5-0.4i"],
    "decompose_irreducible_r7": ["decompose", "irreducible", "--lambdas",
                                 "2,3,4,5,6,7,8"],
    "decompose_irreducible_r8": ["decompose", "irreducible",
                                 "--lambdas=-1,-2,-3,1/3,2/3,1+i,1-i,0.1+2.9i"],
    # two distinct points whose sort keys tie at double precision, 5e-25
    # apart in the chordal metric, so distinct only under a tolerance below it
    "decompose_irreducible_key_tie": ["decompose", "irreducible", "--lambdas",
                                      "100000000,100000000.000000005,3",
                                      "--epsilon", "1e-30"],
    # 1/2 lies in the orbit of 2: the first candidate, in input order, wins
    "decompose_irreducible_shared_orbit": ["decompose", "irreducible", "--lambdas",
                                           "2,0.5,3"],
    # parts and points whose exponents lie up to 1,000 bits apart; the last
    # invariant keeps an imaginary part 2^-830 of its real part
    "decompose_irreducible_far_exponents": ["decompose", "irreducible", "--lambdas",
                                            "1e-300+1i,2+1e-250i,3-1e-280i,-5+1e-270i,7"],
    "decompose_chain_r5": ["decompose", "reducible", "--chain", "2,3,4,5,6"],
    "decompose_chain_r6": ["decompose", "reducible", "--chain",
                           "2,-1.5,0.3+1.1i,3/4,-2i,5"],
    "decompose_chain_r7": ["decompose", "reducible", "--chain",
                           "2,3,4,5,6,7,8"],
    "decompose_chain_r8": ["decompose", "reducible", "--chain",
                           "1.5+1.5i,1.5-1.5i,2.25,0.5i,-2.5-0.4i,3,-0.7+0.2i,2.5+2i"],
    "decompose_chain_r9": ["decompose", "reducible", "--chain",
                           "2,-1.5,0.3+1.1i,3/4,-2i,5,-0.7+0.2i,2.5+2i,-2.75"],
    # pair 2's first root lands on p_2 = 2.1964847243000456 and is refused,
    # so the solver takes the other root
    "decompose_chain_root_collides": ["decompose", "reducible", "--chain",
                                      "2,3,4,5,5.3073450074801638"],
    "decompose_chain_r7_p256": ["decompose", "reducible", "--chain",
                                "2,3,4,5,6,7,8", "--precision", "256"],
    "decompose_chain_r11": ["decompose", "reducible", "--chain",
                            "2,-1.5,0.3+1.1i,3/4,-2i,5,-0.7+0.2i,2.5+2i,-2.75,"
                            "1.5+1.5i,0.5i"],
    "decompose_genus2": ["decompose", "genus2", "--l1", "2", "--l2", "0.3+1.1i"],
    "decompose_genus9": ["decompose", "genus9", "--lambda", "2", "--mu", "0.3+1.1i"],
    "verify_g5": ["verify", "g5", "--l1", "2", "--l2", "5"],
    "verify_g13": ["verify", "g13", "--l1", "2", "--l2", "(4+1.4142135623730951i)/3"],
    "construct_chain_r7_p256": ["construct", "reducible", "--chain",
                                "2,3,4,5,6,7,8", "--precision", "256"],
    "construct_genus2": ["construct", "genus2", "--l1", "2", "--l2", "0.3+1.1i"],
    "construct_irreducible": ["construct", "irreducible", "--lambdas",
                              "2,-1.5,0.3+1.1i,3/4"],
    "construct_reducible_mu": ["construct", "reducible", "--lambda", "2",
                               "--mu", "5,7,0.3+1.1i,-2i"],
    # rank 7: 127 equations, 960 roots over 15 distinct root objects
    "construct_reducible_mu_r7": ["construct", "reducible", "--lambda", "2", "--mu",
                                  "3,4,5,6,7,8,9,10,11,12,13,14"],
    "construct_genus9": ["construct", "genus9", "--lambda", "2", "--mu", "0.3+1.1i"],
    "verify_crosscheck_s3": ["verify", "crosscheck", "--s", "3", "--seed", "7"],
    "verify_crosscheck_s4": ["verify", "crosscheck", "--s", "4", "--seed", "7"],
    "verify_crosscheck_s5": ["verify", "crosscheck", "--s", "5", "--seed", "7"],
    "verify_crosscheck_s6": ["verify", "crosscheck", "--s", "6", "--seed", "7"],
    "verify_crosscheck_s7": ["verify", "crosscheck", "--s", "7", "--seed", "7"],
    "verify_crosscheck_s4_p256": ["verify", "crosscheck", "--s", "4", "--seed", "7",
                                  "--precision", "256"],
    # at 53 bits every product of the double-valued draws rounds
    "verify_crosscheck_s5_p53": ["verify", "crosscheck", "--s", "5", "--seed", "7",
                                 "--precision", "53"],
    # every error underflows to "0" at 1,100 bits, so this pins only the
    # command's output at long mantissas, not which sample held a maximum
    "verify_crosscheck_s5_p1100": ["verify", "crosscheck", "--s", "5", "--seed", "7",
                                   "--precision", "1100"],
    # the one error of the corpus below the normal double range (1.38e-308)
    "verify_crosscheck_s5_p1024": ["verify", "crosscheck", "--s", "5", "--seed", "7",
                                   "--precision", "1024"],
    "verify_identities_max6": ["verify", "identities", "--max", "6"],
    "verify_bound_r6": ["verify", "bound", "--r", "6"],
    "verify_bound_r7": ["verify", "bound", "--r", "7"],
}

TEXT_CASES = {
    "construct_genus2_text": ["construct", "genus2", "--l1", "2", "--l2", "-1"],
    "construct_irreducible_text": ["construct", "irreducible", "--lambdas", "2,3,4"],
    "construct_reducible_mu_text": ["construct", "reducible", "--lambda", "2",
                                    "--mu", "5,7"],
    "construct_reducible_chain_text": ["construct", "reducible", "--chain", "2,3,4,5"],
    "construct_genus9_text": ["construct", "genus9", "--lambda", "2", "--mu", "0.3+1.1i"],
    "decompose_genus2_text": ["decompose", "genus2", "--l1", "2", "--l2", "0.3+1.1i"],
    "verify_bound_r6_text": ["verify", "bound", "--r", "6"],
}


def golden_file(name: str) -> pathlib.Path:
    return GOLDEN / (name + (".json" if name in CASES else ".txt"))


def full_argv(name: str) -> list:
    return CASES[name] + ["--format", "json"] if name in CASES else TEXT_CASES[name]


def render(name, capsys):
    status = cli.main(full_argv(name))
    return status, capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(CASES) + sorted(TEXT_CASES))
def test_golden_cli_output(name, capsys):
    status, out = render(name, capsys)
    assert status == 0
    assert out == golden_file(name).read_text()


def _record() -> None:
    import contextlib
    import io

    import mpmath

    from jacdecomp import numerics

    GOLDEN.mkdir(exist_ok=True)
    prec, eps = mpmath.mp.prec, numerics.epsilon()
    for name in sorted(CASES) + sorted(TEXT_CASES):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            status = cli.main(full_argv(name))
        mpmath.mp.prec = prec
        numerics.set_epsilon(eps)
        if status != 0:
            raise SystemExit("%s exited %d" % (name, status))
        golden_file(name).write_text(buffer.getvalue())
        print("recorded", name)


if __name__ == "__main__":
    sys.exit(_record())
