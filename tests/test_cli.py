import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from cfreeconv import errors, measures, transforms, verify
from cfreeconv.cli import main
from cfreeconv.measures import CircleMeasure, boolean_convolve, free_multiplicative_convolve, toeplitz_psd_check
from cfreeconv.partitions import enumerate_nc, enumerate_nc_s
from cfreeconv.series import TruncatedSeries


def write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def delta(turns):
    return {"type": "atomic", "atoms": [{"turns": turns, "weight": "1"}]}


MIX = {"type": "atomic", "atoms": [{"turns": "0", "weight": "3/4"}, {"turns": "1/4", "weight": "1/4"}]}


def test_nc_counts_and_listing(capsys):
    assert main(["nc", "--n", "4", "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "14"

    assert main(["nc", "--n", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 5
    parsed = [json.loads(line) for line in lines]
    assert all(p["n"] == 3 for p in parsed)
    assert {"n": 3, "blocks": [[1, 2, 3]]} in parsed

    for cls, want in (("nc_s", "3"), ("nc_0", "2")):
        assert main(["nc", "--n", "4", "--class", cls, "--count-only"]) == 0
        assert capsys.readouterr().out.strip() == want


@pytest.mark.parametrize("cls, sizes, enumerate_class", [("nc", range(1, 13), enumerate_nc), ("nc_s", range(2, 15, 2), enumerate_nc_s)])
def test_count_only_matches_the_enumeration(capsys, cls, sizes, enumerate_class):
    for n in sizes:
        assert main(["nc", "--n", str(n), "--class", cls, "--count-only"]) == 0
        assert capsys.readouterr().out == f"{len(enumerate_class(n))}\n"


def test_count_only_of_nc_14_does_not_enumerate():
    # All 2,674,440 partitions of NC(14) took tens of seconds and over a
    # gigabyte to count by enumeration.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "cfreeconv.cli", "nc", "--n", "14", "--count-only"], env=env, capture_output=True, text=True, timeout=60
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "2674440\n", "")
    assert time.perf_counter() - start < 1.0


def test_nc_listing_streams():
    # The listing of NC(12) used to wait for the whole sorted list, at a
    # child peak RSS of 67.8 MB; its stdout is unchanged.  A small process
    # starts the child: exec carries the starting process's peak RSS over
    # into the child's ru_maxrss, and this one holds the whole test run.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = (
        "import hashlib, os, subprocess, sys\n"
        "child = subprocess.Popen([sys.executable, '-m', 'cfreeconv.cli', 'nc', '--n', '12'], stdout=subprocess.PIPE)\n"
        "digest = hashlib.sha256()\n"
        "for chunk in iter(lambda: child.stdout.read(1 << 16), b''):\n"
        "    digest.update(chunk)\n"
        "_, status, usage = os.wait4(child.pid, 0)\n"
        "child.returncode = os.waitstatus_to_exitcode(status)\n"
        "print(child.returncode, digest.hexdigest(), usage.ru_maxrss)\n"
    )
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True, timeout=120)
    code, digest, peak_kb = done.stdout.split()
    assert code == "0"
    assert digest == "9fcc629124d7313ad9ee3718a3a2d402027645e72bdbb37c77536f76581c5335"
    assert int(peak_kb) < 50 * 1024


def test_nc_odd_parity_class_fails(capsys):
    assert main(["nc", "--n", "3", "--class", "nc_0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_ncl_listing_and_classification(capsys):
    assert main(["ncl", "--n", "3"]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 6

    assert main(["ncl", "--n", "3", "--classify"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
    whole = next(r for r in rows if r["blocks"] == [[1, 2, 3]])
    assert whole["exterior"] == [[1, 2, 3]]
    assert whole["interior"] == []
    assert whole["singly_covered"] == [1, 2, 3]
    assert whole["doubly_covered"] == []
    linked = next(r for r in rows if r["blocks"] == [[1, 2], [2, 3]])
    assert linked["doubly_covered"] == [2]
    assert linked["interior"] == [[2, 3]]


def test_transform_single_measure(tmp_path, capsys):
    src = write(tmp_path / "m.json", MIX)
    assert main(["transform", "--in", src, "--what", "eta", "--order", "3"]) == 0
    got = TruncatedSeries.from_json(json.loads(capsys.readouterr().out))
    m = CircleMeasure.from_json(MIX).moment_series(3)
    from cfreeconv.transforms import eta

    assert got == eta(m)


def test_transform_pair_sigma_constant_for_point_mass(tmp_path, capsys):
    src = write(tmp_path / "p.json", {"mu": delta("1/4"), "nu": MIX})
    assert main(["transform", "--in", src, "--what", "sigma", "--order", "4"]) == 0
    got = TruncatedSeries.from_json(json.loads(capsys.readouterr().out))
    assert [c.to_complex() for c in got.coeffs] == [1j, 0, 0, 0]


def test_transform_shape_mismatch(tmp_path, capsys):
    measure = write(tmp_path / "m.json", MIX)
    pair = write(tmp_path / "p.json", {"mu": delta("1/4"), "nu": MIX})
    assert main(["transform", "--in", pair, "--what", "t", "--order", "3"]) == 2
    assert "single measure" in capsys.readouterr().err
    assert main(["transform", "--in", measure, "--what", "cr", "--order", "3"]) == 2
    assert "mu" in capsys.readouterr().err


def test_convolve_matches_library(tmp_path, capsys):
    a = write(tmp_path / "a.json", MIX)
    b = write(tmp_path / "b.json", delta("1/2"))
    assert main(["convolve", "--kind", "boolean", "--a", a, "--b", b, "--order", "4"]) == 0
    got = CircleMeasure.from_json(json.loads(capsys.readouterr().out))
    want = boolean_convolve(CircleMeasure.from_json(MIX), CircleMeasure.from_json(delta("1/2")), 4)
    assert got.moment_series(4) == want.moment_series(4)


def test_convolve_cfree_point_masses(tmp_path, capsys):
    a = write(tmp_path / "a.json", {"mu": delta("1/4"), "nu": delta("1/2")})
    b = write(tmp_path / "b.json", {"mu": delta("1/2"), "nu": delta("3/4")})
    assert main(["convolve", "--kind", "cfree", "--a", a, "--b", b, "--order", "4"]) == 0
    out = json.loads(capsys.readouterr().out)
    got_mu = CircleMeasure.from_json(out["mu"]).moment_series(4)
    got_nu = CircleMeasure.from_json(out["nu"]).moment_series(4)
    from fractions import Fraction

    assert got_mu == CircleMeasure.point_mass(Fraction(3, 4)).moment_series(4)
    assert got_nu == CircleMeasure.point_mass(Fraction(1, 4)).moment_series(4)


@pytest.mark.parametrize("order", ["0", "-2"])
def test_convolve_cfree_uniform_pair_refuses_an_order_below_one(tmp_path, capsys, order):
    mu = {"type": "atomic", "atoms": [{"turns": "0", "weight": "1/2"}, {"turns": "1/4", "weight": "1/2"}]}
    a = write(tmp_path / "a.json", {"mu": mu, "nu": {"type": "haar"}})
    assert main(["convolve", "--kind", "cfree", "--a", a, "--b", a, "--order", order]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "at least one moment must be requested" in err


def test_convolve_rejects_pair_for_single_kind(tmp_path, capsys):
    a = write(tmp_path / "a.json", {"mu": delta("1/4"), "nu": MIX})
    b = write(tmp_path / "b.json", MIX)
    assert main(["convolve", "--kind", "free", "--a", a, "--b", b]) == 2
    assert "single measure" in capsys.readouterr().err


def test_idiv_gamma_forms(tmp_path, capsys):
    sigma = write(tmp_path / "s.json", {"type": "atomic", "atoms": [{"turns": "0", "weight": "1/2"}]})
    assert main(["idiv", "--gamma", "1,0", "--sigma", sigma, "--kind", "boolean", "--order", "3"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(["idiv", "--gamma", "1+0j", "--sigma", sigma, "--kind", "boolean", "--order", "3"]) == 0
    assert json.loads(capsys.readouterr().out) == first
    import math

    assert abs(first["values"][0][0] - math.exp(-0.5)) < 1e-12

    assert main(["idiv", "--gamma", "2,0", "--kind", "free"]) == 2
    assert "unit circle" in capsys.readouterr().err


@pytest.mark.parametrize("gamma", ["1,x", "True", "", "1,0,0", "1e400,0", "0,inf", "1+infj"])
def test_idiv_gamma_that_does_not_parse_exits_2(capsys, gamma):
    assert main(["idiv", "--gamma", gamma, "--kind", "free", "--order", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --gamma must be 'RE,IM' or a complex literal with finite parts, not {gamma!r}\n"


def test_idiv_refuses_fewer_than_one_moment(capsys):
    for kind in ("free", "boolean"):
        for order in ("0", "-3"):
            assert main(["idiv", "--gamma", "1,0", "--kind", kind, "--order", order]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: at least one moment must be requested\n"


def test_semigroup_time_zero_is_the_unit_pair(tmp_path, capsys):
    gen = write(
        tmp_path / "gen.json",
        {"gamma": [1.0, 0.0], "sigma": {"type": "atomic", "atoms": [{"turns": "1/3", "weight": "1/4"}]}},
    )
    target = write(
        tmp_path / "target.json",
        {"order": 5, "mode": "approx", "coeffs": [[0.9, 0.1], [0.0, 0.0], [0.1, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]},
    )
    assert main(["semigroup", "--gen", gen, "--sigma-target", target, "--t", "0", "--order", "6"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["mu"] == {"type": "atomic", "atoms": [{"turns": "0", "weight": "1"}]}
    assert out["nu"] == out["mu"]

    assert main(["semigroup", "--gen", gen, "--sigma-target", target, "--t", "-1", "--order", "6"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("gamma", [[1], [], [1, 0, 0], [True, False], [1, "0"], [10**400, 0], "1,0"])
def test_semigroup_gamma_that_is_not_a_pair_exits_2(tmp_path, capsys, gamma):
    # A boolean, a string or an integer beyond a double is no number either.
    gen = write(tmp_path / "gen.json", {"gamma": gamma, "sigma": delta("0")})
    target = write(tmp_path / "target.json", SIGMA_TARGET)
    assert main(["semigroup", "--gen", gen, "--sigma-target", target, "--t", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    refused = "a finite number" if isinstance(gamma, list) and len(gamma) == 2 else "an [re, im] pair"
    assert captured.err.startswith(f"error: gamma in {gen} must be {refused}, not ")
    assert "Traceback" not in captured.err


def test_limit_report(tmp_path, capsys):
    report = tmp_path / "report.csv"
    argv = ["limit", "--s", "1/2", "--omega", "1/4", "--n-list", "2,4", "--order", "3", "--out", str(report)]
    assert main(argv) == 0
    summary = json.loads(capsys.readouterr().out)
    assert set(summary) == {"fit", "gamma_n", "sigma_n_moments"}
    assert set(summary["gamma_n"]) == {"2", "4"}

    lines = report.read_text().strip().splitlines()
    assert lines[0] == "n,j,gap"
    assert len(lines) == 1 + 2 * 4
    assert all(float(line.split(",")[2]) >= 0 for line in lines[1:])

    first = report.read_text()
    assert main(argv) == 0
    capsys.readouterr()
    assert report.read_text() == first


# Integers are ASCII digits: no '_' separators, no '+', no other script's digits.
@pytest.mark.parametrize("n_list", ["4,x", "4.0", "1e3", "x", "1_6", "+4", "4,\u0668", "\uff14"])
def test_limit_n_list_that_does_not_parse_exits_2(tmp_path, capsys, n_list):
    argv = ["limit", "--s", "1/2", "--omega", "1/4", "--n-list", n_list, "--out", str(tmp_path / "report.csv")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --n-list must be comma-separated integers, not {n_list!r}\n"
    assert not (tmp_path / "report.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [["nc", "--n", "1_0"], ["ncl", "--n", "+4"], ["convolve", "--kind", "free", "--a", "a.json", "--b", "b.json",
     "--order", "\u0668"], ["verify", "--order", "4", "--seed", "1_0"], ["verify", "--order", "\uff14"]],
    ids=["underscore", "plus", "arabic-indic", "seed", "fullwidth"],
)
def test_integer_flags_take_ascii_digits_only(capsys, argv):
    flag, value = argv[-2:]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: argument {flag}: invalid int value: {value!r}\n")


def test_integer_flags_keep_blanks_and_minus(capsys):
    assert main(["nc", "--n", " 3 ", "--count-only"]) == 0
    assert capsys.readouterr().out == "5\n"
    # -1 parses, and the size guard refuses it.
    assert main(["nc", "--n", "-1", "--count-only"]) == 2
    assert capsys.readouterr().err == "error: enumerate_nc supports 1 <= n <= 14\n"


def test_limit_with_vanishing_first_moment_exits_2(tmp_path, capsys):
    # s/n = 1/2 at half a turn: the factor's first moment is exactly zero
    argv = ["limit", "--s", "1/2", "--omega", "1/2", "--n-list", "1", "--order", "3",
            "--out", str(tmp_path / "report.csv")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: row n=1: the factor's first moment vanishes")
    assert "Traceback" not in captured.err


def test_cli_import_loads_no_numpy():
    # Nor the check registry, which only `verify` needs.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = (
        "import sys, cfreeconv.cli as cli; cli.build_parser().parse_args(['nc', '--n', '3']); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy' or m == 'cfreeconv.verify'))"
    )
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_verify_suite_choices_come_from_the_registry(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "--suite", "nope"])
    assert info.value.code == 2
    assert ", ".join(map(repr, verify.SUITES + ("all",))) in capsys.readouterr().err
    with pytest.raises(SystemExit) as info:
        main(["verify", "--help"])
    assert info.value.code == 0
    assert "{" + ",".join(verify.SUITES + ("all",)) + "}" in capsys.readouterr().out


def test_verify_exit_codes(capsys, monkeypatch):
    assert main(["verify", "--suite", "partitions", "--order", "4", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out
    assert "FAIL" not in out

    monkeypatch.setattr(verify, "run", lambda *a, **k: [("demo", False, "boom")])
    assert main(["verify"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_unknown_flags_exit_two():
    with pytest.raises(SystemExit) as info:
        main(["nc", "--n", "4", "--bogus"])
    assert info.value.code == 2
    with pytest.raises(SystemExit):
        main(["transform", "--in", "x.json", "--what", "nope"])


# mu = 1/2 d_0 + 1/3 d_{1/3} + 1/6 d_{1/7} and nu = 3/4 d_0 + 1/4 d_{1/5}:
# at order 32 the two sigma routes differ by about 8e-4 in absolute terms,
# against coefficients up to about 2.3e11 -- a relative gap of 3.5e-15.
LARGE_SIGMA_PAIR = {
    "mu": {
        "type": "atomic",
        "atoms": [
            {"turns": "0", "weight": "1/2"},
            {"turns": "1/3", "weight": "1/3"},
            {"turns": "1/7", "weight": "1/6"},
        ],
    },
    "nu": {
        "type": "atomic",
        "atoms": [{"turns": "0", "weight": "3/4"}, {"turns": "1/5", "weight": "1/4"}],
    },
}


def test_sigma_gate_scales_with_coefficient_size(tmp_path, capsys):
    src = write(tmp_path / "p.json", LARGE_SIGMA_PAIR)
    assert main(["transform", "--in", src, "--what", "sigma", "--order", "32"]) == 0
    got = TruncatedSeries.from_json(json.loads(capsys.readouterr().out))
    assert got.order == 31 and got.mode == "approx"
    first_phi = CircleMeasure.from_json(LARGE_SIGMA_PAIR["mu"]).moment_series(1).coeffs[1]
    assert abs(got.coeffs[0] - first_phi) < 1e-12
    assert max(abs(c) for c in got.coeffs) > 1e10


def test_sigma_route_disagreement_exits_2(tmp_path, capsys, monkeypatch):
    true_ct = transforms.TransformBundle.cT.func

    def nudged(bundle):
        ct = true_ct(bundle)
        bump = Fraction(1, 1000) if ct.mode == "exact" else 1e-3
        return ct + TruncatedSeries.constant(bump, ct.order, ct.mode)

    monkeypatch.setattr(transforms.TransformBundle, "cT", property(nudged))
    pair = {"mu": delta("1/4"), "nu": MIX}
    mu = CircleMeasure.from_json(pair["mu"]).moment_series(6)
    nu = CircleMeasure.from_json(pair["nu"]).moment_series(6)
    with pytest.raises(errors.NumericalError):
        transforms.sigma_series(mu, nu)
    with pytest.raises(errors.NumericalError):
        transforms.sigma_series(mu.to_approx(), nu.to_approx())
    src = write(tmp_path / "p.json", pair)
    assert main(["transform", "--in", src, "--what", "sigma", "--order", "6"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: sigma routes disagree")
    assert "Traceback" not in captured.err


# The psi-law is uniform on the cube roots of 1, so m_1 vanishes but reads about
# 1e-16 in double precision; the transform route must refuse it, not print
# coefficients blown up by dividing through that rounding residue.
VANISHING_M1_PAIR = {
    "mu": {"type": "atomic", "atoms": [{"turns": "0", "weight": "1/2"}, {"turns": "1/5", "weight": "1/2"}]},
    "nu": {
        "type": "atomic",
        "atoms": [{"turns": "0", "weight": "1/3"}, {"turns": "1/3", "weight": "1/3"}, {"turns": "2/3", "weight": "1/3"}],
    },
}
SIXTH_TURN_PAIR = {
    "mu": {"type": "atomic", "atoms": [{"turns": "0", "weight": "1/2"}, {"turns": "1/6", "weight": "1/2"}]},
    "nu": {"type": "atomic", "atoms": [{"turns": "0", "weight": "3/4"}, {"turns": "1/6", "weight": "1/4"}]},
}


@pytest.mark.parametrize(
    "argv",
    [
        ["transform", "--in", "{p}", "--what", "sigma", "--order", "4"],
        ["transform", "--in", "{p}", "--what", "ct", "--order", "4"],
    ],
    ids=["sigma", "ct"],
)
def test_approx_vanishing_first_moment_exits_2(tmp_path, capsys, argv):
    paths = {"p": write(tmp_path / "p.json", VANISHING_M1_PAIR)}
    assert main([arg.format(**paths) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the psi-moment series needs an invertible first moment")
    assert "Traceback" not in captured.err


def test_approx_cfree_product_of_a_cube_root_psi_law(tmp_path, capsys):
    # Subordination divides by no first moment, so the product is a law.
    # The cube-root psi-law is invariant under a third of a turn, and so is
    # the product's psi-law: its moments m_k vanish unless 3 divides k.
    p = write(tmp_path / "p.json", VANISHING_M1_PAIR)
    q = write(tmp_path / "q.json", SIXTH_TURN_PAIR)
    assert main(["convolve", "--kind", "cfree", "--a", p, "--b", q, "--order", "12"]) == 0
    out = json.loads(capsys.readouterr().out)
    m = CircleMeasure.from_json(out["nu"]).moment_series(12)
    assert m.mode == "approx"
    assert max(abs(c) for k, c in enumerate(m.coeffs[1:], 1) if k % 3) <= 1e-14
    assert min(abs(c) for c in m.coeffs[3::3]) > 0.1  # and the psi-law is not the uniform law


# a = 1/2 d_0 + 1/3 d_{1/12} + 1/6 d_{5/12} and b = 3/4 d_0 + 1/4 d_{1/6}:
# at order 48 the free product's moments come out of the T route through m^-1
# in double precision with moduli far above 1.  That is lost precision, not
# bad input.  Subordination, the approx route, keeps them inside the disk.
LOST_PRECISION_A = {
    "type": "atomic",
    "atoms": [
        {"turns": "0", "weight": "1/2"},
        {"turns": "1/12", "weight": "1/3"},
        {"turns": "5/12", "weight": "1/6"},
    ],
}
LOST_PRECISION_B = {
    "type": "atomic",
    "atoms": [{"turns": "0", "weight": "3/4"}, {"turns": "1/6", "weight": "1/4"}],
}


def test_computed_moment_bound_raises_numerical_error(tmp_path, capsys, monkeypatch):
    a = CircleMeasure.from_json(LOST_PRECISION_A)
    b = CircleMeasure.from_json(LOST_PRECISION_B)
    law = free_multiplicative_convolve(a, b, 48)
    assert toeplitz_psd_check(law.moment_series(48).coeffs[1:])[0]

    def t_route(M1, m1, M2, m2):
        product = transforms.TransformBundle(M1, m1).multiply(transforms.TransformBundle(M2, m2))
        return product.M, product.m

    monkeypatch.setattr(measures, "_subordinated_product", t_route)
    with pytest.raises(errors.NumericalError, match="order 48"):
        free_multiplicative_convolve(a, b, 48)
    src_a = write(tmp_path / "a.json", LOST_PRECISION_A)
    src_b = write(tmp_path / "b.json", LOST_PRECISION_B)
    assert main(["convolve", "--kind", "free", "--a", src_a, "--b", src_b, "--order", "48"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: computed moments at order 48 reach modulus")
    assert "Traceback" not in captured.err


def test_subordination_beyond_the_disk_exits_2(tmp_path, capsys, monkeypatch):
    # Subordination functions map the disk into itself; one whose
    # coefficients leave it was lost to rounding, and nothing is returned.
    solve = measures._subordination
    monkeypatch.setattr(measures, "_subordination", lambda h1, h2: [omega.scale(1.5) for omega in solve(h1, h2)])
    a = CircleMeasure.from_json(LOST_PRECISION_A)
    b = CircleMeasure.from_json(LOST_PRECISION_B)
    with pytest.raises(errors.NumericalError, match="order 12"):
        free_multiplicative_convolve(a, b, 12)
    pair = write(tmp_path / "p.json", {"mu": LOST_PRECISION_A, "nu": LOST_PRECISION_B})
    assert main(["convolve", "--kind", "cfree", "--a", pair, "--b", pair, "--order", "12"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: subordination functions at order 12 reach modulus 1.")
    assert "Traceback" not in captured.err


def test_verify_measures_at_order_20_passes(capsys):
    # The twelfth-turn products of the positivity row lost their moments on
    # the T route through m^-1 in double precision.
    assert main(["verify", "--suite", "measures", "--order", "20", "--seed", "1"]) == 0
    rows = sum(suite == "measures" for suite, _, _ in verify.CHECKS)
    assert f"{rows}/{rows} checks passed" in capsys.readouterr().out


SIGMA_TARGET = {"mode": "approx", "order": 2, "coeffs": [[1, 0], [0, 0], [0, 0]]}


@pytest.mark.parametrize(
    "argv",
    [
        ["convolve", "--kind", "boolean", "--a", "{list}", "--b", "{law}"],
        ["convolve", "--kind", "boolean", "--a", "{text}", "--b", "{law}"],
        ["convolve", "--kind", "cfree", "--a", "{pair}", "--b", "{pair}"],
        ["transform", "--in", "{list}", "--what", "r"],
        ["idiv", "--gamma", "1,0", "--sigma", "{list}", "--kind", "free"],
        ["semigroup", "--gen", "{gen}", "--sigma-target", "{target}", "--t", "1"],
    ],
    ids=["boolean-list", "boolean-string", "cfree-mu", "transform", "idiv-sigma", "semigroup-sigma"],
)
def test_measure_that_is_not_an_object_exits_2(tmp_path, capsys, argv):
    paths = {
        "list": write(tmp_path / "list.json", [1, 2]),
        "text": write(tmp_path / "text.json", "x"),
        "law": write(tmp_path / "law.json", delta("0")),
        "pair": write(tmp_path / "pair.json", {"mu": [1], "nu": delta("0")}),
        "gen": write(tmp_path / "gen.json", {"gamma": [1, 0], "sigma": [1]}),
        "target": write(tmp_path / "target.json", SIGMA_TARGET),
    }
    assert main([arg.format(**paths) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: a measure must be a JSON object")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["idiv", "--gamma", "nan,0", "--kind", "free"], "gamma must sit on the unit circle"),
        (["transform", "--in", "{poisson}", "--what", "r", "--order", "2"], "the kernel parameter needs |alpha| < 1"),
        (["transform", "--in", "{moments}", "--what", "r", "--order", "1"], "moments of a law on the circle are bounded by 1"),
        (["transform", "--in", "{mixed}", "--what", "t", "--order", "2"], "a moment must be a finite number, not inf"),
        (["convolve", "--kind", "free", "--a", "{turns}", "--b", "{point}"], "atom turns must be a finite number, not inf"),
        (["convolve", "--kind", "cfree", "--a", "{pair}", "--b", "{pair}"], "atom turns must be a finite number, not inf"),
        (["idiv", "--gamma", "1,0", "--sigma", "{weight}", "--kind", "free"], "atom weight must be a finite number, not inf"),
        (["semigroup", "--gen", "{gen}", "--sigma-target", "{target}", "--t", "1"], "a series coefficient must be a finite number, not inf"),
        (["semigroup", "--gen", "{atoms}", "--sigma-target", "{approx_inf}", "--t", "1", "--order", "3"],
         "a series coefficient must be a finite number, not inf"),
        (["semigroup", "--gen", "{atoms}", "--sigma-target", "{approx_nan}", "--t", "1", "--order", "3"],
         "a series coefficient must be a finite number, not nan"),
        (["idiv", "--gamma", "1,0", "--sigma", "{heavy}", "--kind", "free"], "a series exponential overflows double precision"),
        (["idiv", "--gamma", "1,0", "--sigma", "{huge}", "--kind", "free"], "the generator's mass overflows double precision"),
        (["semigroup", "--gen", "{atoms}", "--sigma-target", "{short}", "--t", "1e30", "--order", "3"],
         "a series exponential overflows double precision"),
        (["semigroup", "--gen", "{atoms}", "--sigma-target", "{short}", "--t", "1e400", "--order", "3"],
         "scaling the generator overflows double precision"),
        (["semigroup", "--gen", "{atoms}", "--sigma-target", "{padded}", "--t", "1", "--order", "3"],
         "a series order must be its coefficient count less one, not 5"),
        (["transform", "--in", "{no_atoms}", "--what", "r"], "an atomic measure must be a JSON object whose 'atoms' entry is a list"),
        (["semigroup", "--gen", "{half}", "--sigma-target", "{exact_big}", "--t", "1", "--order", "2"],
         "coefficient 1 of an exact series overflows double precision"),
    ],
    ids=["gamma", "poisson", "moments", "moments-mixed-1e400", "free-turns", "cfree-pair", "idiv-weight", "semigroup-target",
         "semigroup-approx-target-1e400", "semigroup-approx-target-nan",
         "idiv-weight-1e40", "idiv-weight-1e400", "semigroup-t-1e30", "semigroup-t-1e400", "semigroup-target-order",
         "no-atoms", "semigroup-exact-target-1e400"],
)
def test_nan_input_exits_2(tmp_path, capsys, argv, message):
    # json.load reads the bare token NaN as float("nan"), and a number too
    # large for a double, such as 1e400, as float("inf").  Weights and times
    # given as fraction strings or flags stay finite, and overflow only where
    # they meet a double.
    paths = {}
    for name, text in {
        "poisson": '{"type": "poisson", "alpha": [NaN, 0]}',
        "moments": '{"type": "moments", "values": [[NaN, 0]]}',
        "mixed": '{"type": "moments", "values": [["1/2", 1e400]]}',
        "turns": '{"type": "atomic", "atoms": [{"turns": 1e400, "weight": 1}]}',
        "point": '{"type": "atomic", "atoms": [{"turns": 0, "weight": 1}]}',
        "pair": '{"mu": {"type": "atomic", "atoms": [{"turns": 1e400, "weight": 1}]}, "nu": {"type": "haar"}}',
        "weight": '{"type": "atomic", "atoms": [{"turns": 0, "weight": 1e400}]}',
        "gen": '{"gamma": [1, 0]}',
        "target": '{"mode": "exact", "order": 1, "coeffs": [["1", "0"], [1e400, 0]]}',
        "approx_inf": '{"mode": "approx", "order": 2, "coeffs": [[1, 0], [0, 0], [1e400, 0]]}',
        "approx_nan": '{"mode": "approx", "order": 2, "coeffs": [[1, 0], [0, NaN], [0, 0]]}',
        "heavy": '{"type": "atomic", "atoms": [{"turns": "0", "weight": "1e40"}]}',
        "huge": '{"type": "atomic", "atoms": [{"turns": "0", "weight": "1e400"}]}',
        "atoms": '{"gamma": [1, 0], "sigma": {"type": "atomic", "atoms": [{"turns": "1/3", "weight": "1/4"}]}}',
        "short": json.dumps(SIGMA_TARGET),
        "padded": json.dumps(dict(SIGMA_TARGET, order=5)),
        "no_atoms": '{"type": "atomic"}',
        "half": '{"gamma": [1, 0], "sigma": {"type": "atomic", "atoms": [{"turns": "0", "weight": "1/2"}]}}',
        "exact_big": '{"mode": "exact", "order": 1, "coeffs": [["1", "0"], ["0", "1e400"]]}',
    }.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(text)
    assert main([arg.format(**paths) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"



@pytest.mark.parametrize(
    "argv, text, field, value",
    [
        (["transform", "--in", "{}", "--what", "r"], '{"type": "atomic", "atoms": [{"turns": "0", "weight": "1e10000000"}]}',
         "atom weight", "1e10000000"),
        (["transform", "--in", "{}", "--what", "r"], '{"type": "moments", "values": [["1e10000000", "0"]]}', "a moment", "1e10000000"),
        (["semigroup", "--gen", "GEN", "--sigma-target", "{}", "--t", "1"],
         '{"mode": "exact", "order": 1, "coeffs": [["1", "0"], ["0", "1e10000000"]]}', "a series coefficient", "1e10000000"),
        (["semigroup", "--gen", "GEN", "--sigma-target", "{}", "--t", "1e-10000000"], json.dumps(SIGMA_TARGET), "--t", "1e-10000000"),
        (["limit", "--s", "1e-10000000", "--omega", "1/4", "--n-list", "1", "--out", "CSV"], "", "--s", "1e-10000000"),
        (["limit", "--s", "1/4", "--omega", "1e-10000000", "--n-list", "1", "--out", "CSV"], "", "--omega", "1e-10000000"),
    ],
    ids=["atom-weight", "moment", "series-coefficient", "semigroup-t", "limit-s", "limit-omega"],
)
def test_a_huge_decimal_exponent_is_refused_before_it_is_built(tmp_path, capsys, argv, text, field, value):
    # Fraction("1e10000000") builds the power of ten: 14.7 s for the atom
    # weight, and 13.9 s for `limit --s 1e-10000000` (59.6 s for `--omega`),
    # without the guard.
    path = tmp_path / "in.json"
    path.write_text(text)
    files = {"GEN": write(tmp_path / "gen.json", {"gamma": [1, 0]}), "CSV": str(tmp_path / "report.csv")}
    start = time.perf_counter()
    assert main([files.get(arg) or arg.format(path) for arg in argv]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {field} has a decimal exponent beyond 4300 in magnitude: '{value}'\n"
