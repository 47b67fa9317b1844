"""The verify registry, run by pytest: one test per check in ``CHECKS``.

Each check runs at the ``cfreeconv verify`` defaults.  ``DEEPER`` runs a
check again at a higher order and over more seeds; a check draws its cases
afresh for each seed, so a row's order and seed count reproduce the order
and the case count of the test that once duplicated that check.
"""
import pytest

from cfreeconv import verify
from cfreeconv.cli import main
from cfreeconv.errors import ArgumentError
from cfreeconv.series import _ApproxSeries
from cfreeconv.verify import CHECKS, DEFAULT_ORDER, DEFAULT_SEED, check_rng, run

# (suite, name): (order, number of seeds)
DEEPER = {
    ("series", "compositional inverse round trip"): (8, 10),  # 100 cases
    ("series", "reciprocal"): (8, 10),  # 100 cases
    ("partitions", "ncl counts vs block-family search"): (6, 1),  # sizes 1..7
    ("partitions", "complement size identity"): (7, 1),
    ("partitions", "complement vs maximality search"): (6, 1),
    ("cumulants", "psi round trips"): (8, 10),  # 100 cases
    ("cumulants", "phi round trips"): (8, 10),  # 100 cases
    ("cumulants", "closed forms vs partition sums"): (9, 6),  # 30 cases
    ("cumulants", "product cumulants vs boxed convolution"): (6, 4),  # 20 cases
    ("cumulants", "product cumulant composition formula"): (6, 2),  # 10 cases
    ("transforms", "moment round trips"): (7, 5),  # 50 cases
    ("transforms", "linked-block moment sums"): (8, 2),  # 6 cases
    ("transforms", "pair multiplicativity vs partition sums"): (5, 3),  # 6 cases
    ("transforms", "sigma value at zero"): (8, 6),  # 30 cases
    ("measures", "infinitely divisible roots"): (6, 1),
    ("measures", "toeplitz positivity gate"): (6, 3),  # 9 cases
    ("measures", "exact products vs T route, partition sums"): (12, 4),  # 32 T-route and 144 partition-sum products
    ("measures", "approx products vs exact T route"): (5, 4),  # 10 pairs of pairs, always at order 24
    ("series", "approx compose and reversion vs exact kernel"): (32, 1),
}


@pytest.mark.parametrize(
    "suite, name, check", CHECKS, ids=[f"{suite}: {name}" for suite, name, _ in CHECKS]
)
def test_check(suite, name, check):
    check(DEFAULT_ORDER, check_rng(DEFAULT_SEED, suite, name))
    order, seeds = DEEPER.get((suite, name), (DEFAULT_ORDER, 0))
    for seed in range(seeds):
        check(order, check_rng(seed, suite, name))


def test_deeper_rows_name_registry_checks():
    assert set(DEEPER) <= {(suite, name) for suite, name, _ in CHECKS}


def test_single_suite_and_seed_determinism():
    first = run("series", order=5, seed=3)
    second = run("series", order=5, seed=3)
    assert first == second
    assert all(name.startswith("series:") for name, _, _ in first)


def test_run_seeds_each_check_on_its_own():
    alone = [
        (f"{suite}: {name}", True, check(5, check_rng(3, suite, name)))
        for suite, name, check in CHECKS
        if suite == "series"
    ]
    assert run("series", order=5, seed=3) == alone


def test_a_broken_check_fails_its_row_only(monkeypatch, capsys):
    true_nc_s = verify.enumerate_nc_s
    monkeypatch.setattr(verify, "enumerate_nc_s", lambda n: true_nc_s(n)[1:])
    rows = run("all", order=4, seed=11)
    assert [name for name, _, _ in rows] == [f"{s}: {n}" for s, n, _ in CHECKS]
    assert [name for name, ok, _ in rows if not ok] == ["partitions: parity class counts"]
    assert main(["verify", "--suite", "partitions", "--order", "4"]) == 1
    captured = capsys.readouterr()
    assert "FAIL partitions: parity class counts" in captured.out
    assert "4/5 checks passed" in captured.out
    assert "Traceback" not in captured.out + captured.err


def test_run_guards():
    with pytest.raises(ArgumentError):
        run("nonsense")
    with pytest.raises(ArgumentError):
        run("series", order=1)


@pytest.mark.parametrize("argv", [[], ["--order", "8", "--seed", "1"]], ids=["defaults", "order 8, seed 1"])
def test_verify_stdout_does_not_depend_on_the_step_rule(monkeypatch, capsys, argv):
    # Rows print their bounds, not measured approx gaps, so approx rounding
    # moves no byte: with blocks of one coefficient everywhere (Horner's rule
    # and the Lagrange loop) the report is the same.
    assert main(["verify", *argv]) == 0
    with_rule = capsys.readouterr().out
    monkeypatch.setattr(_ApproxSeries, "_step", staticmethod(lambda n, inner: 1))
    assert main(["verify", *argv]) == 0
    assert capsys.readouterr().out == with_rule
