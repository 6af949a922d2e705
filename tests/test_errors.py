"""Each failure rule has one home in catsense.errors: one message, one exit code."""

import math
import re
from pathlib import Path

import numpy as np
import pytest

from catsense import bounds, cli, errors
from catsense.bounds import (
    FamilyKind,
    curve,
    entangled_cat_generator_variance,
    eps_min_squeezed_exact,
    invert_ntot,
)
from catsense.coherent import make_entangled_cat
from catsense.estimation import homodyne_table, ramsey_table
from catsense.fock import coherent_vector, qfi_fidelity_fd, squeezed_vector
from catsense.outputs import csv_text

COUNTS = [
    ("n_modes", lambda n: curve(FamilyKind.ENTANGLED_CAT, 1.0, n)),
    ("n_modes", lambda n: invert_ntot(1.0, n)),
    ("n_modes", lambda n: curve(FamilyKind.SEPARABLE_CATS, 1.0, n)),
    ("n_modes", lambda n: entangled_cat_generator_variance(1.0, n)),
    ("shots", lambda n: homodyne_table("coherent", 0.0, 0.1, n, 1)),
    ("shots * N", lambda n: ramsey_table((n,), 1, 2, 1)),  # one shot: the count is N
    ("shots", lambda n: ramsey_table((2,), n, 2, 1)),
    ("n_modes", lambda n: make_entangled_cat(0.5, n)),
]

REALS = [
    ("n_tot", lambda x: invert_ntot(x, 2)),
    ("n_tot", lambda x: curve(FamilyKind.SEPARABLE_CATS, x, 2)),
    ("alpha", lambda x: entangled_cat_generator_variance(x, 2)),
    ("r", eps_min_squeezed_exact),
    ("r", lambda x: homodyne_table("squeezed", x, 0.1, 3, 1)),
    ("r", lambda x: homodyne_table("coherent", x, 0.1, 3, 1)),  # r is checked for every probe
    ("true_eps", lambda x: homodyne_table("coherent", 0.0, x, 3, 1)),
    ("r", lambda x: squeezed_vector(x, 20)),
]


SEEDS = [
    lambda s: homodyne_table("coherent", 0.0, 0.1, 3, s),
    lambda s: ramsey_table((2,), 1, 2, s),
]


def _fd_step(step):
    return qfi_fidelity_fd(coherent_vector(0.0, 20), [1.0], step)


def _replicates(n):
    return ramsey_table((2,), 1, n, 1)


CASES = (
    [(call, n, f"{name} must be >= 1, got {n}") for name, call in COUNTS for n in (0, -2)]
    + [(call, n, f"{name} must be <= 2^63 - 1") for name, call in COUNTS for n in (2**63, 10**400)]
    + [(call, n, f"{name} must be an integer, got {n!r}")
       for name, call in COUNTS for n in (2.5, "3")]
    + [(call, s, f"seed must be an integer, got {s!r}") for call in SEEDS for s in (1.5, "7")]
    + [(call, -1, "seed must be >= 0, got -1") for call in SEEDS]
    + [(call, 2**64, "seed must be <= 2^64 - 1") for call in SEEDS]
    + [(_replicates, 2.5, "replicates must be an integer, got 2.5"),
       (_replicates, 1, "replicates must be >= 2, got 1")]
    + [(call, x, f"{name} must be finite and >= 0, got {x}")
       for name, call in REALS for x in (math.nan, math.inf, -1.0)]
    + [(_fd_step, x, f"step must be finite and > 0, got {x}")
       for x in (math.nan, math.inf, -1.0, 0.0)]
)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("call, bad, message", CASES)
def test_every_entry_point_states_the_shared_rule(call, bad, message):
    with pytest.raises(ValueError) as info:
        call(bad)
    assert str(info.value) == message


TABLES = [
    lambda n, seed: bounds.bounds_table("separable-cats", n, [0.5, 2.0]),
    lambda n, seed: bounds.figure1_table(n, [0.5, 2.0]),
    lambda n, seed: homodyne_table("coherent", 0.0, 0.1, 10 * n, seed),
    lambda n, seed: ramsey_table((1, n), 10 * n, n, seed)[0],
    lambda n, seed: {"labels": make_entangled_cat(0.5, n).labels.real.ravel()},
]


@pytest.mark.parametrize("make", TABLES)
def test_numpy_integers_give_what_python_ints_give(make):
    want, got = make(3, 7), make(np.int64(3), np.uint64(7))
    assert csv_text(got) == csv_text(want)


def _documented_exit_codes() -> dict[str, int]:
    readme = Path(__file__).resolve().parents[1] / "README.md"
    codes = {}
    for code, names in re.findall(r"^\| `(\d)` \|[^|]*\|([^|]*)\|$", readme.read_text(), re.M):
        codes.update((name, int(code)) for name in re.findall(r"`(\w+)`", names))
    return codes


ERROR_TYPES = [cls for cls in vars(errors).values()
               if isinstance(cls, type) and issubclass(cls, errors.CatsenseError)]


@pytest.mark.parametrize("cls", ERROR_TYPES, ids=lambda cls: cls.__name__)
def test_exit_code_matches_the_readme(cls, monkeypatch, capsys):
    assert cls.exit_code == _documented_exit_codes()[cls.__name__]

    def fail(*args):
        raise cls("boom")

    monkeypatch.setattr(bounds, "bounds_table", fail)
    assert cli.main(["bounds"]) == cls.exit_code
    assert capsys.readouterr().err == "error: boom\n"


@pytest.mark.parametrize("z", [complex(math.nan, 0.0), complex(math.inf, 0.0),
                               complex(1.0, math.nan), complex(1.0, 1e-3)])
def test_require_real_refuses_non_finite_and_complex_values(z):
    with pytest.raises(errors.ConsistencyError, match="not a finite real number"):
        errors.require_real("moment", z)
    assert errors.require_real("moment", complex(2.0, 1e-12)) == 2.0
