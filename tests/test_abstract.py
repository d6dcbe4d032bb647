"""The claims of the paper's abstract, as exact statements about derived fidelities.

Every comparison is between two fidelity polynomials derived from the
codes' correctable sets (``fidelity._fidelity_polynomial``); the bare qubit
is the trivial one-qubit code, whose polynomial is 1 - p.  Identities are
checked coefficient by coefficient, and signs in mu at a given p with exact
Sturm sign counts (``roots.sign_structure``), so no tolerance decides them.
"""

from pathlib import Path

from corrqec.channels import MODEL_I, MODEL_II
from corrqec.fidelity import _excess_at, _fidelity_polynomial
from corrqec.roots import sign_structure

README = Path(__file__).resolve().parents[1] / "README.md"

# factors as {(mu power, p power): integer coefficient}
ONE_MINUS_MU = {(0, 0): 1, (1, 0): -1}
P = {(0, 1): 1}
ONE_MINUS_P = {(0, 0): 1, (0, 1): -1}
ONE_MINUS_2P = {(0, 0): 1, (0, 1): -2}

SAMPLE_P = (1e-6, 0.01, 0.1, 0.25, 0.4, 0.49)
CROSSOVER_P = (0.01, 0.1, 0.25, 0.4)
CROSSOVER_PAIRS = (("concat6", "bit3"), ("concat6", "dfs2"), ("bit3", "dfs2"))


def expand(*factors: dict) -> dict:
    out = {(0, 0): 1}
    for factor in factors:
        acc: dict = {}
        for (i, j), a in out.items():
            for (k, l), b in factor.items():
                acc[i + k, j + l] = acc.get((i + k, j + l), 0) + a * b
        out = acc
    return {key: c for key, c in out.items() if c}


def difference(first: str, second: str, model: int) -> dict:
    """F_first - F_second as {(mu power, p power): integer coefficient}."""
    out: dict = {}
    for sign, base in ((1, first), (-1, second)):
        for i, row in enumerate(_fidelity_polynomial(base, model)):
            for j, c in enumerate(row):
                out[i, j] = out.get((i, j), 0) + sign * c
    return {key: c for key, c in out.items() if c}


def excess(first: str, second: str, model: int, p: float) -> list[int]:
    """A positive multiple of F_first - F_second at p, as coefficients in mu."""
    return _excess_at(_fidelity_polynomial(first, model), _fidelity_polynomial(second, model), p)


def where_first_wins(first: str, second: str, model: int, p: float) -> str:
    """The mu in [0, 1] where ``first`` has the higher fidelity; one crossing at most."""
    g = excess(first, second, model, p)
    edges, signs = sign_structure(g)
    if signs == [1]:
        # the only tie is at mu = 1
        assert sum(g) == 0
        return "mu < 1"
    assert signs in ([-1, 1], [1, -1]), (first, second, model, p, signs)
    return f"mu {'>' if signs == [-1, 1] else '<'} {edges[1]:.4f}"


def crossover_table() -> str:
    head = "| model | first vs second | " + " | ".join(f"p = {p:g}" for p in CROSSOVER_P) + " |"
    lines = [head, "|---" * (2 + len(CROSSOVER_P)) + "|"]
    for model in (MODEL_I, MODEL_II):
        for first, second in CROSSOVER_PAIRS:
            cells = [where_first_wins(first, second, model, p) for p in CROSSOVER_P]
            lines.append(f"| {model} | {first} vs {second} | " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def test_unencoded_minus_dfs2_at_zero_correlation():
    # the error-avoiding code does not work for small correlations:
    # (1 - p) - F_dfs2 = p (1 - 2p) > 0 at mu = 0, in both models
    for model in (MODEL_I, MODEL_II):
        at_mu0 = {key: c for key, c in difference("unencoded", "dfs2", model).items() if key[0] == 0}
        assert at_mu0 == expand(P, ONE_MINUS_2P)


def test_unencoded_minus_bit3_in_model_1():
    # the bit-flip code works for every correlation mu < 1 when p < 1/2
    got = difference("unencoded", "bit3", MODEL_I)
    assert got == expand({(0, 0): -1}, P, ONE_MINUS_P, ONE_MINUS_2P, ONE_MINUS_MU, ONE_MINUS_MU)


def test_concat6_minus_dfs2_in_model_2():
    two_p_minus_1 = {(0, 0): -1, (0, 1): 2}
    one_plus_p_minus_p2 = {(0, 0): 1, (0, 1): 1, (0, 2): -1}
    got = difference("concat6", "dfs2", MODEL_II)
    assert got == expand(
        {(0, 0): 2}, P, ONE_MINUS_MU, ONE_MINUS_P, two_p_minus_1, two_p_minus_1, one_plus_p_minus_p2
    )


def test_neither_code_works_in_the_limit_where_the_other_does():
    # g = F_unencoded - F: g(0) is the constant coefficient, g(1) the sum
    for model in (MODEL_I, MODEL_II):
        for p in SAMPLE_P:
            bit3 = excess("unencoded", "bit3", model, p)
            dfs2 = excess("unencoded", "dfs2", model, p)
            assert bit3[0] < 0 < dfs2[0], (model, p)
            assert sum(dfs2) < 0 <= sum(bit3), (model, p)


def test_concatenation_wins_in_model_2_at_p_01():
    edges, signs = sign_structure(excess("concat6", "dfs2", MODEL_II, 0.1))
    assert (edges, signs) == ([0.0, 1.0], [1])
    assert where_first_wins("concat6", "bit3", MODEL_II, 0.1) == "mu > 0.0889"
    # in model 1 one of its parents beats it for mu in (0.3461, 0.7464)
    assert where_first_wins("concat6", "bit3", MODEL_I, 0.1) == "mu > 0.7464"
    assert where_first_wins("concat6", "dfs2", MODEL_I, 0.1) == "mu < 0.3461"


def test_readme_crossover_table_matches_the_code():
    assert crossover_table() in README.read_text()
