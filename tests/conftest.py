import pytest
from hypothesis import strategies as st

from oppositions import (
    Atom,
    EXISTS,
    FORALL,
    And,
    Implies,
    Not,
    Or,
    Quantified,
    build_graph,
    extend_hexagon,
    make_square_assignment,
    parse_corpus,
)

SQUARE_CORPUS = "\n".join(f"{form}: {form}[P]" for form in "AEIO")
HEXAGON_CORPUS = "\n".join(f"{form}: {form}[P]" for form in "AEIOUY")


@pytest.fixture(scope="session")
def square_corpus():
    return parse_corpus(SQUARE_CORPUS)


@pytest.fixture(scope="session")
def hexagon_corpus():
    return parse_corpus(HEXAGON_CORPUS)


@pytest.fixture(scope="session")
def oracle_square(square_corpus):
    return build_graph(square_corpus, 2)


@pytest.fixture(scope="session")
def oracle_hexagon(hexagon_corpus):
    return build_graph(hexagon_corpus, 3)


@pytest.fixture()
def worked_square():
    return make_square_assignment(1, 2)


@pytest.fixture()
def worked_hexagon():
    return extend_hexagon(make_square_assignment(1, 2))


def matrix_strategy(predicates=("P", "Q")):
    atoms = st.sampled_from([Atom(p) for p in predicates])
    return st.recursive(
        atoms,
        lambda kids: st.one_of(
            st.builds(Not, kids),
            st.builds(And, kids, kids),
            st.builds(Or, kids, kids),
            st.builds(Implies, kids, kids),
        ),
        max_leaves=5,
    )


def sentence_strategy(predicates=("P", "Q")):
    quantified = st.builds(
        Quantified, st.sampled_from((FORALL, EXISTS)), matrix_strategy(predicates)
    )
    return st.recursive(
        quantified,
        lambda kids: st.one_of(
            st.builds(Not, kids),
            st.builds(And, kids, kids),
            st.builds(Or, kids, kids),
            st.builds(Implies, kids, kids),
        ),
        max_leaves=4,
    )


def pytest_runtest_logreport(report):
    # one visible pass/fail line per acceptance criterion
    if report.when == "call" and "test_acceptance" in report.nodeid:
        status = "PASS" if report.passed else "FAIL"
        name = report.nodeid.split("::")[-1]
        print(f"\n[acceptance] {name}: {status}")
