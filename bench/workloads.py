"""Seeded input generator for the four benchmark workloads.

Each workload is a fixed recipe of CLI invocations whose content (predicate
names, matrices, representations, line order, magnitudes) is drawn from
``random.Random(seed)``, so one seed always gives the same inputs.  The
expected answer of every invocation comes from ``reference``, never from
the package under test.

The recipes are fixed per workload so that the cost of an invocation
varies little from seed to seed; only the content changes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import reference as ref

WORKLOADS = ("graph-wide", "classify-k3", "synth-hexagon", "cli-readme")

# Seconds an invocation may run before it is killed and counted undecided:
# roughly ten times its usual time on a 2-CPU machine.
TIME_LIMITS = {"graph-wide": 15.0, "classify-k3": 5.0, "synth-hexagon": 10.0, "cli-readme": 5.0}

CLASSIFY_BOUND = 4
# Many small corpora rather than a few large ones: the median then averages
# over more generated content, so it moves less from seed to seed.
GRAPH_CORPORA = 16
# Three searches of similar cost today.  With three equal groups the
# median falls inside the middle group, never on the edge between two.
SYNTH_CLAUSES = (("square", 8), ("hexagon", 14), ("hexagon", 16)) * 3

_PREDICATE_NAMES = ("P", "Q", "R", "S", "F", "G", "H", "Bird", "Flies", "Red", "Round", "Metal")
_REPRESENTATIONS = ("mixed", "universal-only", "existential-only")


@dataclass(frozen=True)
class Invocation:
    """One CLI call: its arguments, expected exit code and expected answer.

    ``expected`` is a relation text (classify), a ``{pair: relation}``
    graph (graph, encode --format dot), a ``{label: value}`` assignment
    (encode text), or a set of solutions (synthesize).  ``relations``
    lists the reference relation kind of every pair the call asks the
    oracle to classify.
    """

    argv: tuple[str, ...]
    expected_exit: int
    expected: object
    relations: tuple[str, ...]


@dataclass
class Workload:
    name: str
    seed: int
    invocations: list[Invocation]
    # One 3-predicate pair for the default-bound probe of the traced run.
    k3_pair: tuple[str, str]
    files: dict[str, str]

    @property
    def time_limit(self) -> float:
        return TIME_LIMITS[self.name]

    def relation_mix(self) -> dict[str, int]:
        mix = dict.fromkeys(ref.RELATION_KINDS, 0)
        for inv in self.invocations:
            for kind in inv.relations:
                mix[kind] += 1
        return mix


# --- printing generated trees in the README syntax ----------------------------
#
# Trees use the reference's tuple shapes plus ("sugar", form, predicate).
# Parentheses are as few as the precedence ~ > & > | > -> allows, so the
# outputs depend on the README's precedence rules.  A quantified sentence
# is parenthesised whenever it is an operand, because its body extends as
# far as possible.

_LEVEL = {"implies": 1, "or": 2, "and": 3, "not": 4}
_SYMBOL = {"implies": "->", "or": "|", "and": "&"}


def _show(tree, floor: int) -> str:
    tag = tree[0]
    if tag == "atom":
        return f"{tree[1]}(x)"
    if tag == "sugar":
        return f"{tree[1]}[{tree[2]}]"
    if tag in ("forall", "exists"):
        text = f"{tag} x. {_show(tree[1], 0)}"
        return f"({text})" if floor > 0 else text
    if tag == "not":
        return "~" + _show(tree[1], _LEVEL["not"])
    level = _LEVEL[tag]
    text = f"{_show(tree[1], level)} {_SYMBOL[tag]} {_show(tree[2], level + 1)}"
    return f"({text})" if level < floor else text


def show(tree) -> str:
    return _show(tree, 0)


# --- random material ------------------------------------------------------------


def _matrix(rng: random.Random, preds, atoms: int):
    """A random matrix with ``atoms`` leaves that mentions every predicate."""
    leaves = list(preds) + [rng.choice(preds) for _ in range(atoms - len(preds))]
    rng.shuffle(leaves)

    def build(names):
        if len(names) == 1:
            node = ("atom", names[0])
        else:
            cut = rng.randrange(1, len(names))
            op = rng.choice(("and", "and", "or", "or", "implies"))
            node = (op, build(names[:cut]), build(names[cut:]))
        return ("not", node) if rng.random() < 0.3 else node

    return build(leaves)


def _quantified(rng, preds, atoms):
    return (rng.choice(("forall", "exists")), _matrix(rng, preds, atoms))


def _quantifiers(text: str) -> int:
    return ref.quantifier_count(ref.parse_sentence(text))


def _names(rng: random.Random, k: int) -> tuple[str, ...]:
    return tuple(rng.sample(_PREDICATE_NAMES, k))


# --- categorical corpora ----------------------------------------------------------


def _categorical(form: str, pred: str, representation: str):
    atom = ("atom", pred)
    mixed = {
        "A": ("forall", atom),
        "E": ("forall", ("not", atom)),
        "I": ("exists", atom),
        "O": ("exists", ("not", atom)),
    }
    if representation == "mixed":
        return mixed[form]
    dual = {"A": "O", "E": "I", "I": "E", "O": "A"}
    keep = "forall" if representation == "universal-only" else "exists"
    if mixed[form][0] == keep:
        return mixed[form]
    return ("not", mixed[dual[form]])


def categorical_corpus(rng: random.Random, forms: str) -> str:
    """A square (AEIO) or hexagon (AEIOUY) corpus in shuffled line order.

    Each of A, E, I, O takes a random quantifier representation; U and Y
    are written as the literal disjunction and conjunction of those lines,
    as the CLI's shape check requires.
    """
    pred = rng.choice(_PREDICATE_NAMES)
    trees = {f: _categorical(f, pred, rng.choice(_REPRESENTATIONS)) for f in "AEIO"}
    lines = {f: show(t) for f, t in trees.items()}
    if "U" in forms:
        lines["U"] = show(("or", trees["A"], trees["E"]))
        lines["Y"] = show(("and", trees["I"], trees["O"]))
    order = list(forms)
    rng.shuffle(order)
    return "".join(f"{f}: {lines[f]}\n" for f in order)


def _checked_paper_graph(text: str, paper: dict) -> dict:
    graph = ref.corpus_graph(text)
    if graph != paper:
        raise AssertionError(f"reference disagrees with the paper's graph on:\n{text}")
    return paper


# --- the workloads -------------------------------------------------------------------


def _graph_corpus(rng: random.Random) -> str:
    """Twelve sentences over two predicates, at most two quantifiers each.

    Base sentences and their negations carry one quantifier; conjunctions,
    disjunctions and implications of corpus sentences, and U/Y sugar,
    carry two.  So every pair has at most four quantifier occurrences,
    the default bound at k = 2.
    """
    preds = _names(rng, 2)
    base = [_quantified(rng, preds, 2) for _ in range(4)]
    base.append(("sugar", rng.choice("AEIO"), rng.choice(preds)))
    singles = base + [("not", t) for t in rng.sample(base, 2)]
    sentences = list(singles)
    for op in ("and", "or", "implies"):
        left, right = rng.sample(singles, 2)
        sentences.append((op, left, right))
    sentences += [("sugar", "U", preds[0]), ("sugar", "Y", preds[1])]
    rng.shuffle(sentences)
    return "".join(f"s{i:02d}: {show(t)}\n" for i, t in enumerate(sentences))


def _k3_pairs(rng: random.Random) -> list[tuple[str, str]]:
    """Pairs over three predicates with at most four quantifiers in total.

    Each template names the relation it aims at; its matrices are drawn
    again until the reference agrees, so every seed covers every kind.
    The compound templates take whatever relation they get.
    """
    preds = _names(rng, 3)

    def m():
        return _matrix(rng, preds, 3)

    def q():
        return _quantified(rng, preds, 3)

    def neg(phi):
        return ("not", phi)

    templates = (
        ("contradictory", lambda p, s: (("forall", p), ("exists", neg(p)))),
        ("contrary", lambda p, s: (("forall", p), ("forall", neg(p)))),
        ("subcontrary", lambda p, s: (("exists", p), ("exists", neg(p)))),
        ("subaltern", lambda p, s: (("forall", s), ("exists", s))),
        ("equivalent", lambda p, s: (("forall", s), ("not", ("exists", neg(s))))),
        (None, lambda p, s: (("and", ("forall", p), ("exists", s)), ("exists", s))),
        (None, lambda p, s: (("or", q(), q()), ("and", ("not", q()), q()))),
        (None, lambda p, s: (("or", ("and", ("not", q()), q()), q()), q())),  # ~ > & > |
        (None, lambda p, s: (("implies", q(), q()), ("forall", s))),
        ("unconnected", lambda p, s: (q(), q())),
    )
    pairs = []
    for _ in range(2):
        for target, make in templates:
            while True:
                a, b = (show(t) for t in make(m(), m()))
                if target is None or ref.relation_kind(ref.classify_texts(a, b)) == target:
                    break
            pairs.append((a, b))
    return pairs


def _classify(a: str, b: str, bound: int | None) -> Invocation:
    if bound is not None and _quantifiers(a) + _quantifiers(b) > bound:
        raise AssertionError(f"pair exceeds bound {bound}: {a!r} / {b!r}")
    expected = ref.classify_texts(a, b)
    argv = ("classify", a, b) + (("--bound", str(bound)) if bound is not None else ())
    return Invocation(argv, 0, expected, (ref.relation_kind(expected),))


def _graph_invocation(path: Path, fmt: str, expected: dict) -> Invocation:
    relations = tuple(ref.relation_kind(r) for r in expected.values())
    return Invocation(("graph", "--corpus", str(path), "--format", fmt), 0, expected, relations)


def _synth_invocation(path: Path, clauses: str, magnitude: int) -> Invocation:
    solutions = ref.hexagon_solutions(magnitude) if clauses == "hexagon" else set()
    argv = ("synthesize", "--corpus", str(path), "--clauses", clauses, "--magnitude", str(magnitude))
    relations = tuple(ref.relation_kind(r) for r in ref.PAPER_HEXAGON.values())
    return Invocation(argv, 0 if solutions else 1, solutions, relations)


def _write(workdir: Path, files: dict, name: str, text: str) -> Path:
    path = workdir / name
    path.write_text(text, encoding="utf-8")
    files[name] = text
    return path


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Generate the inputs of one workload into ``workdir``."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    rng = random.Random(f"{name}/{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    files: dict[str, str] = {}
    invocations: list[Invocation] = []

    k3_pair = _k3_pairs(random.Random(f"k3-probe/{seed}"))[0]

    if name == "graph-wide":
        for i in range(GRAPH_CORPORA):
            text = _graph_corpus(rng)
            path = _write(workdir, files, f"wide{i}.corpus", text)
            invocations.append(_graph_invocation(path, "structured", ref.corpus_graph(text)))
    elif name == "classify-k3":
        invocations = [_classify(a, b, CLASSIFY_BOUND) for a, b in _k3_pairs(rng)]
    elif name == "synth-hexagon":
        for i, (clauses, magnitude) in enumerate(SYNTH_CLAUSES):
            text = categorical_corpus(rng, "AEIOUY")
            _checked_paper_graph(text, ref.PAPER_HEXAGON)
            path = _write(workdir, files, f"hexagon{i}.corpus", text)
            invocations.append(_synth_invocation(path, clauses, magnitude))
    else:
        invocations = _readme_invocations(rng, workdir, files)
    return Workload(name, seed, invocations, k3_pair, files)


def _readme_invocations(rng: random.Random, workdir: Path, files: dict) -> list[Invocation]:
    """The README's commands, with seeded predicates, forms and magnitudes."""
    pred = rng.choice(_PREDICATE_NAMES)
    contradictory = rng.choice((("A", "O"), ("O", "A"), ("E", "I"), ("I", "E")))
    subaltern = rng.choice((("A", "I"), ("I", "A"), ("E", "O"), ("O", "E")))
    square_text = categorical_corpus(rng, "AEIO")
    hexagon_text = categorical_corpus(rng, "AEIOUY")
    _checked_paper_graph(square_text, ref.PAPER_SQUARE)
    _checked_paper_graph(hexagon_text, ref.PAPER_HEXAGON)
    square = _write(workdir, files, "square.corpus", square_text)
    hexagon = _write(workdir, files, "hexagon.corpus", hexagon_text)

    q, r = sorted(rng.sample(range(1, 6), 2))
    a_high = rng.random() < 0.5
    va, ve = (r, q) if a_high else (q, r)
    values = {"A": va, "E": ve, "I": -ve, "O": -va, "U": va + ve, "Y": -va - ve}
    encode_hexagon = ("encode", "--corpus", str(hexagon), "--q", str(q), "--r", str(r))
    if a_high:
        encode_hexagon += ("--map", "a-high")
    square_kinds = tuple(ref.relation_kind(x) for x in ref.PAPER_SQUARE.values())
    hexagon_kinds = tuple(ref.relation_kind(x) for x in ref.PAPER_HEXAGON.values())
    return [
        _classify(f"{contradictory[0]}[{pred}]", f"{contradictory[1]}[{pred}]", None),
        _classify(f"{subaltern[0]}[{pred}]", f"{subaltern[1]}[{pred}]", None),
        _graph_invocation(square, "dot", ref.PAPER_SQUARE),
        Invocation(encode_hexagon, 0, values, hexagon_kinds),
        Invocation(
            ("encode", "--corpus", str(square), "--q", str(q), "--r", str(r), "--format", "dot"),
            0,
            ref.PAPER_SQUARE,
            square_kinds,
        ),
        _synth_invocation(hexagon, "square", 6),
        _synth_invocation(hexagon, "hexagon", 6),
    ]
