import hashlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import bench_pairs  # noqa: E402


def result(**values):
    """A ``bench/run.py`` result line holding only the given metrics."""
    return {"metrics": {name: {"value": value, "unit": "s"} for name, value in values.items()}}


def spec(better):
    return {"name": "verdict_p50_x", "unit": "x", "better": better, "bound": 0.15}


class TestSummary:
    def test_median_quartiles_and_runs(self):
        runs = [5.0, 1.0, 4.0, 2.0, 3.0]
        assert bench_pairs.summary(runs) == {"median": 3.0, "q1": 2.0, "q3": 4.0, "runs": runs}

    def test_even_count_interpolates(self):
        assert bench_pairs.summary([1.0, 2.0, 3.0, 4.0]) == {
            "median": 2.5, "q1": 1.75, "q3": 3.25, "runs": [1.0, 2.0, 3.0, 4.0],
        }


class TestCompare:
    # pair by pair: the change is better, tied, worse, better under lower-is-better
    PARENT = [1.0, 2.0, 3.0, 4.0]
    CHANGE = [0.5, 2.0, 4.0, 3.0]

    def runs(self):
        return {
            "parent": [result(verdict_p50_x=v) for v in self.PARENT],
            "change": [result(verdict_p50_x=v) for v in self.CHANGE],
        }

    @pytest.mark.parametrize("better,won", [("lower", 2), ("higher", 1)])
    def test_pairs_won_ignores_ties(self, better, won):
        assert bench_pairs.compare(spec(better), self.runs())["pairs_won"] == won

    def test_both_sides_summarised_next_to_the_bound(self):
        compared = bench_pairs.compare(spec("lower"), self.runs())
        assert (compared["unit"], compared["better"], compared["bound"]) == ("x", "lower", 0.15)
        assert compared["parent"] == bench_pairs.summary(self.PARENT)
        assert compared["change"] == bench_pairs.summary(self.CHANGE)


class TestTracedSummary:
    def test_each_metric_over_the_runs(self):
        seconds = [0.01 * i for i in range(1, 11)]
        results = [result(**{"cli.import_s": s, "parser.sentences": 4.0}) for s in seconds]
        traced = bench_pairs.traced_summary(results)
        assert list(traced) == ["cli.import_s", "parser.sentences"]
        assert traced["cli.import_s"] == bench_pairs.summary(seconds)
        assert traced["parser.sentences"] == {
            "median": 4.0, "q1": 4.0, "q3": 4.0, "runs": [4.0] * 10,
        }


class TestOrder:
    def test_first_side_alternates(self):
        assert [bench_pairs.order(i) for i in range(3)] == [
            ("parent", "change"), ("change", "parent"), ("parent", "change"),
        ]


class TestModuleLines:
    def test_each_package_module_by_newlines(self, tmp_path):
        package = tmp_path / "src" / "oppositions"
        package.mkdir(parents=True)
        (package / "graph.py").write_bytes(b"a\nb\n")
        (package / "cli.py").write_bytes(b"x = 1\n\ny = 2")  # no final newline
        (package / "notes.txt").write_text("not a module\n")
        (package / "sub").mkdir()
        (package / "sub" / "deep.py").write_text("skipped\n")
        assert bench_pairs.module_lines(tmp_path) == {"cli.py": 2, "graph.py": 2}


class TestClassifyPathLines:
    def test_modules_the_classify_run_loads(self, tmp_path):
        package = tmp_path / "src" / "oppositions"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text("")
        (package / "__main__.py").write_text("from . import cli\n\ncli.run()\n")
        (package / "cli.py").write_text(
            "import sys\n\ndef run():\n    from . import graph\n    assert sys.argv[1:] == "
            "['classify', 'A[P]', 'O[P]']\n"
        )
        (package / "graph.py").write_text("x = 1\n")
        (package / "segment.py").write_text("never loaded\n" * 50)
        assert bench_pairs.classify_path_lines(tmp_path) == 0 + 3 + 5 + 1


class TestCommandPathLines:
    def test_each_workload_command_with_its_corpus(self, tmp_path):
        # as in the package, "from . import name" finds a submodule through
        # __getattr__ and import_module, which -X importtime does not name
        package = tmp_path / "src" / "oppositions"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text(
            "from importlib import import_module\n\ndef __getattr__(name):\n"
            "    return import_module(f'.{name}', __name__)\n"
        )
        (package / "__main__.py").write_text("from . import cli\n\ncli.run()\n")
        (package / "cli.py").write_text(
            "import sys\n\ndef run():\n    command, *rest = sys.argv[1:]\n"
            "    if '--corpus' in rest:\n"
            "        assert open(rest[rest.index('--corpus') + 1]).read().startswith('A: A[P]')\n"
            "    if command != 'classify':\n        from . import graph\n"
            "    if command == 'synthesize':\n        from . import segment\n"
        )
        (package / "graph.py").write_text("x = 1\n" * 10)
        (package / "segment.py").write_text("y = 2\n" * 100)
        (package / "document.py").write_text("never loaded\n" * 1000)
        counted = {
            workload: bench_pairs.command_path_lines(tmp_path, *command)
            for workload, command in bench_pairs.WORKLOAD_COMMANDS.items()
        }
        assert counted == {"classify-k3": 4 + 3 + 10, "graph-wide": 17 + 10, "synth-hexagon": 127}
        assert bench_pairs.classify_path_lines(tmp_path) == counted["classify-k3"]


class TestOracleInputs:
    def test_corpus_is_seeded_k4_with_three_leaves_a_line(self):
        text = bench_pairs.oracle_corpus()
        assert text == bench_pairs.oracle_corpus(1, 60, 3) != bench_pairs.oracle_corpus(2)
        lines = text.splitlines()
        assert [line.split(":")[0] for line in lines] == [f"s{i}" for i in range(60)]
        for line in lines:
            assert line.count("forall x.") + line.count("exists x.") == 3
        letters = {c for c in text if c.isupper()}
        assert letters == {"P", "Q", "R", "S"}

    def test_large_corpus_extends_the_default_one(self):
        # the same seed draws the same first 60 sentences, then 60 more
        large = bench_pairs.oracle_corpus(sentences=bench_pairs.ORACLE_LARGE)
        assert large.startswith(bench_pairs.oracle_corpus())
        assert len(large.splitlines()) == 120

    def test_wide_pair_splits_distinct_three_cell_leaves(self):
        a, b = bench_pairs.wide_pair()
        assert (a, b) == bench_pairs.wide_pair(1, 16, 5) != bench_pairs.wide_pair(2)
        leaves = a.split(" & (exists") + b.split(" | (exists")
        assert len(leaves) == len(set(leaves)) == 16
        assert a.count("exists x.") == b.count("exists x.") == 8
        for leaf in leaves:
            assert leaf.count("P0(x)") == 3 and "P5" not in leaf


class TestOracleS:
    def test_one_child_times_each_call(self, tmp_path):
        # a fake package that records each call in the tree the child runs in
        package = tmp_path / "src" / "oppositions"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text(
            "def log(*fields):\n"
            "    with open('calls.txt', 'a') as f:\n"
            "        print(*fields, file=f)\n\n"
            "def parse_corpus(text):\n"
            "    log('corpus', len(text.splitlines()))\n    return 'c'\n\n"
            "def parse_sentence(text):\n"
            "    log('sentence', text.count('exists'))\n    return text\n\n"
            "class Relation:\n    def text(self):\n        return 'r'\n\n"
            "class Graph:\n    def pairs(self):\n        return [('x', 'y', Relation())]\n\n"
            "def build_graph(corpus, bound):\n    log('graph', corpus, bound)\n"
            "    return Graph()\n\n"
            "def classify(a, b, bound):\n    log('classify', bound)\n"
        )
        timed = bench_pairs.oracle_s(tmp_path)
        assert list(timed) == [
            "build_graph_60x3", "classify_wide_pair", "build_graph_120x3", "graph_sha256",
        ]
        assert list(timed["build_graph_60x3"]) == ["none", "2", "5", "8"]
        assert list(timed["build_graph_120x3"]) == ["none"]
        seconds = [
            *timed["build_graph_60x3"].values(), timed["classify_wide_pair"],
            timed["build_graph_120x3"]["none"],
        ]
        assert all(isinstance(s, float) and s >= 0 for s in seconds)
        # each graph built with no bound, by the digest of its text lines
        digest = hashlib.sha256(b"x y r").hexdigest()
        assert timed["graph_sha256"] == {"60x3": digest, "120x3": digest}
        calls = (tmp_path / "calls.txt").read_text().splitlines()
        assert calls == (
            ["corpus 60", "sentence 8", "sentence 8"]
            + [f"graph c {n}" for n in ("None", 2, 5, 8) for _ in range(3)]
            + ["classify 5"] * 3
            + ["corpus 120"] + ["graph c None"] * 3
        )


class TestOracleSOnThisCheckout:
    # the digests that BENCH_24.json accepted for both sides, where the walk
    # built the parent's graphs and the closure the change's
    ACCEPTED = {
        "60x3": "9819dc61f5ab287fbf6f316793f81f57e6d770ce87561edefeab45e88f188c7f",
        "120x3": "2f0ce5856cadcca136b78c9a163cc8a5856b2a56e1bc5cb05ee40d8c039ef30f",
    }

    def test_unbounded_graphs_are_the_accepted_ones(self):
        timed = bench_pairs.oracle_s(Path(__file__).resolve().parents[2])
        assert timed["graph_sha256"] == self.ACCEPTED
