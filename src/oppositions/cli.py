"""Command-line interface.

Subcommands: ``classify`` a pair of sentences, ``graph`` a corpus,
``encode`` a categorical corpus on an integer segment, and
``synthesize`` every encoding of a corpus within a magnitude bound.
This module parses arguments and prints.  One table, ``COMMANDS``, gives
each command's positionals, flags and the module of its handler:
``pairs`` (``classify``), ``corpus_commands`` (``graph``),
``construction`` (``encode``) or ``segment`` (``synthesize``);
``parse_args``, ``-h`` and ``main`` read it.  The argument parser, the
library and the input readers refuse with ``ValueError``, and ``main``
alone maps a refusal to its exit code.

Each subcommand imports only the modules it runs.  This module imports
only ``formula``, so ``-h`` and a refused argument compile no more; a
command adds ``parser`` and ``semantics``, ``classify`` ``pairs``, the
corpus commands ``corpus_commands`` and ``graph``, ``synthesize`` and
``encode`` ``segment``, ``encode`` ``construction``, structured output
``document`` and DOT output ``dot``.  No command imports ``reader``,
``json``, ``re``, ``argparse`` (with ``gettext`` and ``locale``),
``__future__`` or ``dataclasses``: records derive from ``formula.Record``.

Exit codes: 0 success, or ``-h`` anywhere; 1 synthesis found nothing (a
meaningful negative result); 2 an argument, parse or input error (a
closed stdin too), a character stdout's encoding cannot carry, an
``encode`` number line wider than ``construction.MAX_SEGMENT_COLUMNS``, a
``graph --format dot`` label ending in a backslash, or more synthesis
results than ``segment.MAX_SOLUTIONS``; 3 vocabulary mismatch
(``VocabularyMismatchError``); 4 a corpus or roles of a shape the command
or its clauses cannot take (``segment.ShapeError``); 5 verification
mismatch; 70 (EX_SOFTWARE) an exception other than ``ValueError``
escaped, which is a bug; 74 (EX_IOERR) stdout failed, say on a full
device or closed before start (``>&-``), with one ``error:`` line; 141
(128 + SIGPIPE) stdout closed before the payload was written, as under
``| head -1``, with nothing on stderr.  Handlers only compute their code
and payload, and ``main`` writes the payload once, so stdout carries a
payload only after the command has succeeded (exits 0, 1 and 5);
``_write_stdout`` alone maps a failed write or flush of stdout.
Diagnostics, and a ``note:`` when the oracle says ``--bound`` cut the
answer short, go to stderr, one line of at most ``MAX_LINE`` bytes
each; one that cannot be written, on a full device or a closed stderr
say, is dropped, and the exit code stays the same.

``main`` returns its exit code and never ends the process, so tests and
benchmarks call it in-process.  ``run`` is the one way in for
``python -m oppositions``, ``python -m oppositions.cli`` and the
``oppositions`` script: it calls ``main``, flushes stdout, and ends the
process with ``os._exit``, skipping interpreter teardown.  So ``atexit``
handlers, such as those a ``sitecustomize`` registers, do not run in a
CLI process.
"""

import os
import sys
from collections.abc import Sequence
from importlib import import_module
from types import SimpleNamespace

from .formula import A_LOW, UNIVERSAL_MAPS

EXIT_OK = 0
EXIT_NO_RESULTS = 1
EXIT_PARSE = 2
EXIT_VOCAB = 3
EXIT_SHAPE = 4
EXIT_MISMATCH = 5
EXIT_INTERNAL = 70
EXIT_IOERR = 74
EXIT_BROKEN_PIPE = 141
MAX_LINE = 1000  # bytes of a stderr line; a refusal can quote a whole operand


def _say(line: str, code: int) -> int:
    """Write one line to stderr, one longer than ``MAX_LINE`` bytes in its
    own encoding and error handler, which no codec import costs, as its head
    and tail around ``…``, or drop it if stderr fails; return the code."""
    try:
        if sys.stderr is not None:  # None when fd 2 was closed before start
            codec = sys.stderr.encoding or "utf-8", sys.stderr.errors or "backslashreplace"
            text, keep = line, MAX_LINE // 2
            while len(text.encode(*codec)) > MAX_LINE:  # a character is 1 to 10 bytes
                text, keep = line[: keep - 1] + "…" + line[-keep:], keep - 1
            print(text, file=sys.stderr, flush=True)
    except OSError:  # a full device, or a pipe whose reader has gone
        pass
    return code


def _note_if_cut_short(bound: int | None, cut: bool) -> None:
    if cut:
        _say(f"note: --bound {bound} is too small: some model needs {bound + 1} elements, "
             "so the answer may not be exact", EXIT_OK)


def _positive_int(text: str) -> int:
    if (value := int(text)) < 1:
        raise ValueError(f"must be at least 1, got {value}")
    return value


# command -> (help, positionals, flags, module); a flag is (name, destination,
# converter or tuple of choices, default), and is required if its default is
# _REQUIRED; the module defines the command's handler as _cmd_<command>, and
# main imports it only to run the command
_REQUIRED = object()
_BOUND = ("--bound", "bound", _positive_int, None)
_CORPUS = ("--corpus", "corpus", str, _REQUIRED)
_CLAUSES = ("--clauses", "clauses", ("square", "hexagon"), None)
_FORMAT = ("--format", "format", ("structured", "dot", "text"), "text")
COMMANDS = {
    "classify": ("classify the opposition between two sentences", ("a", "b"), (_BOUND,), "pairs"),
    "graph": ("build the opposition graph of a corpus", (), (_CORPUS, _BOUND, _FORMAT),
              "corpus_commands"),
    "encode": ("encode a categorical square or hexagon corpus on a segment", (), (
        _CORPUS, _CLAUSES, ("--q", "q", int, 1), ("--r", "r", int, 2),
        ("--map", "universal_map", UNIVERSAL_MAPS, A_LOW), _BOUND, _FORMAT,
    ), "construction"),
    "synthesize": ("search for segment encodings of a corpus graph", (), (
        _CORPUS, _CLAUSES, ("--magnitude", "magnitude", _positive_int, None), _BOUND,
        ("--format", "format", ("structured", "text"), "text"),
    ), "segment"),
}
_METAVARS = {str: "PATH|-", int: "INT", _positive_int: "N"}


def parse_args(argv: Sequence[str]) -> SimpleNamespace:
    """The command and each destination of ``argv``; raises ValueError on
    any refusal.  A flag's value may follow it or an ``=``, and may begin
    with one ``-``; the last of a repeated flag wins."""
    if not argv or argv[0] not in COMMANDS:
        found = f"unknown command {argv[0]!r}" if argv else "no command"
        raise ValueError(f"{found}; choose from {', '.join(COMMANDS)}")
    command, rest = argv[0], iter(argv[1:])
    _, names, rows, _ = COMMANDS[command]
    flags = {row[0]: row for row in rows}
    values = {dest: default for _, dest, _, default in rows}
    positionals = []
    for arg in rest:
        if not arg.startswith("--"):
            positionals.append(arg)
            continue
        flag, equals, text = arg.partition("=")
        if flag not in flags:
            raise ValueError(f"{command} has no flag {flag}")
        if not equals and ((text := next(rest, None)) is None or text.startswith("--")):
            raise ValueError(f"argument {flag}: expected a value")
        _, dest, kind, _ = flags[flag]
        if isinstance(kind, tuple) and text not in kind:
            raise ValueError(f"argument {flag}: invalid choice {text!r}, not {'|'.join(kind)}")
        try:
            values[dest] = text if isinstance(kind, tuple) else kind(text)
        except ValueError as err:
            raise ValueError(f"argument {flag}: {err}") from None
    if len(positionals) != len(names):
        raise ValueError(f"{command} takes {len(names)} positionals, got {len(positionals)}")
    for flag, dest, _, _ in rows:
        if values[dest] is _REQUIRED:
            raise ValueError(f"argument {flag} is required")
    return SimpleNamespace(command=command, **dict(zip(names, positionals)), **values)


def usage(command: str) -> str:
    """The ``-h`` text: a command's synopsis and help, or every command's."""
    lines = ["usage:"]
    for name in [command] if command in COMMANDS else COMMANDS:
        summary, names, rows, _ = COMMANDS[name]
        words = ["oppositions", name, *(n.upper() for n in names)]
        for flag, _, kind, default in rows:
            metavar = "|".join(kind) if isinstance(kind, tuple) else _METAVARS[kind]
            words.append(f"{flag} {metavar}" if default is _REQUIRED else f"[{flag} {metavar}]")
        lines += ["  " + " ".join(words), f"      {summary}"]
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        if "-h" in argv or "--help" in argv:
            code, payload = EXIT_OK, usage(argv[0])
        else:
            args = parse_args(argv)
            module = import_module(f".{COMMANDS[args.command][3]}", __package__)
            code, payload = getattr(module, f"_cmd_{args.command}")(args)
    except ValueError as err:  # a refusal of the input, by the library or a reader
        # main imports neither class: a command can raise one only once it has loaded its
        # module, semantics for any command past its arguments, segment for encode and synthesize
        loaded = sys.modules.get
        vocab_error = getattr(loaded(f"{__package__}.semantics"), "VocabularyMismatchError", ())
        shape_error = getattr(loaded(f"{__package__}.segment"), "ShapeError", ())
        code = EXIT_VOCAB if isinstance(err, vocab_error) else EXIT_PARSE
        return _say(f"error: {err}", EXIT_SHAPE if isinstance(err, shape_error) else code)
    except Exception as err:  # the last resort: a bug, never a traceback
        return _say(f"internal error: {err!r}", EXIT_INTERNAL)
    return _write_stdout(code, payload)


def _write_stdout(code: int, payload: str | None = None) -> int:
    """Print the payload, or with none flush stdout; return ``code``, or
    that of a failed write: 2 for a character the encoding cannot carry,
    141 quietly on a gone reader, else 74 with one ``error:`` line."""
    if sys.stdout is None:  # fd 1 was closed before start
        return _say("error: cannot write stdout: it is closed", EXIT_IOERR)
    try:
        if payload is None:
            sys.stdout.flush()
        else:  # print, whose separate newline write raises on a gone reader
            print(payload, flush=True)
        return code
    except UnicodeEncodeError as err:  # a ValueError that the output, not the input, raised
        text = err.object[err.start : err.end]
        return _say(f"error: stdout's encoding {err.encoding} cannot write {text!r}", EXIT_PARSE)
    except OSError as err:
        # point stdout at devnull, so that no later flush, at exit say, can fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if isinstance(err, BrokenPipeError):  # the reader is gone: exit quietly
            return EXIT_BROKEN_PIPE
        return _say(f"error: cannot write stdout: {err.strerror}", EXIT_IOERR)


def run() -> None:
    """Run ``main`` on ``sys.argv``, flush stdout and end the process with
    the code, without interpreter teardown; never returns.  A failed flush
    exits as a failed payload write does in ``main``; a stdout closed
    before start has nothing to flush, so a refusal keeps its code.  Stderr
    needs no flush: each diagnostic is flushed, or dropped, as written."""
    code = main()
    os._exit(code if sys.stdout is None else _write_stdout(code))


if __name__ == "__main__":
    # under python -m oppositions.cli, so that the handlers import this copy
    sys.modules.setdefault(f"{__package__}.cli", sys.modules[__name__])
    run()
