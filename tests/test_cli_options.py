"""Every subcommand's options: their strings, defaults and types.

The table below is the CLI's public surface. A change that moves a flag
between subcommands, renames it, or changes its default or type fails
here; a change that only rewords help text does not.
"""

import argparse

from repro.cli import build_parser
from repro.workloads.catalog import CHALLENGING_SUITES, SIMPLE_SUITES

#: (subcommand path) -> {option string or positional dest: (default, type)}.
EXPECTED = {
    '': {
        '--cap': (None, 'int'),
        '--jobs': (1, 'int'),
        '--no-cache': (False, None),
        '--cache-dir': (None, None),
        '--inject-faults': (None, None),
        '--fault-seed': (0, 'int'),
        '--quiet-diagnostics': (False, None),
        '--trace-out': (None, None),
        '--stream-spans': (None, None),
    },
    'attribute': {
        'workload': (None, None),
        '--theta': (0.4, 'float'),
        '--methods': ('sieve,pks', None),
        '--top': (8, 'int'),
        '--json': (None, None),
        '--from-manifest': (None, None),
    },
    'cache': {
        'cache_command': ('stats', None),
    },
    'compare': {
        'workloads': (None, None),
        '--theta': (0.4, 'float'),
        '--methods': ('sieve,pks', None),
    },
    'fig10': {
    },
    'fig2': {
    },
    'fig3': {
    },
    'fig5': {
    },
    'fig7': {
    },
    'fig8': {
    },
    'fig9': {
    },
    'fuzz': {
        '--seed': ('sieve-fuzz', None),
        '--budget': (32, 'int'),
        '--threshold': (0.12, 'float'),
        '--top-k': (3, 'int'),
        '--max-invocations': (2000, 'int'),
        '--fault-rate': (0.35, 'float'),
        '--chaos': (None, None),
        '--shrink-steps': (24, 'int'),
        '--deadline': (120.0, 'float'),
        '--max-attempts': (3, 'int'),
        '--out': ('fuzz-out', None),
        '--resume': (False, None),
        '--stop-after': (None, 'int'),
        '--verify-suite': (False, None),
    },
    'fuzz promote': {
        '--findings': (None, None),
        '--catalog': (None, None),
        '--limit': (0, 'int'),
        '--min-score': (0.0, 'float'),
    },
    'loadgen': {
        '--host': ('127.0.0.1', None),
        '--port': (None, 'int'),
        '--spawn': (False, None),
        '--pattern': ('poisson:50', None),
        '--requests': (64, 'int'),
        '--clients': (8, 'int'),
        '--seed': (0, 'int'),
        '--workloads': (None, None),
        '--methods': ('sieve,pks', None),
        '--predict-fraction': (0.5, 'float'),
        '--open-loop': (False, None),
        '--timeout-s': (60.0, 'float'),
        '--trace': (None, None),
        '--record': (None, None),
        '--dry-run': (False, None),
        '--bench-out': (None, None),
    },
    'methods': {
        'methods_command': ('list', None),
    },
    'perf': {
    },
    'perf bisect-hint': {
        '--store': (None, None),
        '--figure': ('fig3', None),
        '--metric': ('total', None),
        '--alpha': (0.05, 'float'),
        '--min-ratio': (1.1, 'float'),
        '--min-seconds': (0.02, 'float'),
    },
    'perf ingest': {
        'manifests': (None, None),
        '--figure': (None, None),
        '--version': (None, None),
        '--store': (None, None),
    },
    'perf list': {
        '--store': (None, None),
    },
    'perf log': {
        '--store': (None, None),
        '--figure': ('fig3', None),
        '--metric': ('total', None),
        '--limit': (0, 'int'),
    },
    'report': {
        'manifests': (None, None),
        '--max-slowdown': (1.25, 'float'),
        '--against': (None, None),
        '--store': (None, None),
        '--figure': (None, None),
        '--alpha': (0.05, 'float'),
        '--min-ratio': (1.1, 'float'),
        '--min-seconds': (0.05, 'float'),
        '--verbose': (False, None),
    },
    'sample': {
        'workload': (None, None),
        '--theta': (0.4, 'float'),
        '--method': (None, None),
        '--stream': (False, None),
        '--chunk-rows': (4096, 'int'),
        '--reservoir': (None, 'int'),
        '--from': (None, None),
        '--format': (None, None),
        '--verbose': (False, None),
    },
    'serve': {
        '--host': ('127.0.0.1', None),
        '--port': (8712, 'int'),
        '--deadline-s': (120.0, 'float'),
    },
    'simulate': {
        'directory': (None, None),
        '--sms': (2, 'int'),
    },
    'table1': {
    },
    'table2': {
    },
    'trace': {
    },
    'trace export': {
        'workload': (None, None),
        '--format': ('chrome', None),
        '--out': (None, None),
        '--structural': (False, None),
        '--theta': (0.4, 'float'),
        '--methods': ('sieve,pks', None),
        '--from-manifest': (None, None),
    },
    'trace selection': {
        'workload': (None, None),
        '--out': ('traces', None),
        '--theta': (0.4, 'float'),
        '--limit': (None, 'int'),
        '--max-warps': (16, 'int'),
        '--max-insns': (512, 'int'),
    },
    'validate': {
        'csv': (None, None),
        '--repair': (None, None),
        '--limit': (50, 'int'),
    },
}


def options(parser: argparse.ArgumentParser, path: tuple[str, ...] = ()) -> dict:
    """Each (sub)parser's options, keyed by its space-joined command path."""
    found, rows = {}, {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                found.update(options(sub, path + (name,)))
        elif not isinstance(action, argparse._HelpAction):
            key = "/".join(action.option_strings) or action.dest
            rows[key] = (action.default, getattr(action.type, "__name__", None))
    found[" ".join(path)] = rows
    return found


def test_every_subcommand_keeps_its_option_strings_defaults_and_types():
    assert options(build_parser()) == EXPECTED


def test_fig3_and_fig8_are_compare_on_preset_suites():
    parser = build_parser()
    for command, suites in (("fig3", CHALLENGING_SUITES), ("fig8", SIMPLE_SUITES)):
        args = parser.parse_args([command])
        assert (args.workloads, args.theta, args.methods, args.suites) == (
            [], 0.4, "sieve,pks", suites,
        )
        assert args.handler is parser.parse_args(["compare"]).handler
