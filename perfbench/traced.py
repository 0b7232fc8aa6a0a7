"""Run the mmreach CLI in this process with every layer traced.

Usage: python3 perfbench/traced.py SPANS_JSON CLI_ARG...

Installs ``tracer.Tracer`` around the ``mmreach`` modules, calls
``mmreach.cli.main`` with the remaining arguments, writes the spans and
counters to SPANS_JSON and exits with the CLI's exit code.
"""

import sys

import mmreach.cli
import tracer


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    t = tracer.Tracer()
    t.install()
    code = mmreach.cli.main(cli_args)
    t.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
