"""Run one `flatwall` command with the tracer installed.

Used by traced runs of the benchmark in place of `python -m flatwall.cli`:

    python -X importtime perfbench/cli_child.py SUMMARY.json <command> ...

The span summary is written to SUMMARY.json when the command exits.
"""
import json
import sys

import tracing


def main():
    out_path = sys.argv[1]
    sys.argv = ["flatwall"] + sys.argv[2:]
    import flatwall.cli
    tracer = tracing.Tracer()
    tracer.install()
    try:
        flatwall.cli.main()
    finally:
        tracer.uninstall()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)


if __name__ == "__main__":
    main()
