"""Run the fusionsampler CLI with the outside-in tracer installed.

    python3 perfbench/traced_cli.py SPANS_JSON run --config C --mode M --out O

Everything after SPANS_JSON is passed to fusionsampler's own main(). The
spans are written to SPANS_JSON when main returns; the exit code is main's.
"""

import sys

from fusionsampler import cli

from tracer import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    rc = cli.main(argv)
    tracer.dump(spans_path)
    return rc


if __name__ == "__main__":
    sys.exit(main())
