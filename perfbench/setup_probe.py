"""Times one fresh interpreter's set-up, for ``setup_s``.

    python3 perfbench/setup_probe.py SRC_DIR MODULE PARSE CSV [CSV ...]
    python3 perfbench/setup_probe.py --reference

The first form imports the program and holds one workload's input in
memory. ``MODULE`` is the program module the workload's op needs:
``dpdfg``, or ``dpdfg.bench`` for the sweep, which also imports numpy. With
``PARSE`` 1 the CSVs are held as parsed event logs, as the sweep holds them;
with 0 as bytes. The second form is the reference: it imports a fixed list
of standard-library modules and numpy, work the program cannot change.

Either prints the wall seconds it took. The clock starts before any module
is imported that the interpreter did not load at start-up, so the time
covers every standard-library and third-party module the program pulls in.
``run.py`` starts both forms in turn, several times per run, and rescales
each set-up by the reference that ran next to it. ``worker.py`` reuses
:func:`load_input`, untimed.
"""
import sys
import time

REFERENCE = (
    "csv", "dataclasses", "datetime", "enum", "hashlib", "io", "json", "math", "random", "re",
    "statistics", "typing", "pathlib", "concurrent.futures", "xml.etree.ElementTree", "numpy",
)


def load_input(module: str, parse: bool, paths: list[str]) -> list:
    """Import ``module`` and return the inputs, as bytes or parsed."""
    __import__(module)
    data = []
    for path in paths:
        with open(path, "rb") as fh:
            data.append(fh.read())
    if parse:
        parse_csv = sys.modules["dpdfg.eventlog"].parse_csv
        data = [parse_csv(raw) for raw in data]
    return data


def main() -> int:
    started = time.perf_counter()
    if sys.argv[1:] == ["--reference"]:
        for name in REFERENCE:
            __import__(name)
    else:
        src, module, parse, *paths = sys.argv[1:]
        sys.path.insert(0, src)
        load_input(module, parse == "1", paths)
    print(time.perf_counter() - started)
    return 0


if __name__ == "__main__":
    sys.exit(main())
