"""Run every preset in-process and print one line per preset:

    <name> <sha256 of its results.csv>

    python tools/preset_digest.py [--out DIR]

The outputs go to a temporary directory, or to DIR/<name>/ with --out, so
that two runs can be compared file by file. Two runs whose digests differ
wrote different bytes for the presets named on the differing lines. A
preset that fails prints its exit code in place of the digest, and the
tool then exits 1.
"""
import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from fgplate.cli import main as fgplate  # noqa: E402
from fgplate.config import PRESETS  # noqa: E402


def digests(out: Path):
    for name in sorted(PRESETS):
        with contextlib.redirect_stdout(io.StringIO()):
            code = fgplate(["presets", "run", name, "--out", str(out / name)])
        yield name, (hashlib.sha256((out / name / "results.csv").read_bytes()).hexdigest()
                     if code == 0 else f"exit {code}")


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="keep each preset's outputs in OUT/<name>/")
    args = parser.parse_args(argv)
    failed = 0
    with contextlib.ExitStack() as stack:
        out = Path(args.out or stack.enter_context(tempfile.TemporaryDirectory()))
        for name, digest in digests(out):
            print(name, digest, flush=True)
            failed += digest.startswith("exit")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
