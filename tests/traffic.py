"""Which lines of the package no ordinary run executes: a line trace of its traffic.

Runs, in a temporary directory and under the standard library's
`trace.Trace(count=1, trace=0)`:
- `list-presets`, then the eight experiment presets at 6 replicates with
  `--workers 1`, and `local-bias` with each of its settings given as a flag
  and `--workers 2`;
- `simulate` (n = 20,000, seed 5) then `estimate` at (h', d) in
  {(4, 4), (3, 3), (0, 1)} on each of the four frontier families;
- one `cell_max_mean`, `cell_max_variance` and `cell_cdf` call per family,
  one `ks_statistic` of cell maxima against that family's `cell_cdf`, and
  one `ks_statistic` against each limit law.

It then prints, as `file:line: text`, each line of `src/haarfrontier` that
no run executed, leaving out the lines of `raise` statements: a branch
listed here serves none of that traffic. Run it from a checkout with

    python tests/traffic.py

pytest does not collect it, since its name does not start with `test_`.
It needs nothing beyond the package's own dependencies.
"""

import ast
import contextlib
import dis
import io
import sys
import tempfile
import trace
import types
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "haarfrontier"
FAMILIES = (
    "constant:a=1.0",
    "affine:a=1.0,b=0.5",
    "sine:a=1.0,b=0.25",
    "two_level:lo=0.8,hi=1.2,split=0.5",
)


def traffic(tmp: Path) -> None:
    """Every run the report covers; the package is imported here, so its module bodies count."""
    from haarfrontier import oracles
    from haarfrontier.cli import main
    from haarfrontier.experiments import PRESETS
    from haarfrontier.frontiers import parse_frontier
    from haarfrontier.process import PartitionConfig, cell_stats, simulate

    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["list-presets"]) == 0
        for name in PRESETS:
            argv = ["experiment", name, "--replicates", "6", "--workers", "1"]
            assert main([*argv, "--out", str(tmp / name)]) == 0
        assert main(["experiment", "local-bias", "--frontier", "affine:a=1.0,b=0.5", "--c", "2.0",
                     "--schedule", "2000:2:2;4000:2:2", "--replicates", "8", "--seed", "3",
                     "--x", "0.2", "--x", "0.7", "--workers", "2", "--out", str(tmp / "flagged")]) == 0
        for i, label in enumerate(FAMILIES):
            out = tmp / f"family-{i}"
            assert main(["simulate", "--frontier", label, "--n", "20000", "--seed", "5",
                         "--out", str(out)]) == 0
            for h_prime, d_n in ((4, 4), (3, 3), (0, 1)):
                assert main(["estimate", str(out / "sample.csv"), "--hprime", str(h_prime),
                             "--dn", str(d_n), "--out", str(out)]) == 0
    cfg = PartitionConfig(n=200, h_prime=2, d_n=2)
    for label in FAMILIES:
        f = parse_frontier(label)
        oracles.cell_max_mean(f, cfg, 3, 1.0)
        oracles.cell_max_variance(f, cfg, 3, 1.0)
        oracles.cell_cdf(f, cfg, 3, 1.0, np.linspace(0.0, 1.5, 7))
        maxima = [cell_stats(simulate(f, cfg.n, 1.0, s), cfg, f).x_star[2] for s in range(20)]
        oracles.ks_statistic(maxima, lambda u: oracles.cell_cdf(f, cfg, 3, 1.0, u))
    for law in oracles.VALID_LAWS:
        oracles.ks_statistic(np.linspace(-2.0, 2.0, 9), oracles.LimitLaw(law))


def executable_lines(code: types.CodeType) -> set:
    """The lines at which code, or any code nested in it, starts an instruction."""
    lines = {line for _, line in dis.findlinestarts(code) if line}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= executable_lines(const)
    return lines


def raise_lines(tree: ast.AST) -> set:
    return {
        line
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise)
        for line in range(node.lineno, node.end_lineno + 1)
    }


def main() -> int:
    sys.path.insert(0, str(SRC))
    tracer = trace.Trace(count=1, trace=0)
    with tempfile.TemporaryDirectory() as tmp:
        tracer.runfunc(traffic, Path(tmp))
    ran = {(Path(name).resolve(), line) for name, line in tracer.results().counts}
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        source = text.splitlines()
        missed = executable_lines(compile(text, str(path), "exec")) - raise_lines(ast.parse(text))
        for line in sorted(missed):
            if (path, line) not in ran:
                print(f"{path.relative_to(SRC)}:{line}: {source[line - 1].strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
