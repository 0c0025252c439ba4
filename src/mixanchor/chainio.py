"""CSV tables: the chain format, and the one writer every CLI table goes through.

Tables are headered, UTF-8, '.'-decimal, one row per draw or grid point.
Floats are written with repr-level precision so that a table round-trips
through CSV bit-for-bit and identical runs produce byte-identical files.
A chain's columns are ``iteration``, then ``Chain.columns()`` (the order of
``sampler.CHAIN_FIELDS``), then one ``acc_<block>`` flag per sampler block.
"""

from __future__ import annotations

import csv
import io

import numpy as np

from .sampler import CHAIN_FIELDS, Chain

__all__ = ["CHAIN_FORMAT_VERSION", "write_table", "chain_table", "chain_to_csv", "chain_from_csv"]

CHAIN_FORMAT_VERSION = 1


def _write_rows(handle, columns, integers) -> None:
    cells = [
        map(str, np.asarray(values, dtype=np.int64).tolist())
        if name in integers
        else map(repr, np.asarray(values, dtype=float).tolist())
        for name, values in columns
    ]
    writer = csv.writer(handle)
    writer.writerow([name for name, _ in columns])
    writer.writerows(zip(*cells))


def write_table(path, columns, integers=()) -> None:
    """Write ``(name, 1-d values)`` pairs as CSV columns; those named in ``integers`` as ints."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        _write_rows(handle, columns, integers)


def chain_table(chain: Chain) -> str:
    """The CSV text of ``chain``, as :func:`write_table` writes its columns."""
    accepts = [(f"acc_{name}", flags) for name, flags in chain.accepts.items()]
    columns = [("iteration", chain.iterations), *chain.columns(), *accepts]
    text = io.StringIO()
    _write_rows(text, columns, integers={"iteration", "phi_sign", *dict(accepts)})
    return text.getvalue()


def chain_to_csv(chain: Chain, path, table: str | None = None) -> None:
    """Write ``chain`` to ``path``; ``table`` is its :func:`chain_table` text, if
    it was rendered already (a fit renders each chain where it was sampled)."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(chain_table(chain) if table is None else table)


def chain_from_csv(path, family: str | None = None, burn_in: int = 0) -> Chain:
    """Rebuild a chain from its CSV.

    A chain with a ``mu`` column is Gaussian.  ``poisson`` and
    ``exponential`` chains share one schema, so a rate chain read without
    ``family`` is refused: pass it explicitly or read it from the run manifest.
    A ``family`` that the columns contradict is refused too.
    """
    with open(path, encoding="utf-8") as handle:
        header = handle.readline().rstrip("\n").split(",")
        lines = [line for line in handle if not line.isspace()]
    if not lines:
        raise ValueError(f"no draws in {path}")
    rows = np.loadtxt(lines, delimiter=",", ndmin=2)
    if type(burn_in) is not int or not 0 <= burn_in < len(rows):
        raise ValueError(f"{path} holds {len(rows)} draws: the burn-in must be an integer "
                         f"in [0, {len(rows)}), got {burn_in!r}")
    where = {name: i for i, name in enumerate(header)}

    def field(name, prefix):
        if prefix is None:
            return np.ascontiguousarray(rows[:, where[name]]) if name in where else None
        idx = []
        while f"{prefix}{len(idx) + 1}" in where:
            idx.append(where[f"{prefix}{len(idx) + 1}"])
        return np.ascontiguousarray(rows[:, idx]) if idx else None

    fields = {name: field(name, prefix) for name, prefix in CHAIN_FIELDS}
    if fields["weights"] is None or fields["locs"] is None:
        raise ValueError("chain CSV must carry weight and location columns")
    is_gaussian = fields["mu"] is not None
    if family is None and not is_gaussian:
        raise ValueError(f"{path} holds a rate chain, poisson or exponential; "
                         "name its family with --family or --manifest")
    if family is not None and (family == "gaussian") != is_gaussian:
        held = "a gaussian chain (it has a mu column)" if is_gaussian else "a rate chain"
        raise ValueError(f"{path} holds {held}, not a {family} one")
    family = family or "gaussian"
    if is_gaussian and fields["varpi"] is None:
        fields["varpi"] = np.zeros((len(rows), 0))
    accepts = {
        name[len("acc_"):]: rows[:, i].astype(np.uint8)
        for i, name in enumerate(header)
        if name.startswith("acc_")
    }
    return Chain(family, fields["weights"].shape[1], burn_in, accepts=accepts, **fields)
