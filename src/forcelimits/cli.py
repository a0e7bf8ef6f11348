"""Command-line front end: spectrum sweeps, benchmark presets, verification.

Exit codes: 0 success, 1 failed verification check, 2 configuration error,
3 unstable model, 4 numerical failure (offending frequency on stderr).
"""

from __future__ import annotations

import argparse
import configparser
import os
import re
import sys
import time
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path
from typing import IO, Iterator, Mapping

import numpy as np

from . import noise, presets, verify
from .errors import InvalidConfig, NumericalFailure, UnstableModel
from .schemes import VARIANTS, DetectorParams, SchemeConfig
from .spectra import squeeze_spectrum


def _run_keys(config: SchemeConfig) -> dict[str, object]:
    rates = {k: getattr(config.params, k) for k in ("Omega", "Gamma", "gamma", "Delta", "g")}
    return {"variant": config.variant, **rates, "phi": config.readout_angle}


_STANDARD = presets.fig2a_configs()["standard"]

#: every spectrum run key, by config section, with its default: the fig2a
#: standard curve on the fig2a grid.  The order is the CSV metadata order, and a
#: value given in a file parses as the type of its default: str, int or float.
_DEFAULTS: dict[str, dict[str, object]] = {
    "scheme": {
        **_run_keys(_STANDARD),
        "eta": _STANDARD.eta,
        "squeeze": 0.0,
        "squeeze_angle": 0.0,
        "n_th": _STANDARD.params.n_th,
    },
    "grid": presets.FIG2A_GRID,
}


#: rows per block; keeps the byte matrix's memory fixed for any grid size
_CSV_BLOCK = 256

#: the integer path takes decimal exponents e with |e| <= _E_MAX
_E_MAX = 99
_EXPONENTS = range(-_E_MAX, _E_MAX + 1)


def _template(e: int) -> str:
    """The field of a value with exponent e on the integer path: its 30 columns
    are the sign (0), "0." and the leading zeros of -6 < e < 0 (1-6), the 12
    digits with a gap for the point after each of the first six (7-24), the
    exponent (25-28) and the separator.  A space stands for NUL, the no-text byte."""
    if -6 < e < 0:
        return f" {'0.' + '0' * (-e - 1):6}{' ' * 18}    ,"
    if 0 <= e < 6:
        return f"{' ' * (8 + 2 * e)}.{' ' * (16 - 2 * e)}    ,"
    return f"        .{' ' * 16}e{e:+03d},"


#: entry e + _E_MAX: 10**(11 - e) correctly rounded, and the field of exponent e
_SCALE = np.array([float(10 ** (11 - e)) if e <= 11 else 1 / 10 ** (e - 11) for e in _EXPONENTS])
_TEMPLATES = np.frombuffer(
    "".join(map(_template, _EXPONENTS)).replace(" ", "\0").encode(), dtype="V30")
#: entry n: the three digits of n
_GROUPS = np.ravel(
    (np.arange(1000)[:, None] // [100, 10, 1] % 10 + ord("0")).astype(np.uint8).view("V3"))


def _scalar(value: float) -> str:
    """One value by the 12-digit rule, from the correctly rounded scientific form."""
    if value == 0.0:
        return "0"
    text = "%.11e" % value
    exponent = text.partition("e")[2]
    if exponent and -6 < int(exponent) < 6:
        return "%.*f" % (11 - int(exponent), value)
    return text


def _block_text(block: np.ndarray) -> str:
    """`block`'s rows as CSV lines (see write_spectrum_csv)."""
    values = block.ravel()
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        scaled = np.abs(values)
        work = np.floor(np.log10(scaled))  # the exponent e, then the digits
        fast = np.abs(work) <= _E_MAX
        work[~fast] = 0
        index = work.astype(np.int16)
        index += _E_MAX
        scaled *= _SCALE[index]
        # the table's and the product's roundings leave `scaled` within 2.3e-4
        # of |v| 10**(11 - e), so away from a rounding half and a decade edge
        # both round to the same 12 digits; the rest, with zero, nan, inf and
        # |e| > _E_MAX, go to _scalar
        fast &= scaled >= 1e11 + 1e-3
        fast &= scaled < 1e12 - 0.501
        np.floor(scaled, out=work)
        scaled -= work
        fast &= np.abs(scaled - 0.5) >= 1e-3
        work += scaled > 0.5
        digits = work.astype(np.int64)
    # the digits as four 3-digit groups, most significant first; a _scalar
    # value's may fall outside the table, and its text is written over its field
    groups = np.empty((values.size, 2, 2), dtype=np.int64)
    np.divmod(digits, 10**6, out=(groups[:, 0, 0], groups[:, 1, 0]))
    np.divmod(groups[:, :, 0], 1000, out=(groups[:, :, 0], groups[:, :, 1]))
    text = _GROUPS.take(groups.reshape(-1, 4), mode="clip").view(np.uint8)

    field = _TEMPLATES.take(index).view(np.uint8).reshape(values.size, -1)
    field[np.signbit(values), 0] = ord("-")
    field[:, 7:18:2] = text[:, :6]
    field[:, 19:25] = text[:, 6:]
    field.reshape(*block.shape, -1)[:, -1, -1] = ord("\n")
    scalar = np.flatnonzero(~fast)
    field[scalar, :-1] = np.frombuffer(b"".join(
        _scalar(v).encode().ljust(29, b"\0") for v in values[scalar].tolist()
    ), dtype=np.uint8).reshape(-1, 29)
    return field.tobytes().translate(None, b"\0").decode("ascii")


def _config_parser() -> configparser.ConfigParser:
    # `key = value` and `#` comments, each value as written: no header can name the empty
    # default section.  Keys are case sensitive: Gamma (mechanical) and gamma (cavity) differ
    parser = configparser.ConfigParser(
        delimiters=("=",), comment_prefixes=("#",), inline_comment_prefixes=("#",),
        interpolation=None, default_section="")
    parser.optionxform = str
    return parser


def _read_config_file(path: str) -> dict[str, dict[str, object]]:
    parser = _config_parser()
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (OSError, UnicodeDecodeError, configparser.Error) as exc:
        # on one line, like every message: configparser's may have several
        message = " ".join(line.strip() for line in str(exc).splitlines())
        raise InvalidConfig(f"cannot read config file {path!r}: {message}") from exc

    values: dict[str, dict[str, object]] = {name: {} for name in parser.sections()}
    for name, section in values.items():
        if name not in _DEFAULTS:
            raise InvalidConfig(f"unknown config section {name!r}")
        for key, text in parser.items(name):
            if key not in _DEFAULTS[name]:
                raise InvalidConfig(f"unknown {name} key {key!r}")
            try:
                section[key] = type(_DEFAULTS[name][key])(text)
            except ValueError as exc:
                raise InvalidConfig(f"bad value in config file {path!r}: {exc}") from exc
    return values


@contextmanager
def _open_output(path: str | Path, make_dir: bool = False) -> Iterator[IO[str]]:
    """`path` opened for writing, its directory made if asked.

    Failing to open, write or close it is a config error.
    """
    try:
        if make_dir:
            Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
    except OSError as exc:
        raise InvalidConfig(f"cannot write {str(path)!r}: {exc}") from exc


def _dump_config(path: str, values: Mapping[str, Mapping[str, object]]):
    parser = _config_parser()
    for name, section in values.items():
        parser[name] = {k: str(v) for k, v in section.items()}
    with _open_output(path) as fh:
        parser.write(fh)


def _scheme_config(values: Mapping[str, object]) -> SchemeConfig:
    params = DetectorParams(**{f.name: values[f.name] for f in fields(DetectorParams)})
    return SchemeConfig(
        variant=values["variant"],
        params=params,
        readout_angle=values["phi"],
        input_spectrum=squeeze_spectrum(values["squeeze"], values["squeeze_angle"]),
        eta=values["eta"],
    )


def write_spectrum_csv(
    spectrum: noise.SensitivitySpectrum, fh: IO[str], metadata: Mapping[str, object]
):
    """Write `metadata` as `# key = value` lines, the column header, then one row
    per frequency.

    Each value prints to 12 significant digits, its exact binary value rounded
    half to even, in fixed notation while the decimal exponent after rounding
    is below 6 in magnitude and in scientific notation from there:
    999999.9999999 prints as 1.00000000000e+06.  ±0 prints as "0", and nan
    and ±inf as Python prints them.
    """
    for key, value in metadata.items():
        fh.write(f"# {key} = {value}\n")
    # the dataclass fields are the columns, in order; the grid heads its column "omega"
    names = [f.name for f in fields(spectrum)]
    fh.write(",".join(["omega", *names[1:]]) + "\n")
    columns = [getattr(spectrum, name) for name in names]
    for start in range(0, len(spectrum.omegas), _CSV_BLOCK):
        fh.write(_block_text(np.column_stack([c[start:start + _CSV_BLOCK] for c in columns])))


def cmd_spectrum(args: argparse.Namespace) -> int:
    files = _read_config_file(args.config) if args.config else {}
    # defaults, then file values, then flags; the merged values are the metadata
    values: dict[str, dict[str, object]] = {}
    for name, defaults in _DEFAULTS.items():
        flags = {k: getattr(args, k) for k in defaults}
        values[name] = {**defaults, **files.get(name, {}),
                        **{k: v for k, v in flags.items() if v is not None}}
    # a file may spell the variant in any case; it is recorded as it runs
    values["scheme"]["variant"] = values["scheme"]["variant"].lower()

    if args.dump_config:
        _dump_config(args.dump_config, values)

    config = _scheme_config(values["scheme"])
    spectrum = noise.sensitivity_spectrum(config, presets.frequencies(**values["grid"]))
    metadata = {**values["scheme"], **values["grid"]}
    if args.output:
        with _open_output(args.output) as fh:
            write_spectrum_csv(spectrum, fh, metadata)
    else:
        write_spectrum_csv(spectrum, sys.stdout, metadata)
    return 0


def _write_preset(config: SchemeConfig, grid_keys: Mapping[str, object], path: Path,
                  extra: Mapping[str, object]):
    spectrum = noise.sensitivity_spectrum(config, presets.frequencies(**grid_keys))
    metadata = {**_run_keys(config), **grid_keys, **extra}
    with _open_output(path, make_dir=True) as fh:
        write_spectrum_csv(spectrum, fh, metadata)
    print(f"wrote {path}")


def cmd_fig2a(args: argparse.Namespace) -> int:
    for name, config in presets.fig2a_configs().items():
        path = Path(args.outdir, f"fig2a_{name}.csv")
        _write_preset(config, presets.FIG2A_GRID, path, {"curve": name})
    return 0


def cmd_fig2b(args: argparse.Namespace) -> int:
    config = presets.fig2b_config()
    path = Path(args.outdir, "fig2b_toy.csv")
    _write_preset(config, presets.FIG2B_GRID, path, {"curve": "toy", "eta": config.eta})
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    results = verify.run_suite(args.suite, seed=args.seed)
    for result in results:
        print(result.line())
    elapsed = time.perf_counter() - start
    failed = [r for r in results if not r.passed]
    print(
        f"{len(results) - len(failed)}/{len(results)} checks passed "
        f"in {elapsed:.1f} s (seed = {args.seed})"
    )
    return 1 if failed else 0


class _Parser(argparse.ArgumentParser):
    """argparse with each usage error on one stderr line (exit 2)."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)
        # no flag starts like a negative float (-1e-05, -.5, -inf): such a token is a value
        self._negative_number_matcher = re.compile(r"^-(\d|\.\d|inf|nan)", re.I)

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _seed(text: str) -> int:
    """A verify seed: numpy's generators take non-negative integers only."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="forcelimits",
        description="Force-sensitivity spectra and quantum-limit bounds for "
        "linear optomechanical detectors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    spectrum = sub.add_parser(
        "spectrum", help="write the sensitivity spectrum of one scheme as CSV"
    )
    choices = {"variant": VARIANTS, "spacing": presets.SPACINGS}
    for key, default in {**_DEFAULTS["scheme"], **_DEFAULTS["grid"]}.items():
        flag = "--scheme" if key == "variant" else "--" + key.replace("_", "-")
        kind = {"choices": choices[key]} if key in choices else {"type": type(default)}
        spectrum.add_argument(flag, dest=key, default=None, **kind)
    spectrum.add_argument("--output", default=None, help="CSV path (default stdout)")
    spectrum.add_argument("--config", default=None, help="key = value config file")
    spectrum.add_argument(
        "--dump-config", dest="dump_config", default=None,
        help="write the effective configuration to this path before running",
    )
    spectrum.set_defaults(func=cmd_spectrum)

    for name, func, summary in [
        ("fig2a", cmd_fig2a, "emit the four benchmark readout-strategy spectra"),
        ("fig2b", cmd_fig2b, "emit the mixed-coupling benchmark spectrum"),
    ]:
        preset = sub.add_parser(name, help=summary)
        preset.add_argument("--outdir", default=".")
        preset.set_defaults(func=func)

    verify_cmd = sub.add_parser("verify", help="run a verification suite")
    verify_cmd.add_argument("suite", choices=verify.SUITES + ("all",))
    verify_cmd.add_argument("--seed", type=_seed, default=0)
    verify_cmd.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a failure is reported in one line below; numpy's warnings would add more
        with np.errstate(all="ignore"):
            return args.func(args)
    except BrokenPipeError:
        # the reader of stdout has gone (`| head`): stop quietly, and let the
        # flush at exit write what is still buffered to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except InvalidConfig as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except UnstableModel as exc:
        print(f"unstable model: {exc}", file=sys.stderr)
        return 3
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
