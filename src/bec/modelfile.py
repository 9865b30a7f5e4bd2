"""Line-based model files.

A model file is a plain-text document with up to five sections:

    [model]      builtin name plus its parameters (m, eps, m_minus, f, nu)
    [symbol]     inline bulk symbol, one monomial per line:
                     a b : entries
                 powers a (tangential) and b (normal) followed by the N*N
                 complex matrix entries row-major (rows may be separated
                 with ';'); only bulk pairings are available for inline
                 symbols since they carry no boundary triple
    [boundary]   named family of the builtin model (family = ..., plus its
                 real parameters a, aplus, aminus, ell, K, M) and the side
                 (halfline or interface), or an explicit condition through
                 polynomial matrices A0, A1, ..., B0, B1, ...
    [numerics]   tol, k_window, k_resolution, lam_resolution
    [task]       level, gap_lo, gap_hi

`SECTION_KEYS` lists the keys of every key = value section with the kind of
their values; `parse` checks keys against it, and the command line routes
`--param` keys by it (`PARAM_KEYS`).

`build` is the one place a run is assembled, its defaults set and its values
checked; the command line runs a builtin name through it as the data of a
file whose [model] section names it, with every flag written in as its key.
Defaults: tol 1e-6, k_resolution 801, lam_resolution 400, level the model's
fiducial energy, side halfline, k_window 20 max(1, w/2) for a declared gap
of finite width w, else 20.  Accepted, else ModelFileError naming the key
and the value: tol and k_window finite and > 0, k_resolution and
lam_resolution integers >= 2, level finite, gap_lo < gap_hi given together
(they bound the edge tracking, and are an inline symbol's declared gap).
Every family parameter is real; a complex or matrix value is rejected by
`parse`.

Scalars use explicit complex literals "re+imi" (examples: 2, -0.5i, 1+2i);
matrices separate rows with ';' and entries with spaces.  Unknown sections or
keys are rejected.
"""

import re

import numpy as np

from .errors import ContractViolation, ModelFileError
from .extension import from_ab
from .models import BUILTIN_MODELS, ModelDescriptor, build_model
from .symbol import GapWindow, Symbol

_SECTIONS = ("model", "symbol", "boundary", "numerics", "task")

# The keys of each key = value section, with the kind of their values:
# "text" or a "real" number.  [boundary] also takes the polynomial keys A0,
# A1, ..., B0, B1, ..., each a complex "value" (scalar or matrix).
SECTION_KEYS = {
    "model": {"name": "text", "m": "real", "eps": "real", "m_minus": "real",
              "f": "real", "nu": "real"},
    "boundary": {"family": "text", "side": "text", "a": "real",
                 "aplus": "real", "aminus": "real", "ell": "real",
                 "K": "real", "M": "real"},
    "numerics": {"tol": "real", "k_window": "real", "k_resolution": "real",
                 "lam_resolution": "real"},
    "task": {"level": "real", "gap_lo": "real", "gap_hi": "real"},
}
# the numeric parameters of [model] and [boundary], which --param may set
PARAM_KEYS = {section: tuple(k for k, kind in SECTION_KEYS[section].items()
                             if kind != "text")
              for section in ("model", "boundary")}
_POLY_KEY = re.compile(r"^[AB][0-9]$")


def parse_complex(text):
    s = text.strip()
    if not s:
        raise ModelFileError("empty number literal")
    if len(s.split()) > 1:
        raise ModelFileError("bad number literal %r: whitespace inside"
                             % text)
    try:
        z = complex(s.replace("i", "j"))
    except ValueError:
        raise ModelFileError("bad number literal %r" % text)
    if not (np.isfinite(z.real) and np.isfinite(z.imag)):
        raise ModelFileError("non-finite number literal %r" % text)
    return z


def parse_real(text, key):
    z = parse_complex(text)
    if z.imag != 0.0:
        raise ModelFileError("key %r must be real" % key)
    return z.real


def parse_matrix(text):
    rows = [r for r in text.split(";")]
    out = []
    for r in rows:
        parts = r.split()
        if not parts:
            raise ModelFileError("empty matrix row in %r" % text)
        out.append([parse_complex(p) for p in parts])
    if len({len(r) for r in out}) != 1:
        raise ModelFileError("ragged matrix rows in %r" % text)
    return np.array(out, dtype=complex)


def _parse_scalar_or_matrix(text):
    if ";" in text or len(text.split()) > 1:
        return parse_matrix(text)
    return parse_complex(text)


class ModelFileData:
    """Parsed, normalized content of a model file."""

    def __init__(self):
        self.model = {}        # key -> float or str (name)
        self.symbol_terms = []  # [(a, b, matrix)]
        self.boundary = {}     # key -> str | complex | matrix
        self.numerics = {}     # key -> float
        self.task = {}         # key -> float


def parse(text):
    """Parse model-file text into ModelFileData (strict keys)."""
    data = ModelFileData()
    section = None
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _SECTIONS:
                raise ModelFileError("line %d: unknown section [%s]"
                                     % (lineno, section))
            if section in seen:
                raise ModelFileError("line %d: duplicate section [%s]"
                                     % (lineno, section))
            seen.add(section)
            continue
        if section is None:
            raise ModelFileError("line %d: content before any section"
                                 % lineno)
        if section == "symbol":
            if ":" not in line:
                raise ModelFileError("line %d: symbol term needs 'a b : "
                                     "entries'" % lineno)
            head, body = line.split(":", 1)
            parts = head.split()
            if len(parts) != 2:
                raise ModelFileError("line %d: symbol term needs two "
                                     "monomial powers" % lineno)
            try:
                a, b = int(parts[0]), int(parts[1])
            except ValueError:
                raise ModelFileError("line %d: bad monomial powers %r"
                                     % (lineno, head))
            if a < 0 or b < 0:
                raise ModelFileError("line %d: negative monomial power"
                                     % lineno)
            entries = body.replace(";", " ").split()
            n = int(round(len(entries) ** 0.5))
            if n * n != len(entries):
                raise ModelFileError(
                    "line %d: %d entries is not a square matrix"
                    % (lineno, len(entries)))
            M = np.array([parse_complex(e) for e in entries],
                         dtype=complex).reshape(n, n)
            data.symbol_terms.append((a, b, M))
            continue
        if "=" not in line:
            raise ModelFileError("line %d: expected key = value" % lineno)
        key, val = (s.strip() for s in line.split("=", 1))
        kind = SECTION_KEYS[section].get(key)
        if kind is None and section == "boundary" and _POLY_KEY.match(key):
            kind = "value"
        if kind is None:
            raise ModelFileError("line %d: unknown [%s] key %r"
                                 % (lineno, section, key))
        values = getattr(data, section)
        if key in values:
            raise ModelFileError("line %d: duplicate key %r" % (lineno, key))
        try:
            values[key] = (val if kind == "text" else parse_real(val, key)
                           if kind == "real" else _parse_scalar_or_matrix(val))
        except ModelFileError as exc:
            raise ModelFileError("line %d: [%s] %s = %s: %s"
                                 % (lineno, section, key, val, exc)) from None
    if not data.model and not data.symbol_terms:
        raise ModelFileError("model file needs a [model] or [symbol] section")
    return data


def _poly_from_keys(data, letter):
    keys = sorted(k for k in data.boundary if k[0] == letter
                  and _POLY_KEY.match(k))
    if not keys:
        return None
    degree = max(int(k[1]) for k in keys)
    coeffs = []
    shape = None
    for j in range(degree + 1):
        key = "%s%d" % (letter, j)
        if key in data.boundary:
            M = np.atleast_2d(np.asarray(data.boundary[key], dtype=complex))
            shape = M.shape
            coeffs.append(M)
        else:
            coeffs.append(None)
    if shape is None:
        raise ModelFileError("no usable %s* matrices" % letter)
    return [np.zeros(shape, dtype=complex) if C is None else C
            for C in coeffs]


# what a finite [numerics] or [task] value must also be: (test, description)
_FINITE = (lambda x: True, "a finite number")
_POSITIVE = (lambda x: x > 0, "a finite number > 0")
_RESOLUTION = (lambda x: x == int(x) and x >= 2, "an integer >= 2")
_ACCEPTED = {"tol": _POSITIVE, "k_window": _POSITIVE,
             "k_resolution": _RESOLUTION, "lam_resolution": _RESOLUTION}


def _checked_gap(data):
    """Check the [numerics] and [task] values of data; return the gap window
    of gap_lo and gap_hi, or None."""
    for section in ("numerics", "task"):
        for key, value in getattr(data, section).items():
            test, need = _ACCEPTED.get(key, _FINITE)
            if not (np.isfinite(value) and test(value)):
                raise ModelFileError("[%s] %s = %r: must be %s"
                                     % (section, key, value, need))
    lo, hi = data.task.get("gap_lo"), data.task.get("gap_hi")
    if lo is None and hi is None:
        return None
    if lo is None or hi is None or not lo < hi:
        raise ModelFileError("[task] gap_lo = %r, gap_hi = %r: give both, "
                             "with gap_lo < gap_hi" % (lo, hi))
    return GapWindow(lo, hi, "model file")


def build(data):
    """Construct (model, bc, numerics, task) from parsed data, with every
    default set and every value checked (see the module docstring).  bc is
    None without a [boundary] section, inline symbols make a bulk-only
    custom model, and task holds level, gap (a GapWindow or None) and side.
    """
    gap = _checked_gap(data)
    if data.symbol_terms:
        if data.model and data.model.get("name", "custom") != "custom":
            raise ModelFileError(
                "a file with an inline [symbol] cannot also name a builtin")
        sizes = {M.shape[0] for _, _, M in data.symbol_terms}
        if len(sizes) != 1:
            raise ModelFileError("symbol terms have inconsistent sizes %s"
                                 % sorted(sizes))
        N = sizes.pop()
        terms = {}
        for a, b, M in data.symbol_terms:
            if (a, b) in terms:
                raise ModelFileError("duplicate symbol term %d %d" % (a, b))
            terms[(a, b)] = M
        S = Symbol(N, terms)
        model = ModelDescriptor(
            "custom", {}, S, fiducial_E=data.task.get("level", 0.0),
            gap_around=data.task.get("level", 0.0), declared_gap=gap)
    else:
        name = data.model.get("name")
        if name is None:
            raise ModelFileError("[model] section needs a name")
        if name not in BUILTIN_MODELS:
            raise ModelFileError("unknown builtin model %r (have %s)"
                                 % (name, sorted(BUILTIN_MODELS)))
        params = {k: v for k, v in data.model.items() if k != "name"}
        try:
            model = build_model(name, **params)
        except ContractViolation as exc:
            raise ModelFileError(str(exc))

    bc = None
    if data.boundary:
        family = data.boundary.get("family")
        poly_keys = {k for k in data.boundary if _POLY_KEY.match(k)}
        if family is not None and poly_keys:
            raise ModelFileError(
                "give either a family or explicit A*/B* matrices, not both")
        if family is not None:
            kw = {k: v for k, v in data.boundary.items()
                  if k not in ("family", "side")}
            try:
                bc = model.make_bc(family, **kw)
            except ContractViolation as exc:
                raise ModelFileError(str(exc))
        elif poly_keys:
            A = _poly_from_keys(data, "A")
            B = _poly_from_keys(data, "B")
            if A is None or B is None:
                raise ModelFileError("explicit conditions need both A* and "
                                     "B* matrices")
            bc = from_ab(A, B, label="file(A,B)")
        else:
            raise ModelFileError("[boundary] needs a family or A*/B* "
                                 "matrices")

    width = np.inf if model.declared_gap is None else \
        model.declared_gap.width()
    scale = max(1.0, 0.5 * width) if np.isfinite(width) else 1.0
    numerics = {"tol": 1e-6, "k_window": 20.0 * scale, "k_resolution": 801,
                "lam_resolution": 400}
    numerics.update(data.numerics)
    for key in ("k_resolution", "lam_resolution"):
        numerics[key] = int(numerics[key])
    task = {"level": data.task.get("level", model.fiducial_E), "gap": gap,
            "side": data.boundary.get("side", "halfline")}
    return model, bc, numerics, task
