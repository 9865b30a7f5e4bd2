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
                 parameters), or an explicit condition through polynomial
                 matrices A0, A1, ..., B0, B1, ...
    [numerics]   tol, k_window, k_resolution, lam_resolution
    [task]       level, gap_lo, gap_hi

Scalars use explicit complex literals "re+imi" (examples: 2, -0.5i, 1+2i);
matrices separate rows with ';' and entries with spaces.  Unknown sections or
keys are rejected.  `emit` produces the normalized form, and
emit(parse(emit(parse(text)))) == emit(parse(text)) for every valid text.
"""

import re

import numpy as np

from .errors import ContractViolation, ModelFileError
from .extension import from_ab
from .models import BUILTIN_MODELS, ModelDescriptor, build_model
from .symbol import GapWindow, Symbol

_SECTIONS = ("model", "symbol", "boundary", "numerics", "task")

_MODEL_KEYS = ("name", "m", "eps", "m_minus", "f", "nu")
_BOUNDARY_SCALARS = ("family", "side", "a", "aplus", "aminus", "ell")
_BOUNDARY_MATS = ("K", "L", "M")
_NUMERICS_KEYS = ("tol", "k_window", "k_resolution", "lam_resolution")
_TASK_KEYS = ("level", "gap_lo", "gap_hi")
_POLY_KEY = re.compile(r"^[AB][0-9]$")


def _fmt_float(x):
    return "%.17g" % float(x)


def format_complex(z):
    """Normalized complex literal: 2, -0.5, 2i, 1+2i, 1-2i."""
    z = complex(z)
    if z.imag == 0.0:
        return _fmt_float(z.real)
    if z.real == 0.0:
        return _fmt_float(z.imag) + "i"
    sign = "+" if z.imag > 0 else "-"
    return _fmt_float(z.real) + sign + _fmt_float(abs(z.imag)) + "i"


def parse_complex(text):
    s = text.strip().replace(" ", "")
    if not s:
        raise ModelFileError("empty number literal")
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
        raise ModelFileError("key %r must be real, got %r" % (key, text))
    return z.real


def format_matrix(M):
    M = np.atleast_2d(np.asarray(M, dtype=complex))
    return " ; ".join(" ".join(format_complex(x) for x in row) for row in M)


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
        if section == "model":
            if key not in _MODEL_KEYS:
                raise ModelFileError("line %d: unknown [model] key %r"
                                     % (lineno, key))
            if key in data.model:
                raise ModelFileError("line %d: duplicate key %r"
                                     % (lineno, key))
            if key == "name":
                data.model[key] = val
            else:
                data.model[key] = parse_real(val, key)
        elif section == "boundary":
            known = (key in _BOUNDARY_SCALARS or key in _BOUNDARY_MATS
                     or _POLY_KEY.match(key))
            if not known:
                raise ModelFileError("line %d: unknown [boundary] key %r"
                                     % (lineno, key))
            if key in data.boundary:
                raise ModelFileError("line %d: duplicate key %r"
                                     % (lineno, key))
            if key in ("family", "side"):
                data.boundary[key] = val
            elif key in ("a", "aplus", "aminus", "ell"):
                data.boundary[key] = parse_real(val, key)
            else:
                data.boundary[key] = _parse_scalar_or_matrix(val)
        elif section == "numerics":
            if key not in _NUMERICS_KEYS:
                raise ModelFileError("line %d: unknown [numerics] key %r"
                                     % (lineno, key))
            if key in data.numerics:
                raise ModelFileError("line %d: duplicate key %r"
                                     % (lineno, key))
            data.numerics[key] = parse_real(val, key)
        elif section == "task":
            if key not in _TASK_KEYS:
                raise ModelFileError("line %d: unknown [task] key %r"
                                     % (lineno, key))
            if key in data.task:
                raise ModelFileError("line %d: duplicate key %r"
                                     % (lineno, key))
            data.task[key] = parse_real(val, key)
    if not data.model and not data.symbol_terms:
        raise ModelFileError("model file needs a [model] or [symbol] section")
    return data


def _emit_value(v):
    if isinstance(v, str):
        return v
    if isinstance(v, np.ndarray):
        return format_matrix(v)
    return format_complex(v)


def emit(data):
    """Normalized text for parsed model-file data."""
    lines = []
    if data.model:
        lines.append("[model]")
        for key in _MODEL_KEYS:
            if key in data.model:
                lines.append("%s = %s" % (key, _emit_value(data.model[key])))
        lines.append("")
    if data.symbol_terms:
        lines.append("[symbol]")
        for a, b, M in sorted(data.symbol_terms, key=lambda t: (t[0], t[1])):
            lines.append("%d %d : %s" % (a, b, format_matrix(M)))
        lines.append("")
    if data.boundary:
        lines.append("[boundary]")
        keys = [k for k in _BOUNDARY_SCALARS if k in data.boundary]
        keys += [k for k in _BOUNDARY_MATS if k in data.boundary]
        keys += sorted(k for k in data.boundary if _POLY_KEY.match(k))
        for key in keys:
            lines.append("%s = %s" % (key, _emit_value(data.boundary[key])))
        lines.append("")
    if data.numerics:
        lines.append("[numerics]")
        for key in _NUMERICS_KEYS:
            if key in data.numerics:
                lines.append("%s = %s"
                             % (key, _emit_value(data.numerics[key])))
        lines.append("")
    if data.task:
        lines.append("[task]")
        for key in _TASK_KEYS:
            if key in data.task:
                lines.append("%s = %s" % (key, _emit_value(data.task[key])))
        lines.append("")
    return "\n".join(lines)


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


def build(data):
    """Construct (model, bc, numerics, task) from parsed data.

    bc is None when there is no [boundary] section.  Inline symbols produce a
    bulk-only custom model.
    """
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
        gap = None
        if "gap_lo" in data.task and "gap_hi" in data.task:
            gap = GapWindow(data.task["gap_lo"], data.task["gap_hi"],
                            "model file")
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
        bkeys = set(data.boundary)
        family = data.boundary.get("family")
        poly_keys = {k for k in bkeys if _POLY_KEY.match(k)}
        if family is not None and poly_keys:
            raise ModelFileError(
                "give either a family or explicit A*/B* matrices, not both")
        if family is not None:
            kw = {k: data.boundary[k] for k in bkeys - {"family", "side"}}
            for key in ("K", "L", "M"):
                if key in kw and np.ndim(kw[key]) == 0:
                    kw[key] = complex(kw[key]).real
            try:
                bc = model.make_bc(family, **kw)
            except ContractViolation as exc:
                raise ModelFileError(str(exc))
            except TypeError as exc:  # a value the family cannot take
                raise ModelFileError("bad parameters for family %r: %s"
                                     % (family, exc))
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

    numerics = {
        "tol": data.numerics.get("tol", 1e-6),
        "k_window": data.numerics.get("k_window"),
        "k_resolution": int(data.numerics.get("k_resolution", 801)),
        "lam_resolution": int(data.numerics.get("lam_resolution", 400)),
    }
    task = {
        "level": data.task.get("level", model.fiducial_E),
        "gap_lo": data.task.get("gap_lo"),
        "gap_hi": data.task.get("gap_hi"),
        "side": data.boundary.get("side", "halfline") if data.boundary
                else "halfline",
    }
    return model, bc, numerics, task
