"""Command-line runner: per-field stages, the report, the cache and the parser.

Each command is declared once, in its parser block: the options it reads
and no others (--csv only where it makes sweep rows, --girth-cap only
where a stage reads it), its params, named in report order and read from
those options, and the stages it runs, in order, on the field of every q.
Every value comes from a flag or its default; no environment variable
sets one.  A stage calls the library modules it names (permpoly,
criterion, graphs), or none, and returns report rows and verdicts as
dicts, so the runner only concatenates them; the girth-scan stage also
adds its girth_ge_8 flags to the sweep rows.  Every row is a flat dict of
scalars, with no list that the params or modulus_by_q hold and no key
that its other keys determine but an identity row's wrap.  One of _JOB_ERRORS raised by a stage ends
its field's job with an error row and a failing verdict in its own
section, as it ends the upper-half grid of a p.  The report itself is a
dict of BODY_KEYS plus "timing"; the runner records the seconds of
building the field and its tables, and of each stage, in the report's
timing.stages, keyed by q, and the seconds of each upper-half grid in
timing.upper_half, keyed by p.  Commands emit a single JSON report on the
data stream (stdout, or --json PATH) and verdict lines on stderr.
Reports are deterministic apart from the top-level "timing" entry; the
exit status is 0 iff every verdict passes.  --csv is a view of the sweep
rows that rebuilds the columns a row does not carry.

A report body is encoded once: the bytes the cache stores, or would store,
are the bytes emitted, with "timing" spliced in as its last key.  A cache
hit checks its entry's digest and parses only the verdicts and what
follows them; only the --csv view decodes a hit's rows.  The process
pool is imported only when more than one worker runs, and the stage
modules and csv only where a stage or --csv uses them, so a cache hit
loads none.  A job imports its stages' modules before their clocks start.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import sys
import time
from importlib import import_module

from . import __version__
from .errors import GfppError
from .field import (DEFAULT_FIELD_CAP, Field, cap_error, factor_prime_power,
                    odd_prime_powers, poly_str)

# The largest q whose girth the girth stage checks by default: a BFS per k
# costs up to about q^3 steps.
DEFAULT_GIRTH_CAP = 17

UPPER_HALF_PRIMES = (3, 5, 7, 11, 13)

CSV_COLUMNS = ("q", "k", "gcd_ok", "a_pp", "b_pp", "criterion", "k_prime",
               "k_prime_binary", "girth_class", "p_power")

# Part of every cache key: bump it whenever a change alters what a command
# reports for the same params, so that stale entries are never served.
CACHE_SCHEMA = 7


# The deterministic part of a report, keys in the order they are written.
# A report is a dict of these keys plus "timing", which comes last.
BODY_KEYS = ("command", "params", "modulus_by_q", "rows", "verdicts", "overall",
             "version")


# -- per-field stages --------------------------------------------------------
#
# A stage is (name, run, modules, tables, check).  run(fld, args, rows)
# makes the stage's library call on one field, given the rows of the stages
# before it, and returns the rows and verdicts it adds; `modules` names the
# gfpp modules it imports and `tables` the Field methods that build the
# tables it reads, both of which the runner loads first, outside the stage
# clocks; check(fld, args), or None, rejects arguments the stage cannot
# serve before any table is built.  A command is the list of stages it runs
# on each field.  Stage functions are top-level so that they pickle for the
# process pool.

# What ends a unit of work, a field's job or a p's upper-half grid, with an
# error row and a failing verdict instead of a traceback.
_JOB_ERRORS = (GfppError, ValueError)


def _failure(section: str, key: str, n: int, exc: Exception) -> tuple[dict, dict]:
    """The error row and the failing verdict that report exc for q = n or
    p = n, as `key` says."""
    err = "%s: %s" % (type(exc).__name__, exc)
    return ({"kind": "error", key: n, "error": err},
            {"section": section, key: n, "error": err, "passed": False})


def _sweep_rows(rows: list) -> list:
    return [r for r in rows if r["kind"] == "sweep"]


def _sweep(fld: Field, args, rows: list) -> tuple[list, list]:
    """Every exponent's sweep row, judged for --which, or for each family
    under verify-all."""
    from . import permpoly

    records = permpoly.sweep(fld)
    families = ("A", "B", "two") if args.command == "verify-all" else (args.which,)
    return records, [permpoly.conjecture_verdict(fld, w, records=records)
                     for w in families]


def _criterion(fld: Field, args, rows: list) -> tuple[list, list]:
    """The criterion against the sweep's a_pp flags: a row per k where the
    two disagree, and the verdict."""
    from . import criterion

    cc_rows, verdict = criterion.cross_check(fld, _sweep_rows(rows))
    return cc_rows, [verdict]


def _identities(fld: Field, args, rows: list) -> tuple[list, list]:
    """The support-identity grid, defined for e >= 3: for a smaller e,
    verify-all adds nothing and a command that names q a skipped verdict."""
    if fld.e < 3:
        if args.command == "verify-all":
            return [], []
        return [], [{"section": "identities", "q": fld.q,
                     "skipped": "ParamDomain: e = %d < 3" % fld.e, "passed": True}]
    from . import criterion

    id_rows, verdict = criterion.identity_grid(fld)
    return id_rows, [verdict]


def _girth_scan(fld: Field, args, rows: list) -> tuple[list, list]:
    """The girth of G_q(XY, X^kY^2k) for every k against the sweep rows,
    to each of which it adds its girth_ge_8 flag as the last key.  Above
    --girth-cap verify-all adds nothing, and a command that names q fails."""
    if fld.q > args.girth_cap:
        if args.command == "verify-all":
            return [], []
        raise cap_error("q", fld.q, "girth", args.girth_cap)
    from . import graphs

    records = _sweep_rows(rows)
    girth_rows, verdict = graphs.girth_scan(fld, records)
    for r, g in zip(records, girth_rows):
        r["girth_ge_8"] = g["girth_ge_8"]
    return girth_rows, [verdict]


def _girth_check(fld: Field, args) -> None:
    """The girth command's k must lie in 1..q-1 and its q within the girth
    cap."""
    q, k = fld.q, args.k
    if k is not None and not 1 <= k <= q - 1:
        raise ValueError("k must be in 1..%d, got %d" % (q - 1, k))
    if q > args.girth_cap:
        raise cap_error("q", q, "girth", args.girth_cap)


def _girth(fld: Field, args, rows: list) -> tuple[list, list]:
    """The exact girth of one graph; for G_q(XY, X^kY^2k), also whether
    girth >= 8 implies that a_k and b_k are PPs."""
    from . import graphs, permpoly

    q, k = fld.q, args.k
    value = graphs.girth(fld, args.f_exps, args.g_exps)
    girth = None if value == math.inf else int(value)
    row = {"kind": "girth", "q": q, "k": k, "girth": girth}
    if k is None:
        return [row], [{"section": "girth", "q": q, "girth": girth, "passed": True}]
    rec = permpoly.sweep_record(fld, k)
    row.update(a_pp=rec["a_pp"], b_pp=rec["b_pp"])
    implication_ok = value < 8 or (rec["a_pp"] and rec["b_pp"])
    return [row], [{"section": "girth", "q": q, "k": k, "girth": girth,
                    "implication_ok": implication_ok, "passed": implication_ok}]


def _field(fld: Field, args, rows: list) -> tuple[list, list]:
    return ([{"kind": "field", "q": fld.q, "p": fld.p, "e": fld.e,
              "modulus_str": poly_str(fld.modulus)}],
            [{"section": "field", "q": fld.q, "passed": True}])


_SWEEP = ("sweep", _sweep, ("permpoly",), ("log_tables",), None)
_CRITERION = ("criterion", _criterion, ("criterion",), ("binom_tables",), None)
_IDENTITIES = ("identities", _identities, ("criterion",), ("binom_tables",), None)
_GIRTH_SCAN = ("girth", _girth_scan, ("graphs",), ("log_tables",), None)
_GIRTH = ("girth", _girth, ("graphs", "permpoly"), ("log_tables",), _girth_check)
_FIELD = ("field", _field, (), (), None)


def _run_job(spec):
    """Build GF(q) and run the stages on it, in order.

    Returns (modulus, rows, verdicts, seconds).  The stages' modules are
    imported first, untimed.  Building the field and the tables its stages
    read is timed as stage "field", and each stage under its name.  The
    modulus is recorded as soon as the field exists, and the stages' checks
    run before any table is built.  One of _JOB_ERRORS ends the job
    with one error row and one failing verdict, in the section of the stage
    that raised it, or of the first stage while the field is built or
    checked; the stages that finished keep their rows, verdicts and times.
    """
    stages, q, args = spec
    section = stages[0][0]
    modulus, rows, verdicts, seconds = None, [], [], {}
    try:
        # Factoring a large q by trial division takes long: a q above the
        # field cap is rejected first, as Field would reject it.
        if q > args.field_cap:
            raise cap_error("q", q, "field", args.field_cap)
        p, e = factor_prime_power(q)
        for _, _, modules, _, _ in stages:
            for module in modules:
                import_module("." + module, __package__)
        t = time.perf_counter()
        fld = Field(p, e, cap=args.field_cap)
        modulus = list(fld.modulus)
        for _, _, _, _, check in stages:
            if check is not None:
                check(fld, args)
        for _, _, _, tables, _ in stages:
            for table in tables:
                getattr(fld, table)()
        seconds["field"] = round(time.perf_counter() - t, 4)
        for section, run, _, _, _ in stages:
            t = time.perf_counter()
            stage_rows, stage_verdicts = run(fld, args, rows)
            rows += stage_rows
            verdicts += stage_verdicts
            seconds[section] = round(time.perf_counter() - t, 4)
    except _JOB_ERRORS as exc:
        row, verdict = _failure(section, "q", q, exc)
        rows.append(row)
        verdicts.append(verdict)
    return modulus, rows, verdicts, seconds


def _run_jobs(stages, qs, args) -> tuple[dict, list, list, dict]:
    """Run `stages` on the field of every q in qs, fanned out to a process
    pool.

    Results merge in input order, so the report is deterministic regardless
    of completion order.  Returns (modulus_by_q, rows, verdicts,
    seconds_by_q), the last keyed by str(q) for the timing entry.
    """
    specs = [(stages, q, args) for q in qs]
    # The pool starts every worker up front, so never ask for more than the
    # machine has cores, whatever --jobs says.
    workers = min(args.jobs, len(specs), os.cpu_count() or 1)
    if workers <= 1:
        results = [_run_job(s) for s in specs]
    else:
        # Imported here: a serial run never loads multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_job, specs))
    modulus_by_q, rows, verdicts, seconds_by_q = {}, [], [], {}
    for q, (modulus, job_rows, job_verdicts, seconds) in zip(qs, results):
        if modulus is not None:
            modulus_by_q[str(q)] = modulus
        rows.extend(job_rows)
        verdicts.extend(job_verdicts)
        seconds_by_q[str(q)] = seconds
    return modulus_by_q, rows, verdicts, seconds_by_q


# -- output ---------------------------------------------------------------

def _bool_cell(v) -> str:
    return "" if v is None else ("true" if v else "false")


def _write_csv(report: dict, body: memoryview, path) -> None:
    """The sweep rows as flat CSV with a fixed column order; other row
    kinds are JSON-only, and a cache hit's rows are decoded from `body`.

    A sweep row carries q, k, a_pp, b_pp and girth_ge_8; the other columns
    are rebuilt here.  gcd_ok, k_prime (k^(-1) mod q-1), k_prime_binary
    and p_power are functions of (q, k).  criterion is the criterion's own
    flag, a_pp negated at the mismatch_ks of the q's criterion verdict, and
    empty where no criterion stage finished.
    """
    import csv

    from .digits import digits_binary, mod_inverse

    rows = report["rows"] if "rows" in report else json.loads(bytes(body))["rows"]
    mismatch_ks = {v["q"]: set(v["mismatch_ks"]) for v in report["verdicts"]
                   if v.get("section") == "criterion" and "mismatch_ks" in v}
    factors = {}
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in rows:
            if r.get("kind") != "sweep":
                continue
            q, k, a_pp, ge8 = r["q"], r["k"], r["a_pp"], r.get("girth_ge_8")
            if q not in factors:
                factors[q] = factor_prime_power(q)
            kp = mod_inverse(k, q - 1) if math.gcd(k, q - 1) == 1 else None
            bad = mismatch_ks.get(q)
            writer.writerow([
                q, k, _bool_cell(kp is not None), _bool_cell(a_pp),
                _bool_cell(r["b_pp"]),
                "" if bad is None else _bool_cell(a_pp != (k in bad)),
                "" if kp is None else kp,
                "" if kp is None else _bool_cell(digits_binary(kp, *factors[q])),
                "" if ge8 is None else ("ge8" if ge8 else "lt8"),
                _bool_cell(q % k == 0),
            ])


def _timing_tail(timing: dict, started: float) -> str:
    """The text that closes an emitted report: timing as its last key, with
    the seconds since `started` recorded as timing.emit.  JSON text holds no
    raw newline inside a string, so indenting the timing's lines by two
    spaces nests it exactly as json.dumps(..., indent=2) of the whole report
    would."""
    timing["emit"] = round(time.perf_counter() - started, 4)
    return ',\n  "timing": ' + json.dumps(timing, indent=2).replace("\n", "\n  ") + "\n}\n"


def _emit(report: dict, body: memoryview, args) -> bool:
    """Write the report: `body` views its body's bytes as _with_cache lays
    them out, ending in b"\n}\n", and timing goes in as the last key, with
    the seconds of writing the body as timing.emit.  Returns False, after
    one line on stderr that names the path, when --json or --csv cannot be
    written."""
    head = body[:-3]
    if not args.json:
        t = time.perf_counter()
        sys.stdout.write(str(head, "utf-8"))
        sys.stdout.write(_timing_tail(report["timing"], t))
    path = args.json
    try:
        if path:
            t = time.perf_counter()
            with open(path, "wb") as fh:
                fh.write(head)
                fh.write(_timing_tail(report["timing"], t).encode())
        path = args.csv
        if path:
            _write_csv(report, body, path)
    except OSError as exc:
        print("[gfpp] cannot write %s: %s" % (path, exc.strerror or exc),
              file=sys.stderr)
        return False
    for v in report["verdicts"]:
        status = "PASS" if v.get("passed") else "FAIL"
        where = ""
        if "q" in v:
            where = " q=%s" % v["q"]
        elif "p" in v:
            where = " p=%s" % v["p"]
        extra = " which=%s" % v["which"] if "which" in v else ""
        skipped = " (skipped: %s)" % v["skipped"] if v.get("skipped") else ""
        print("[%s] %s%s%s%s" % (status, v.get("section", report["command"]),
                                 where, extra, skipped), file=sys.stderr)
    print("[gfpp] %s: %s in %ss" % (report["command"], report["overall"],
                                    report["timing"]["seconds"]), file=sys.stderr)
    return True


# -- result cache ----------------------------------------------------------

def _body_text(body: dict) -> str:
    """json.dumps(body, indent=2) plus a newline, for a body whose rows are
    flat dicts of scalars, as every command's are.

    An indent makes json.dumps use its pure-Python encoder, so the rows are
    encoded in one call of the C encoder instead, with the separators of
    the indented layout between keys and between rows, and spliced into
    the indented dump of the rest of the body.  JSON text holds no raw
    newline inside a string, so "},\n      {" can only be the seam between
    two rows.
    """
    text = json.dumps(dict(body, rows=[]), indent=2)
    if body["rows"]:
        flat = json.dumps(body["rows"], separators=(",\n      ", ": "))
        flat = flat[2:-2].replace("},\n      {", "\n    },\n    {\n      ")
        text = text.replace('\n  "rows": []',
                            '\n  "rows": [\n    {\n      %s\n    }\n  ]' % flat, 1)
    return text + "\n"


# The top-level key after "rows" as _body_text lays it out.  A string holds
# no raw newline and nested keys are indented deeper, so nothing else in a
# body matches it.
_TAIL_KEY = b'\n  "verdicts": '
_TAIL_KEYS = BODY_KEYS[BODY_KEYS.index("verdicts"):]


def _read_entry(path: str, command: str) -> tuple[dict, memoryview] | None:
    """The report of the cache entry at `path` and a view of its body, or
    None when the entry cannot be read or fails a check.

    An entry is the SHA-256 hex digest of the body, a newline, and the
    body.  The body must match its digest, begin and end as _body_text lays
    out a body of `command`, and end in the keys _TAIL_KEYS; only that
    tail is parsed.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        return None
    start = data.find(b"\n") + 1  # 0 when there is no digest line
    body = memoryview(data)[start:]
    head = b'{\n  "command": %s,\n  "params": ' % json.dumps(command).encode()
    tail = data.rfind(_TAIL_KEY, start)
    if (start == 0 or data[:start - 1] != hashlib.sha256(body).hexdigest().encode()
            or not data.startswith(head, start) or not data.endswith(b"\n}\n")
            or tail < 0):
        return None
    try:
        report = json.loads(b"{" + data[tail:])
    except ValueError:
        return None
    if tuple(report) != _TAIL_KEYS:
        return None
    report.update(command=command, timing={"cached": True})
    return report, body


def _with_cache(args, command, params, compute) -> tuple[dict, memoryview]:
    """JSON result cache keyed by (CACHE_SCHEMA, version, command, params).

    Returns the report and a view of its body's bytes, json.dumps(body,
    indent=2) plus a newline.  A hit's body is the entry's, checked by its
    digest (see _read_entry); its report holds the command, the verdicts,
    overall and version, and no rows.  An entry that fails a check is
    treated as a miss: recomputed and rewritten.  An entry is written to a
    temp file in the cache directory and renamed into place, so it is never
    seen half-written; when it cannot be written, the temp file is removed,
    the report is still returned and stderr says why.  A miss records the
    seconds of encoding the body in the report's timing.encode.
    """
    path = None
    if args.cache:
        key = {"schema": CACHE_SCHEMA, "version": __version__, "command": command,
               "params": params}
        digest = hashlib.sha256(json.dumps(key, sort_keys=True).encode()).hexdigest()
        path = os.path.join(args.cache, "%s.json" % digest)
        hit = _read_entry(path, command)
        if hit is not None:
            return hit
    report = compute()
    t = time.perf_counter()
    body = _body_text({k: report[k] for k in BODY_KEYS}).encode()
    report["timing"]["encode"] = round(time.perf_counter() - t, 4)
    if path is not None:
        tmp = "%s.%d.tmp" % (path, os.getpid())
        try:
            os.makedirs(args.cache, exist_ok=True)
            with open(tmp, "wb") as fh:
                fh.write(hashlib.sha256(body).hexdigest().encode() + b"\n")
                fh.write(body)
            os.replace(tmp, path)
        except OSError as exc:
            print("[gfpp] cache not written: %s" % exc, file=sys.stderr)
            with contextlib.suppress(OSError):  # never created
                os.remove(tmp)
    return report, memoryview(body)


def _run_command(args) -> tuple[dict, memoryview]:
    """The report of args.command and a view of its body (see _with_cache):
    the command's stages on the field of every q, then the upper-half grid
    of every p; served from the cache when one is given.  Its params are
    the args that its parser block names, in that order.  A p of
    identities above the field cap, or one that is not an odd prime, gets
    one error row and a failing verdict instead of its grid.  A cache hit
    enumerates no q and no p."""
    command = args.command
    params = {name: getattr(args, name) for name in args.params}

    def compute() -> dict:
        # A stage that has a --with-NAME flag runs only under that flag.
        stages = [s for s in args.stages if getattr(args, "with_" + s[0], True)]
        if command == "verify-all":
            qs = odd_prime_powers(min(args.q_max, args.field_cap))
            ps, p_cap = args.upper_half_primes, math.inf
        else:
            qs = [args.q] if command == "girth" else args.q
            ps, p_cap = getattr(args, "p", ()), args.field_cap
        modulus_by_q, rows, verdicts, seconds = _run_jobs(stages, qs, args)
        uh_seconds = {}
        for p in ps:
            from . import criterion  # before the grid's clock starts

            t = time.perf_counter()
            try:
                if p > p_cap:
                    # The grid first tests p for primality by trial
                    # division, which takes long for a huge p.
                    raise cap_error("p", p, "field", p_cap)
                uh_rows, uh_verdict = criterion.upper_half_grid(p)
            except _JOB_ERRORS as exc:
                row, uh_verdict = _failure("upper_half", "p", p, exc)
                uh_rows = [row]
            rows.extend(uh_rows)
            verdicts.append(uh_verdict)
            uh_seconds[str(p)] = round(time.perf_counter() - t, 4)
        overall = "pass" if all(v.get("passed") for v in verdicts) else "fail"
        return {"command": command, "params": params,
                "modulus_by_q": modulus_by_q, "rows": rows, "verdicts": verdicts,
                "overall": overall, "version": __version__,
                "timing": {"stages": seconds, "upper_half": uh_seconds}}

    return _with_cache(args, command, params, compute)


# -- argument parsing --------------------------------------------------------

def _ints(text: str) -> list[int]:
    """The integers of a comma-separated list, or [] if one is malformed."""
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        return []


def _int_list(text: str) -> list[int]:
    """Q,Q,...: the sorted distinct values of a non-empty list."""
    values = sorted(set(_ints(text)))
    if not values:
        raise argparse.ArgumentTypeError("expected a comma-separated list of integers: %r" % text)
    return values


def _exps(text: str) -> list[int]:
    """A,B,C,D: four non-negative exponents, in the order given.  A negative
    one is no monomial exponent: the log tables would read x^-1 as the
    inverse and 0^-1 as 0."""
    values = _ints(text)
    if len(values) != 4 or min(values) < 0:
        raise argparse.ArgumentTypeError(
            "expected exactly four non-negative integers A,B,C,D: %r" % text)
    return values


def build_parser() -> argparse.ArgumentParser:
    """Each command's parser block adds the options it reads and declares
    its params and stages (see _run_command)."""
    parser = argparse.ArgumentParser(
        prog="gfpp",
        description="Exhaustive finite-field checks: permutation-polynomial "
                    "sweeps, binomial-sum identities, and monomial-graph girth.")
    parser.set_defaults(csv=None)  # the emitter's view for a command without --csv
    sub = parser.add_subparsers(dest="command", required=True)

    def declare(sp, params, stages):
        """Record the params, which name options in report order, and the
        stages of `sp`, and add the options that every command reads, then
        --csv where the stages make sweep rows and --girth-cap where it is
        a param."""
        sp.set_defaults(params=params, stages=stages)
        sp.add_argument("--json", metavar="PATH",
                        help="write the JSON report to PATH instead of stdout")
        sp.add_argument("--jobs", type=int, default=os.cpu_count() or 1, metavar="N",
                        help="worker processes, at most one per core "
                             "(default: all cores)")
        sp.add_argument("--cache", metavar="DIR", help="result cache directory")
        sp.add_argument("--field-cap", type=int, default=DEFAULT_FIELD_CAP, metavar="N",
                        help="max field size (default %(default)s)")
        if _SWEEP in stages:
            sp.add_argument("--csv", metavar="PATH",
                            help="write sweep rows to PATH as CSV")
        if "girth_cap" in params:
            sp.add_argument("--girth-cap", type=int, default=DEFAULT_GIRTH_CAP,
                            metavar="N", help="max q for girth BFS (default %(default)s)")

    sp = sub.add_parser("sweep", help="per-(q, k) PP sweep with per-q verdicts")
    sp.add_argument("--q", type=_int_list, required=True, metavar="Q,Q,...")
    sp.add_argument("--which", choices=("A", "B", "two"), default="two",
                    help="which family's witness set to judge (default: two)")
    sp.add_argument("--with-criterion", action="store_true",
                    help="also evaluate the binomial-sum criterion per k")
    sp.add_argument("--with-girth", action="store_true",
                    help="also test girth >= 8 of G_q(XY, X^kY^2k) per k")
    declare(sp, ("q", "which", "with_criterion", "with_girth", "field_cap", "girth_cap"),
            (_SWEEP, _CRITERION, _GIRTH_SCAN))

    sp = sub.add_parser("identities",
                        help="support-identity grid per q (e >= 3) and the "
                             "upper-half sum grid per p")
    sp.add_argument("--q", type=_int_list, default=[], metavar="Q,Q,...")
    sp.add_argument("--p", type=_int_list, default=[], metavar="P,P,...")
    declare(sp, ("q", "p", "field_cap"), (_IDENTITIES,))

    sp = sub.add_parser("girth", help="exact girth of one monomial graph")
    sp.add_argument("--q", type=int, required=True)
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--k", type=int, default=None,
                       help="use the family G_q(XY, X^kY^2k)")
    group.add_argument("--exps", type=_exps, default=None, metavar="A,B,C,D",
                       help="explicit exponents for f = X^AY^B, g = X^CY^D")
    declare(sp, ("q", "k", "f_exps", "g_exps", "field_cap", "girth_cap"), (_GIRTH,))

    sp = sub.add_parser("verify-all",
                        help="run every suite for all odd prime powers up to --q-max")
    sp.add_argument("--q-max", type=int, required=True, dest="q_max")
    sp.set_defaults(upper_half_primes=list(UPPER_HALF_PRIMES))
    declare(sp, ("q_max", "field_cap", "girth_cap", "upper_half_primes"),
            (_SWEEP, _CRITERION, _IDENTITIES, _GIRTH_SCAN))

    sp = sub.add_parser("field-info", help="modulus and parameters per field")
    sp.add_argument("--q", type=_int_list, required=True, metavar="Q,Q,...")
    declare(sp, ("q", "field_cap"), (_FIELD,))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be at least 1, got %d" % args.jobs)
    if args.command == "identities" and not (args.q or args.p):
        parser.error("identities needs --q or --p")
    if args.command == "verify-all" and min(args.q_max, args.field_cap) < 3:
        parser.error("verify-all needs --q-max and --field-cap of at least 3")
    if args.command == "girth":
        a, b, c, d = args.exps or (1, 1, args.k, 2 * args.k)
        args.f_exps, args.g_exps = [a, b], [c, d]
    started = time.perf_counter()
    report, body = _run_command(args)
    report["timing"]["seconds"] = round(time.perf_counter() - started, 3)
    if not _emit(report, body, args):
        return 2
    return 0 if report["overall"] == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
