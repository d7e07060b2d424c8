"""Command-line runner: per-field stages, the report, the cache and the parser.

Each command is declared once, in its parser block: the options it reads
and no others (--girth-cap only where a stage reads it), its params,
named in report order and read from those options, and the stages it
runs, in order, on the field of every q.  Every value comes from a flag
or its default; no environment variable sets one.  A stage calls the
library modules it names (permpoly, criterion, graphs), or none, and
returns rows and verdicts as dicts.  Stages share the sweep's PP flags,
not rows: each job builds its sweep rows from them and encodes all its
rows, so only row text leaves a job.  Every row is a flat dict of
scalars, with no list that the params or modulus_by_q hold and no key
that its other keys determine but an identity row's wrap.  A stage's
check says, before any table is built, whether the stage serves a field;
the runner alone decides what a skip reports.  One of _JOB_ERRORS raised
by a stage ends its field's job with an error row and a failing verdict
in its own section, as it ends the upper-half grid of a p.  The report
itself is a dict of BODY_KEYS plus "timing"; the runner records the
seconds of building the field and its tables, of each stage that runs
and of encoding the rows in timing.stages, keyed by q, and the seconds
of each upper-half grid in timing.upper_half, keyed by p.  Commands emit
a single JSON report on the data stream (stdout, or --json PATH) and
verdict lines on stderr.  Reports are deterministic apart from the
top-level "timing" entry; the exit status is 0 iff every verdict passes.

A report body is assembled once, from the row text: the bytes the cache
stores, or would store, are the bytes emitted, with "timing" spliced in
as its last key.  A cache hit checks its entry's digest and parses only
the verdicts and what follows them, and no path decodes a body's rows.
The process pool is imported only when more than one worker runs, and a
stage's modules only where the stage serves a field, so a cache hit
loads none.  A job imports them before the stage clocks start.
"""

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
from .field import (DEFAULT_FIELD_CAP, Field, GfppError, cap_error, factor_prime_power,
                    odd_prime_powers, poly_str)

# The largest q whose girth the girth stage checks by default: the scan runs
# one BFS per Frobenius orbit of k, and only the p-powers' BFS, which finds
# no cycle below 8, scans about q^3 edges.
DEFAULT_GIRTH_CAP = 17

UPPER_HALF_PRIMES = (3, 5, 7, 11, 13)

# Part of every cache key: bump it whenever a change alters what a command
# reports for the same params, so that stale entries are never served.
CACHE_SCHEMA = 8


# The deterministic part of a report, keys in the order they are written.
# A report is a dict of these keys plus "timing", which comes last.
BODY_KEYS = ("command", "params", "modulus_by_q", "rows", "verdicts", "overall",
             "version")


# -- per-field stages --------------------------------------------------------
#
# A stage is (name, run, modules, tables, check).  run(fld, args, facts)
# makes the stage's library call on one field and returns the rows and
# verdicts it adds; `facts` is the job's dict where the sweep stores its
# flags and the girth scan its ge8 flags, for the stages after them and
# the job's sweep rows.  `modules` names the gfpp modules it imports and
# `tables` the Field methods that build the tables it reads, both of which
# the runner loads first, the modules outside every clock.  check(fld,
# args), or None, runs before either: it raises for arguments the stage
# cannot take, and returns why the stage does not serve this field, or
# None when it does.  Stage functions are top-level so that they pickle
# for the process pool.

# What ends a unit of work, a field's job or a p's upper-half grid, with an
# error row and a failing verdict instead of a traceback.
_JOB_ERRORS = (GfppError, ValueError)


def _failure(section: str, key: str, n: int, exc: Exception) -> tuple[dict, dict]:
    """The error row and the failing verdict that report exc for q = n or
    p = n, as `key` says."""
    err = "%s: %s" % (type(exc).__name__, exc)
    return ({"kind": "error", key: n, "error": err},
            {"section": section, key: n, "error": err, "passed": False})


def _sweep(fld: Field, args, facts: dict) -> tuple[list, list]:
    """Every exponent's PP flags, as facts["sweep"], judged for each of
    args.families; the job builds their rows."""
    from . import permpoly

    flags = facts["sweep"] = permpoly.sweep(fld)
    return [], [permpoly.conjecture_verdict(fld, w, flags) for w in args.families]


def _criterion(fld: Field, args, facts: dict) -> tuple[list, list]:
    """The criterion against the sweep's a_pp flags: a row per k where the
    two disagree, and the verdict."""
    from . import criterion

    cc_rows, verdict = criterion.cross_check(fld, facts["sweep"])
    return cc_rows, [verdict]


def _identities_check(fld: Field, args) -> str | None:
    """The support-identity grid is defined for e >= 3."""
    return "ParamDomain: e = %d < 3" % fld.e if fld.e < 3 else None


def _identities(fld: Field, args, facts: dict) -> tuple[list, list]:
    """The support-identity grid and its verdict."""
    from . import criterion

    id_rows, verdict = criterion.identity_grid(fld)
    return id_rows, [verdict]


def _girth_scan_check(fld: Field, args) -> str | None:
    """The girth scan serves a q within --girth-cap."""
    if fld.q > args.girth_cap:
        return "CapExceeded: %s" % cap_error("q", fld.q, "girth", args.girth_cap)


def _girth_scan(fld: Field, args, facts: dict) -> tuple[list, list]:
    """Whether G_q(XY, X^kY^2k) has girth >= 8, stored as facts["girth"],
    and the verdict against the sweep's flags; a row per k."""
    from . import graphs

    ge8, verdict = graphs.girth_scan(fld, facts["sweep"])
    facts["girth"] = ge8
    return ([{"kind": "girth", "q": fld.q, "k": k, "girth_ge_8": ok}
             for k, ok in enumerate(ge8, 1)], [verdict])


def _girth_check(fld: Field, args) -> None:
    """The girth command's k must lie in 1..q-1 and its q within the girth
    cap: it names one graph, so a skip would answer nothing."""
    q, k = fld.q, args.k
    if k is not None and not 1 <= k <= q - 1:
        raise ValueError("k must be in 1..%d, got %d" % (q - 1, k))
    if q > args.girth_cap:
        raise cap_error("q", q, "girth", args.girth_cap)


def _girth(fld: Field, args, facts: dict) -> tuple[list, list]:
    """The exact girth of one graph; for G_q(XY, X^kY^2k), also whether
    girth >= 8 implies that a_k and b_k are PPs."""
    from . import graphs, permpoly

    q, k = fld.q, args.k
    value = graphs.girth(fld, args.f_exps, args.g_exps)
    girth = None if value == math.inf else int(value)
    row = {"kind": "girth", "q": q, "k": k, "girth": girth}
    if k is None:
        return [row], [{"section": "girth", "q": q, "girth": girth, "passed": True}]
    a_pp, b_pp = permpoly.sweep_record(fld, k)
    row.update(a_pp=a_pp, b_pp=b_pp)
    implication_ok = value < 8 or (a_pp and b_pp)
    return [row], [{"section": "girth", "q": q, "k": k, "girth": girth,
                    "implication_ok": implication_ok, "passed": implication_ok}]


def _field(fld: Field, args, facts: dict) -> tuple[list, list]:
    return ([{"kind": "field", "q": fld.q, "p": fld.p, "e": fld.e,
              "modulus_str": poly_str(fld.modulus)}],
            [{"section": "field", "q": fld.q, "passed": True}])


_SWEEP = ("sweep", _sweep, ("permpoly",), ("log_tables",), None)
_CRITERION = ("criterion", _criterion, ("criterion",), ("binom_tables",), None)
_IDENTITIES = ("identities", _identities, ("criterion",), ("binom_tables",),
               _identities_check)
_GIRTH_SCAN = ("girth", _girth_scan, ("graphs",), ("log_tables",), _girth_scan_check)
_GIRTH = ("girth", _girth, ("graphs", "permpoly"), ("log_tables",), _girth_check)
_FIELD = ("field", _field, (), (), None)


def _row_text(rows: list) -> bytes:
    """`rows`, flat dicts of scalars as every command's are, as
    json.dumps(body, indent=2) writes them inside the body's "rows" list,
    brackets excluded; b"" for none.  An indent makes json.dumps use its
    pure-Python encoder, so they take one call of the C encoder, with the
    indented layout's separators: JSON text holds no raw newline inside a
    string, so "},\n      {" can only be the seam between two rows."""
    if not rows:
        return b""
    flat = json.dumps(rows, separators=(",\n      ", ": ")).encode()
    flat = flat.replace(b"},\n      {", b"\n    },\n    {\n      ")
    return b"    {\n      %s\n    }" % memoryview(flat)[2:-2]


def _run_job(spec):
    """Build GF(q), run the stages on it, in order, and encode its rows.

    Returns (modulus, row_text, verdicts, seconds).  The modulus is recorded
    as soon as the field exists, and every stage's check runs before any
    module is imported or table built.  Building the field and the tables
    of the stages that serve it is timed as stage "field", and each stage
    that runs under its name; the modules of the stages that serve it are
    imported between the two, untimed.  A skipped stage adds nothing under
    verify-all, which covers every q, and a passing verdict that says why
    under a command that names q.  One of _JOB_ERRORS ends the job with one
    error row and one failing verdict, in the section of the stage that
    raised it, or of the first stage while the field is built or checked;
    the stages that finished keep their rows, verdicts, facts and times.
    Last, the sweep's flags become one row per k, ahead of the stages'
    rows, with girth_ge_8 last where the girth scan ran, and every row is
    encoded by _row_text, timed as stage "encode".
    """
    stages, q, args = spec
    section = stages[0][0]
    modulus, rows, verdicts, seconds, facts = None, [], [], {}, {}
    try:
        # Factoring a large q by trial division takes long: a q above the
        # field cap is rejected first, as Field would reject it.
        if q > args.field_cap:
            raise cap_error("q", q, "field", args.field_cap)
        p, e = factor_prime_power(q)
        t = time.perf_counter()
        fld = Field(p, e, cap=args.field_cap)
        modulus = list(fld.modulus)
        skips = [check and check(fld, args) for _, _, _, _, check in stages]
        built = time.perf_counter() - t
        for (_, _, modules, _, _), skip in zip(stages, skips):
            for module in () if skip else modules:
                import_module("." + module, __package__)
        t = time.perf_counter()
        for (_, _, _, tables, _), skip in zip(stages, skips):
            for table in () if skip else tables:
                getattr(fld, table)()
        seconds["field"] = round(built + time.perf_counter() - t, 4)
        for (section, run, _, _, _), skip in zip(stages, skips):
            if skip:
                if args.command != "verify-all":
                    verdicts.append({"section": section, "q": q, "skipped": skip,
                                     "passed": True})
                continue
            t = time.perf_counter()
            stage_rows, stage_verdicts = run(fld, args, facts)
            rows += stage_rows
            verdicts += stage_verdicts
            seconds[section] = round(time.perf_counter() - t, 4)
    except _JOB_ERRORS as exc:
        row, verdict = _failure(section, "q", q, exc)
        rows.append(row)
        verdicts.append(verdict)
    t = time.perf_counter()
    sweep_rows = [{"kind": "sweep", "q": q, "k": k, "a_pp": a_pp, "b_pp": b_pp}
                  for k, (a_pp, b_pp) in enumerate(facts.get("sweep", ()), 1)]
    for row, ok in zip(sweep_rows, facts.get("girth", ())):
        row["girth_ge_8"] = ok
    text = _row_text(sweep_rows + rows)
    seconds["encode"] = round(time.perf_counter() - t, 4)
    return modulus, text, verdicts, seconds


def _run_jobs(stages, qs, args) -> tuple[dict, list, list, dict]:
    """Run `stages` on the field of every q in qs, fanned out to a process
    pool.  Results merge in input order, so the report is deterministic
    regardless of completion order.  Returns (modulus_by_q, row_texts,
    verdicts, seconds_by_q): each job's row text, so that the pool returns
    bytes, and the seconds keyed by str(q) for the timing entry."""
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
    modulus_by_q, row_texts, verdicts, seconds_by_q = {}, [], [], {}
    for q, (modulus, text, job_verdicts, seconds) in zip(qs, results):
        if modulus is not None:
            modulus_by_q[str(q)] = modulus
        row_texts.append(text)
        verdicts.extend(job_verdicts)
        seconds_by_q[str(q)] = seconds
    return modulus_by_q, row_texts, verdicts, seconds_by_q


# -- output ---------------------------------------------------------------

def _drop(stream) -> None:
    """Point `stream`'s file descriptor at os.devnull, so that what its
    buffer still holds does not fail again when the interpreter flushes it
    at exit."""
    fd = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(fd, stream.fileno())
    finally:
        os.close(fd)


def _emit(report: dict, body: memoryview, args) -> int:
    """Write the report, then the verdict lines on stderr, and return the
    exit status: 0 iff every verdict passes, and 2, with no traceback, when
    stdout, --json or stderr cannot be written, as when a reader has gone.
    An unwritable stdout or --json gets one line on stderr that names it
    instead of the verdict lines.

    `body` views the body's bytes as _with_cache lays them out, ending in
    b"\n}\n", and timing goes in as the last key, with the seconds of
    writing the body as timing.emit.  JSON text holds no raw newline
    inside a string, so indenting the timing's lines by two spaces nests
    it exactly as json.dumps(..., indent=2) of the whole report would."""
    timing, path = report["timing"], args.json
    try:
        t = time.perf_counter()
        with open(path, "wb") if path else contextlib.nullcontext(sys.stdout.buffer) as fh:
            fh.write(body[:-3])
            timing["emit"] = round(time.perf_counter() - t, 4)
            tail = json.dumps(timing, indent=2).replace("\n", "\n  ")
            fh.write(b',\n  "timing": %s\n}\n' % tail.encode())
            fh.flush()
    except OSError as exc:
        if path is None:
            _drop(sys.stdout)
        status = 2
        lines = ["[gfpp] cannot write %s: %s" % (path or "stdout", exc.strerror or exc)]
    else:
        status = 0 if report["overall"] == "pass" else 1
        lines = []
        for v in report["verdicts"]:
            where = "".join(" %s=%s" % (key, v[key]) for key in ("q", "p", "which") if key in v)
            skipped = " (skipped: %s)" % v["skipped"] if "skipped" in v else ""
            lines.append("[%s] %s%s%s" % ("PASS" if v["passed"] else "FAIL", v["section"],
                                          where, skipped))
        lines.append("[gfpp] %s: %s in %ss" % (report["command"], report["overall"],
                                              timing["seconds"]))
    try:
        print("\n".join(lines), file=sys.stderr, flush=True)
    except OSError:
        _drop(sys.stderr)
        return 2
    return status


# -- result cache ----------------------------------------------------------

def _body_text(body: dict) -> bytes:
    """json.dumps(body, indent=2) plus a newline, as bytes, for a body whose
    "rows" is a list of _row_text fragments: the rest of the body's dump
    with the fragments that are not empty spliced in, joined by the seam
    between two rows, in one join, so no str of the whole body is made."""
    rest = json.dumps(dict(body, rows=[]), indent=2).encode()
    fragments = [f for f in body["rows"] if f]
    if not fragments:
        return rest + b"\n"
    head, tail = rest.split(b'\n  "rows": []', 1)
    parts = [head, b'\n  "rows": [\n']
    for fragment in fragments:
        parts += (fragment, b",\n")
    parts[-1] = b"\n  ]"
    parts += (tail, b"\n")
    return b"".join(parts)


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

    Returns a view of the body's bytes, json.dumps(body, indent=2) plus a
    newline, and what the emitter reads of the report: the command, the
    verdicts, overall, version and timing, and no rows, on a hit and on a
    miss alike.  A hit's body is the entry's, checked by its digest (see
    _read_entry).  An entry that fails a check is treated as a miss:
    recomputed and rewritten.  An entry is written to a temp file in the
    cache directory and renamed into place, so it is never seen
    half-written; when it cannot be written, the temp file is removed, the
    report is still returned and stderr says why.  A miss records the
    seconds of assembling the body from the row text in timing.encode.
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
    body = _body_text({k: report[k] for k in BODY_KEYS})
    report["timing"]["encode"] = round(time.perf_counter() - t, 4)
    report = {k: report[k] for k in _TAIL_KEYS + ("command", "timing")}
    if path is not None:
        tmp = "%s.%d.tmp" % (path, os.getpid())
        try:
            os.makedirs(args.cache, exist_ok=True)
            with open(tmp, "wb") as fh:
                fh.write(hashlib.sha256(body).hexdigest().encode() + b"\n")
                fh.write(body)
            os.replace(tmp, path)
        except OSError as exc:
            with contextlib.suppress(OSError):  # a closed stderr fails _emit
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
        modulus_by_q, row_texts, verdicts, seconds = _run_jobs(stages, qs, args)
        uh_seconds = {}
        for p in ps:
            from . import criterion  # before the grid's clock starts

            t = time.perf_counter()
            try:
                if p > p_cap:
                    # The grid tests p for primality by trial division
                    # and builds GF(p)'s O(p) Lucas tables, both long
                    # for a huge p.
                    raise cap_error("p", p, "field", p_cap)
                uh_rows, uh_verdict = criterion.upper_half_grid(p)
            except _JOB_ERRORS as exc:
                row, uh_verdict = _failure("upper_half", "p", p, exc)
                uh_rows = [row]
            row_texts.append(_row_text(uh_rows))
            verdicts.append(uh_verdict)
            uh_seconds[str(p)] = round(time.perf_counter() - t, 4)
        overall = "pass" if all(v.get("passed") for v in verdicts) else "fail"
        return {"command": command, "params": params,
                "modulus_by_q": modulus_by_q, "rows": row_texts, "verdicts": verdicts,
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
    sub = parser.add_subparsers(dest="command", required=True)

    def declare(sp, params, stages):
        """Record the params, which name options in report order, and the
        stages of `sp`, and add the options that every command reads, then
        --girth-cap where it is a param."""
        sp.set_defaults(params=params, stages=stages)
        sp.add_argument("--json", metavar="PATH",
                        help="write the JSON report to PATH instead of stdout")
        sp.add_argument("--jobs", type=int, default=os.cpu_count() or 1, metavar="N",
                        help="worker processes, at most one per core "
                             "(default: all cores)")
        sp.add_argument("--cache", metavar="DIR", help="result cache directory")
        sp.add_argument("--field-cap", type=int, default=DEFAULT_FIELD_CAP, metavar="N",
                        help="max field size (default %(default)s)")
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
    sp.set_defaults(upper_half_primes=list(UPPER_HALF_PRIMES), families=("A", "B", "two"))
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
    if args.command == "sweep":
        args.families = (args.which,)
    if args.command == "girth":
        a, b, c, d = args.exps or (1, 1, args.k, 2 * args.k)
        args.f_exps, args.g_exps = [a, b], [c, d]
    started = time.perf_counter()
    report, body = _run_command(args)
    report["timing"]["seconds"] = round(time.perf_counter() - started, 3)
    return _emit(report, body, args)


if __name__ == "__main__":
    sys.exit(main())
