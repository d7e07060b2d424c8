"""Judges a gfpp report against answers the benchmark derives itself.

The oracle knows only the workload's command line.  From it, it derives
which operations the report must settle and what the right answer is:

- sweep q=Q which=A|B: the k with a_k (b_k) a permutation are exactly the
  powers of p, both in the rows and in the verdict when there is one;
- sweep q=Q which=two: the k with both maps permutations are powers of p;
- girth q=Q: the k with girth >= 8 are exactly the powers of p;
- criterion q=Q: no exponent where the criteria and the direct test differ;
- identities q=Q: every support-identity point matches (apart from the
  analysed u = v = 0 wrap corner, which must read lhs 0, rhs 1);
- upper_half p=P: every upper-half sum is 1.

An error row, or no report at all, fails every operation it touches.
judge() maps each operation to None when it holds and to a short,
deterministic reason when it does not.
"""

from __future__ import annotations

import hashlib
import json

# verify-all judges the upper-half sums for these primes (gfpp's own choice,
# restated here so that the oracle does not read it from the report).
UPPER_HALF_PRIMES = (3, 5, 7, 11, 13)


def factor(q: int) -> tuple[int, int]:
    """(p, e) with q = p^e and p prime; raises ValueError otherwise."""
    if q < 2:
        raise ValueError("%d is not a prime power" % q)
    p = next((f for f in range(2, int(q**0.5) + 1) if q % f == 0), q)
    n, e = q, 0
    while n % p == 0:
        n //= p
        e += 1
    if n != 1:
        raise ValueError("%d is not a prime power" % q)
    return p, e


def odd_prime_powers(limit: int) -> list[int]:
    out = []
    for q in range(3, limit + 1):
        try:
            p, _ = factor(q)
        except ValueError:
            continue
        if p != 2:
            out.append(q)
    return out


def p_powers(q: int) -> list[int]:
    p, e = factor(q)
    return [p**i for i in range(e)]


def parse_command(argv: list[str]) -> tuple[str, dict]:
    """gfpp argv -> (command, {option: value}); bare flags map to True."""
    opts: dict = {}
    i = 1
    while i < len(argv):
        key = argv[i].lstrip("-").replace("-", "_")
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            opts[key] = argv[i + 1]
            i += 2
        else:
            opts[key] = True
            i += 1
    return argv[0], opts


def workload_qs(argv: list[str]) -> list[int]:
    """The field sizes a workload's command covers, ascending."""
    command, opts = parse_command(argv)
    cap = int(opts["field_cap"])
    if command == "verify-all":
        return [q for q in odd_prime_powers(int(opts["q_max"])) if q <= cap]
    return sorted({int(tok) for tok in opts["q"].split(",")})


def expected_ops(argv: list[str]) -> list[str]:
    """Every operation the report of this command must settle, in order."""
    command, opts = parse_command(argv)
    ops = []
    for q in workload_qs(argv):
        ops += ["sweep q=%d which=%s" % (q, w) for w in ("A", "B", "two")]
        if command == "verify-all":
            ops.append("criterion q=%d" % q)
            if factor(q)[1] >= 3:
                ops.append("identities q=%d" % q)
        if (command == "verify-all" and q <= int(opts["girth_cap"])) or opts.get("with_girth"):
            ops.append("girth q=%d" % q)
    if command == "verify-all":
        ops += ["upper_half p=%d" % p for p in UPPER_HALF_PRIMES]
    return ops


def body_digest(report: dict) -> str:
    """SHA-256 of the report without its timing entry, in canonical JSON."""
    body = {k: v for k, v in report.items() if k != "timing"}
    return hashlib.sha256(json.dumps(body, sort_keys=True, separators=(",", ":"))
                          .encode()).hexdigest()


def judge(report: dict | None, argv: list[str]) -> dict[str, str | None]:
    """Operation -> None if it holds, else the reason it fails."""
    ops = expected_ops(argv)
    if report is None:
        return {op: "no report" for op in ops}
    command, opts = parse_command(argv)
    rows: dict[tuple, list] = {}
    for r in report.get("rows", ()):
        rows.setdefault((r.get("kind"), r.get("q", r.get("p"))), []).append(r)
    verdicts = {}
    for v in report.get("verdicts", ()):
        verdicts[(v.get("section"), v.get("q", v.get("p")), v.get("which"))] = v
    out = {}
    for op in ops:
        section, where = op.split(" ")[:2]
        n = int(where.split("=")[1])
        if ("error", n) in rows:
            out[op] = "error row"
        elif section == "sweep":
            which = op.rsplit("=", 1)[1]
            required = command == "verify-all" or which == opts.get("which", "two")
            out[op] = _sweep(n, which, rows.get(("sweep", n), []),
                             verdicts.get(("sweep", n, which)), required)
        elif section == "girth":
            out[op] = _girth(n, rows, verdicts.get(("girth", n, None)),
                             command == "verify-all")
        elif section == "criterion":
            out[op] = _criterion(n, rows, verdicts.get(("criterion", n, None)))
        elif section == "identities":
            out[op] = _identities(rows.get(("identity", n), []),
                                  verdicts.get(("identities", n, None)))
        else:
            out[op] = _upper_half(rows.get(("upper_half", n), []),
                                  verdicts.get(("upper_half", n, None)))
    return out


def _sweep(q, which, rows, verdict, required):
    if sorted(r["k"] for r in rows) != list(range(1, q)):
        return "sweep rows do not cover k = 1..q-1"
    if which == "A":
        wit = [r["k"] for r in rows if r["a_pp"]]
    elif which == "B":
        wit = [r["k"] for r in rows if r["b_pp"]]
    else:
        wit = [r["k"] for r in rows if r["a_pp"] and r["b_pp"]]
    expected = p_powers(q)
    if which == "two" and not set(wit) <= set(expected):
        return "both-PP exponents %s are not all p-powers" % sorted(set(wit) - set(expected))
    if which != "two" and wit != expected:
        return "PP exponents %s != p-powers %s" % (wit, expected)
    if verdict is None:
        return "no verdict" if required else None
    if verdict.get("witnesses") != wit or verdict.get("passed") is not True:
        return "verdict disagrees with rows"
    return None


def _girth(q, rows, verdict, needs_verdict):
    if needs_verdict:
        flags = {r["k"]: r["girth_ge_8"] for r in rows.get(("girth", q), [])}
    else:
        flags = {r["k"]: r["girth_ge_8"] for r in rows.get(("sweep", q), [])}
    if sorted(flags) != list(range(1, q)) or None in flags.values():
        return "girth flags do not cover k = 1..q-1"
    passing = sorted(k for k, ge8 in flags.items() if ge8)
    if passing != p_powers(q):
        return "girth >= 8 at %s != p-powers %s" % (passing, p_powers(q))
    if needs_verdict and (verdict is None or verdict.get("witnesses") != passing
                          or not verdict.get("implication_ok") or not verdict.get("passed")):
        return "verdict disagrees with rows"
    return None


def _criterion(q, rows, verdict):
    if rows.get(("criterion_mismatch", q)):
        return "criterion mismatch at k = %s" % [r["k"] for r in rows[("criterion_mismatch", q)]]
    if (verdict is None or verdict.get("mismatch_ks") != [] or verdict.get("checked") != q - 1
            or verdict.get("passed") is not True):
        return "verdict disagrees with rows"
    return None


def _identities(rows, verdict):
    if not rows:
        return "no identity rows"
    mismatches = sum(1 for r in rows if not r["wrap"] and r["lhs"] != r["rhs"])
    if mismatches:
        return "%d mismatches" % mismatches
    if any((r["lhs"], r["rhs"]) != (0, 1) for r in rows if r["wrap"]):
        return "wrap corner not as analysed"
    if verdict is None or verdict.get("mismatches") != 0 or verdict.get("passed") is not True:
        return "verdict disagrees with rows"
    return None


def _upper_half(rows, verdict):
    if not rows:
        return "no upper-half rows"
    bad = sum(1 for r in rows if r["value"] != 1)
    if bad:
        return "%d values differ from 1" % bad
    if verdict is None or verdict.get("passed") is not True:
        return "verdict disagrees with rows"
    return None
