"""Seeded, offline input generator for the catchrec benchmark.

A workload is a list of cases. Each case is one context (the code under
development) and the pool of files a code search for its query returns.
The generator writes Java from small templates, varying names, literals,
object counts and statement order by seed, and takes bulk and handler
statements from the committed ``tests/fixtures/**/*.java``. For every case
it records what it planted: the exception and dominant class of the query,
one candidate that contains the context verbatim, the files each filter
rule must drop, and for the evaluation workload the relevant ids.

The shape of a workload (how many cases, their sizes, the pool make-up) is
fixed per workload; the seed only chooses among equivalent variants, so the
work per run stays the same from seed to seed.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from pathlib import Path

from oracles import brackets_balance, local_id, remote_id

ORGS = ["apache", "eclipse", "facebook", "twitter"]
LIMIT = 70
DROP_RULES = ("no-handler", "no-exception-mention", "too-short", "too-long")
DROPS_PER_RULE = 2
MAX_SLOC = 300  # CorpusFilter default, documented in docs/corpus.md

# Simple type -> (exception its knowledge-base rows declare, methods with a
# knowledge-base row, methods without one).
ACTORS: dict[str, tuple[str, tuple[str, ...], tuple[str, ...]]] = {
    "BufferedReader": ("IOException", ("readLine", "read", "close"), ("ready", "mark")),
    "InputStream": ("IOException", ("read", "close"), ("available", "markSupported")),
    "OutputStream": ("IOException", ("write", "flush", "close"), ("hashCode",)),
    "BufferedWriter": ("IOException", ("write", "newLine", "flush", "close"), ("append",)),
    "URL": ("IOException", ("openConnection", "openStream", "getContent"), ("getHost", "getPath")),
    "HttpURLConnection": (
        "IOException",
        ("getResponseCode", "getInputStream", "getOutputStream"),
        ("setDoOutput", "setConnectTimeout", "disconnect"),
    ),
    "Socket": ("IOException", ("getInputStream", "getOutputStream", "close"), ("setSoTimeout", "isConnected")),
    "URLConnection": ("IOException", ("connect", "getInputStream"), ("setReadTimeout",)),
    "ObjectOutputStream": ("IOException", ("writeObject",), ("reset",)),
    "DatagramSocket": ("IOException", ("send", "receive"), ("setSoTimeout",)),
    "Connection": ("SQLException", ("createStatement", "prepareStatement", "close"), ("setAutoCommit",)),
    "PreparedStatement": ("SQLException", ("executeQuery", "executeUpdate", "setString"), ("clearParameters",)),
    "ResultSet": ("SQLException", ("next", "getString", "getInt"), ("wasNull",)),
    "Statement": ("SQLException", ("executeQuery", "executeUpdate", "close"), ("setMaxRows",)),
    "Thread": ("InterruptedException", ("join",), ("start", "interrupt")),
    "Process": ("InterruptedException", ("waitFor",), ("destroy", "exitValue")),
    "SimpleDateFormat": ("ParseException", ("parse",), ("setLenient", "format")),
}
FAMILY = {
    exc: sorted(t for t, (e, _k, _n) in ACTORS.items() if e == exc)
    for exc in {e for e, _k, _n in ACTORS.values()}
}
DOMAIN_PREFIX = (
    "Order", "Invoice", "Customer", "Account", "Report", "Session", "Ticket", "Payment",
    "Shipment", "Profile", "Catalog", "Ledger", "Booking", "Sensor", "Tenant", "Audit",
)
DOMAIN_SUFFIX = ("Repository", "Gateway", "Client", "Store", "Loader", "Exporter", "Registry", "Service")
DOMAIN_METHODS = ("load", "save", "refresh", "update", "find", "sync", "apply", "record", "touch")
SOURCES = ("resources", "registry", "factory", "context", "pool", "provider")
WORDS = (
    "alpha", "bravo", "delta", "echo", "gamma", "kilo", "lima", "omega", "sigma", "tango",
    "region", "batch", "window", "target", "buffer", "cursor", "offset", "marker",
)
OTHER_EXCEPTIONS = ("IllegalStateException", "IllegalArgumentException", "UnsupportedOperationException")


@dataclass
class PoolFile:
    repo: str
    path: str
    text: str
    role: str  # verbatim | related | relevant | one of DROP_RULES

    @property
    def id(self) -> str:
        return remote_id(self.repo, self.path)

    @property
    def org(self) -> str:
        return self.repo.split("/", 1)[0]

    @property
    def local_id(self) -> str:
        """Id the file gets when its cache ``files/`` directory is ingested
        as a local corpus (``<remote id>.java`` relative to that directory)."""
        return local_id(f"{self.id}.java")


@dataclass
class Case:
    name: str
    context: str
    exception: str
    dominant: str
    generic_catch: bool
    pool: list[PoolFile] = field(default_factory=list)
    # Planted type -> object count; the relevant files of a fragment pool
    # use the same types.
    context_types: dict[str, int] = field(default_factory=dict)

    @property
    def query(self) -> str:
        return f"{self.exception} {self.dominant}"

    @property
    def verbatim(self) -> PoolFile:
        return next(f for f in self.pool if f.role == "verbatim")

    @property
    def kept(self) -> list[PoolFile]:
        return [f for f in self.pool if f.role not in DROP_RULES]

    @property
    def dropped(self) -> list[PoolFile]:
        return [f for f in self.pool if f.role in DROP_RULES]

    @property
    def relevant(self) -> list[PoolFile]:
        return [f for f in self.pool if f.role in ("verbatim", "relevant")]


@dataclass
class Workload:
    name: str
    seed: int
    cases: list[Case]
    limit: int = LIMIT
    orgs: list[str] = field(default_factory=lambda: list(ORGS))


# ---------------------------------------------------------------------------
# Material taken from the committed fixtures
# ---------------------------------------------------------------------------

_CATCH = re.compile(r"catch \(([\w.| ]+) (\w+)\) \{\n((?:[^{}\n]*\n)*?)\s*\}")


@dataclass
class Fixtures:
    snippets: list[str]            # whole fixture files that balance
    handlers: list[list[str]]      # catch bodies, variable renamed to {e}

    @classmethod
    def load(cls, root: Path) -> "Fixtures":
        snippets, handlers = [], []
        for path in sorted(root.rglob("*.java")):
            text = path.read_text(encoding="utf-8")
            lines = text.strip("\n").splitlines()
            if brackets_balance(text) and 3 <= len(lines) <= 40:
                snippets.append("\n".join(lines))
            for m in _CATCH.finditer(text):
                var = m.group(2)
                body = [
                    re.sub(rf"\b{var}\b", "{e}", line.strip())
                    for line in m.group(3).splitlines()
                    if line.strip()
                ]
                if body and all(brackets_balance(b) for b in body) and body not in handlers:
                    handlers.append(body)
        if not snippets or not handlers:
            raise RuntimeError(f"no usable fixtures under {root}")
        return cls(snippets, handlers)


# ---------------------------------------------------------------------------
# Code templates
# ---------------------------------------------------------------------------


class _Writer:
    """Java text for one case, drawing names and literals from ``rng``."""

    def __init__(self, rng: random.Random, fixtures: Fixtures):
        self.rng = rng
        self.fx = fixtures
        self.counter = 0

    def fresh(self, stem: str) -> str:
        self.counter += 1
        return f"{stem}{self.counter}"

    def literal(self) -> str:
        return f'"{self.rng.choice(WORDS)}-{self.rng.randrange(1000)}"'

    def handler(self, var: str, indent: str) -> list[str]:
        body = self.rng.choice(self.fx.handlers)
        return [indent + line.replace("{e}", var) for line in body]

    def call(self, var: str, method: str) -> str:
        return f"{var}.{method}({self.literal() if self.rng.random() < 0.5 else ''});"

    def helpers(self, count: int, avoid: tuple[str, ...] = ()) -> list[str]:
        usable = [s for s in self.fx.snippets if not any(a in s for a in avoid)]
        out = []
        for snippet in self.rng.sample(usable, count):
            out.append(f"    void {self.fresh('helper')}() {{")
            out.extend("        " + line for line in snippet.splitlines())
            out.append("    }")
        return out

    def klass(self, package: str, name: str, members: list[str]) -> str:
        head = [f"package org.demo.{package};", "", f"public class {name} {{"]
        return "\n".join(head + members + ["}", ""])


def _fragment(w: _Writer, dominant: str, exception: str, secondary: str | None,
              generic: bool) -> tuple[str, dict[str, int]]:
    """IDE fragment: a declaration of the dominant object, then a try block
    using it and the secondary object, then one catch clause."""
    rng = w.rng
    dv = rng.choice(WORDS) + "Ref"
    lines = [f"{dominant} {dv} = {rng.choice(SOURCES)}.open{dominant}({w.literal()});", "try {"]
    body: list[str] = []
    kb_calls, neutral = (ACTORS[dominant][1], ACTORS[dominant][2]) if dominant in ACTORS else ((), DOMAIN_METHODS)
    types = {dominant: 1}
    # The dominant object gets the most member accesses, so it wins the
    # dominant-class vote by a margin of at least two.
    n_dom = rng.randint(3, 4)
    for i in range(n_dom):
        # An API-typed dominant object always makes one call with a
        # knowledge-base row, so a generic catch still resolves.
        pool = kb_calls if (kb_calls and i == 0) else (kb_calls + neutral if kb_calls else neutral)
        body.append(w.call(dv, rng.choice(pool)))
    if secondary:
        sv = rng.choice(WORDS) + "Handle"
        body.insert(0, f"{secondary} {sv} = {rng.choice(SOURCES)}.open{secondary}({w.literal()});")
        for _ in range(rng.randint(1, n_dom - 2)):
            body.insert(rng.randint(1, len(body)), w.call(sv, rng.choice(ACTORS[secondary][1])))
        types[secondary] = 1
    lines += ["    " + b for b in body]
    ev = rng.choice(("e", "ex", "failure", "problem"))
    lines.append(f"}} catch ({'Exception' if generic else exception} {ev}) {{")
    lines += w.handler(ev, "    ")
    lines.append("}")
    return "\n".join(lines) + "\n", types


def _sql_method(w: _Writer, owner: str, blocks: int, exception_clause: str, name: str,
                lean: bool = False) -> list[str]:
    """A data-access method: one connection, ``blocks`` prepared statements
    each with its result set, and an owner object that records every row.
    The owner makes seven calls per block against at most four on any other
    object, so it is the dominant class. A ``lean`` method tracks the same
    objects with about half the tokens (pool candidates: the objects set the
    pairing cost, the tokens the LCS cost)."""
    rng = w.rng
    dv, cv = rng.choice(("repo", "store", "target", "sink")), rng.choice(("conn", "db", "link"))
    out = [
        f"    public void {name}(String region, int limit) {{",
        f"        {owner} {dv} = {rng.choice(SOURCES)}.lookup(region);",
        f"        Connection {cv} = {dv}.connect();",
        "        try {",
    ]
    for j in range(blocks):
        table = rng.choice(WORDS)
        out += [
            f'            PreparedStatement ps{j} = {cv}.prepareStatement("select name, qty from {table} where region = ?");',
            f"            ps{j}.setString(1, region);",
            f"            ResultSet rs{j} = ps{j}.executeQuery();",
            f"            while (rs{j}.next()) {{",
            f'                {dv}.store(rs{j}.getString("name"), rs{j}.getInt("qty"));',
        ]
        if not lean:
            out += [
                f'                {dv}.log("{table}", rs{j}.getInt("qty"), limit);',
                f"                {dv}.mark({rng.randrange(100)});",
                f"                {dv}.count(region);",
                f'                {dv}.audit("{table}", region);',
            ]
        out.append("            }")
        if not lean:
            out += [
                f"            ps{j}.setInt(2, limit);",
                f"            ps{j}.close();",
                f"            {dv}.flush();",
                f"            {dv}.touch();",
            ]
    out.append(f"        }} catch ({exception_clause} e) {{")
    out.append(f"            {dv}.rollback();")
    out += w.handler("e", "            ")
    out += ["        }", "    }"]
    return out


# ---------------------------------------------------------------------------
# Pools
# ---------------------------------------------------------------------------


def _related_method(w: _Writer, exception: str, types: list[str], name: str) -> list[str]:
    """A method using ``types`` with one catch of ``exception``."""
    rng = w.rng
    out = [f"    public void {name}() {{", "        try {"]
    for t in types:
        v = w.fresh(t[0].lower() + t[1:3])
        out.append(f"            {t} {v} = {rng.choice(SOURCES)}.open{t}({w.literal()});")
        calls = ACTORS[t][1] + ACTORS[t][2] if t in ACTORS else DOMAIN_METHODS
        for _ in range(rng.randint(1, 3)):
            out.append("            " + w.call(v, rng.choice(calls)))
    ev = rng.choice(("e", "ioe", "err", "cause"))
    out.append(f"        }} catch ({exception} {ev}) {{")
    out += w.handler(ev, "            ")
    out += ["        }", "    }"]
    return out


def _drop_file(w: _Writer, rule: str, exception: str, family: list[str]) -> str:
    rng = w.rng
    t = rng.choice(family)
    v = t[0].lower() + t[1:]
    use = [f"        {t} {v} = {rng.choice(SOURCES)}.open{t}({w.literal()});",
           "        " + w.call(v, rng.choice(ACTORS[t][1]))]
    if rule == "no-handler":
        members = [f"    public void run() throws {exception} {{", *use, "    }"]
    elif rule == "no-exception-mention":
        other = rng.choice(OTHER_EXCEPTIONS)
        members = ["    public void run() {", "        try {", *("    " + u for u in use),
                   f"        }} catch ({other} e) {{", "            e.printStackTrace();", "        }", "    }"]
    elif rule == "too-short":
        return (f"class Tiny{rng.randrange(10**6)} {{ void run() {{ try {{ {v}.{ACTORS[t][1][0]}(); }} "
                f"catch ({exception} e) {{ }} }} }}\n")
    else:  # too-long
        members = ["    public void run() {", "        try {", *("    " + u for u in use)]
        members += [f"            {v}.{rng.choice(ACTORS[t][2] or ACTORS[t][1])}({i});"
                    for i in range(MAX_SLOC + 10)]
        members += [f"        }} catch ({exception} e) {{", "            e.printStackTrace();", "        }", "    }"]
    return w.klass("drops", f"Drop{rng.randrange(10**6)}", members)


def _place(w: _Writer, case: Case, texts: list[tuple[str, str]]) -> None:
    """Give each (role, text) a repository and path, spread over the orgs,
    in a seeded order."""
    w.rng.shuffle(texts)
    for i, (role, text) in enumerate(texts):
        org = ORGS[i % len(ORGS)]
        project = w.rng.choice(WORDS)
        case.pool.append(PoolFile(f"{org}/{project}-{case.name}", f"src/main/java/F{i:03d}.java", text, role))


def _fragment_pool(w: _Writer, case: Case, size: int, relevant: int, helpers: tuple[int, int]) -> None:
    rng = w.rng
    family = FAMILY[case.exception]
    texts: list[tuple[str, str]] = []
    members = [f"    public void edit() throws {case.exception} {{"]
    members += ["        " + line for line in case.context.splitlines()]
    members += ["    }", *w.helpers(1)]
    texts.append(("verbatim", w.klass("ide", "Verbatim", members)))
    for rule in DROP_RULES:
        texts += [(rule, _drop_file(w, rule, case.exception, family)) for _ in range(DROPS_PER_RULE)]
    while len(texts) < size:
        role = "relevant" if sum(r == "relevant" for r, _ in texts) < relevant else "related"
        types = list(case.context_types) if role == "relevant" else rng.sample(family, min(2, len(family)))
        members = _related_method(w, case.exception, types, w.fresh("process"))
        members += w.helpers(rng.randint(*helpers))
        texts.append((role, w.klass("lib", w.fresh("Worker"), members)))
    _place(w, case, texts)


# Result-set/statement blocks per candidate in a whole-method pool: most
# small, a few large enough that the pairing search is exhaustive but
# expensive, or past the 20,000-assignment switch.
_WHOLE_POOL_BLOCKS = [0] * 14 + [1] * 24 + [2] * 14 + [3] * 5 + [4] * 2 + [6, 9]


def _whole_pool(w: _Writer, case: Case, method: list[str]) -> None:
    rng = w.rng
    texts: list[tuple[str, str]] = []
    members = method + [f"    void {w.fresh('check')}() throws {case.exception} {{", "    }"]
    texts.append(("verbatim", w.klass("dao", "Verbatim", members)))
    for rule in DROP_RULES:
        texts += [(rule, _drop_file(w, rule, case.exception, FAMILY["SQLException"]))
                  for _ in range(DROPS_PER_RULE)]
    for i, blocks in enumerate(_WHOLE_POOL_BLOCKS):
        other = rng.choice(DOMAIN_PREFIX) + "Mapper"
        members = _sql_method(w, other, blocks, case.exception, w.fresh("copy"), lean=True)
        members += w.helpers(i % 2, avoid=("Connection", "Statement", "ResultSet"))
        texts.append(("related", w.klass("dao", w.fresh("Dao"), members)))
    _place(w, case, texts)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _dominants(rng: random.Random, api: int, domain: int) -> list[str]:
    apis = rng.sample(sorted(ACTORS), api)
    domains = rng.sample([p + s for p in DOMAIN_PREFIX for s in DOMAIN_SUFFIX], domain)
    return apis + domains


def _fragment_cases(rng: random.Random, fx: Fixtures, prefix: str, api: int, domain: int,
                    pool_size: int, relevant: int, helpers: tuple[int, int]) -> list[Case]:
    cases = []
    for i, dominant in enumerate(_dominants(rng, api, domain)):
        w = _Writer(random.Random(rng.random()), fx)
        if dominant in ACTORS:
            exception = ACTORS[dominant][0]
            secondary = next((t for t in FAMILY[exception] if t != dominant), None)
        else:
            exception = rng.choice(sorted(FAMILY))
            secondary = rng.choice(FAMILY[exception])
        generic = i % 2 == 1
        text, types = _fragment(w, dominant, exception, secondary, generic)
        case = Case(f"{prefix}{i + 1:02d}", text, exception, dominant, generic, context_types=types)
        _fragment_pool(w, case, pool_size, relevant, helpers)
        cases.append(case)
    return cases


# Blocks per whole-method context; with the owner and the connection a
# context tracks 2 * blocks + 2 objects, 6 to 20.
WHOLE_METHOD_BLOCKS = (2, 3, 5, 6, 8, 9)


def _whole_cases(rng: random.Random, fx: Fixtures) -> list[Case]:
    cases = []
    owners = rng.sample([p + s for p in DOMAIN_PREFIX for s in DOMAIN_SUFFIX], len(WHOLE_METHOD_BLOCKS))
    for i, (blocks, owner) in enumerate(zip(WHOLE_METHOD_BLOCKS, owners)):
        w = _Writer(random.Random(rng.random()), fx)
        generic = i % 2 == 1
        method = _sql_method(w, owner, blocks, "Exception" if generic else "SQLException", "synchronize")
        case = Case(f"w{i + 1:02d}", "\n".join(method) + "\n", "SQLException", owner, generic)
        _whole_pool(w, case, method)
        cases.append(case)
    return cases


WORKLOADS = ("fragment-70", "whole-method-70", "paper-eval-65")


def build(name: str, seed: int, fixtures_dir: Path) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    fx = Fixtures.load(fixtures_dir)
    if name == "fragment-70":
        cases = _fragment_cases(rng, fx, "f", api=8, domain=16, pool_size=70, relevant=0, helpers=(1, 3))
    elif name == "whole-method-70":
        cases = _whole_cases(rng, fx)
    elif name == "paper-eval-65":
        cases = _fragment_cases(rng, fx, "p", api=17, domain=48, pool_size=68, relevant=4, helpers=(0, 0))
    else:
        raise ValueError(f"unknown workload {name!r}")
    for case in cases:
        for f in case.pool:
            if not brackets_balance(f.text):
                raise RuntimeError(f"generated unbalanced file for {case.name}")
    return Workload(name, seed, cases)
