#!/usr/bin/env python3
"""Export audit: who calls each `val` that a `lib/**/*.mli` exports.

For every `val` of every interface under lib/ it prints three counts:

  ext   qualified references (`M.v`, or `v` under `open M` / `let open M` /
        `M.( ... )`) from lib/, bin/ and perfbench/, outside M's own files;
  test  the same kind of reference from test/, examples/ and bench/;
  self  occurrences inside M's own .ml, its definition excluded.

Aliases (`module X = Detmt_sim.Engine`) are followed.  Values declared in a
`module type` are implemented rather than called, so they are listed apart
and left out of the totals.  The matching is textual: comments and strings
are stripped, but a shadowing local name still counts as a reference, so an
export reported with ext=0 is a candidate to triage, not a verdict.

Usage: python3 test/export_audit.py [--unused] [--root DIR]
  --unused   list only the exports with ext=0
This script only reports; its exit status is always 0.
"""

import os
import re
import sys
from collections import defaultdict

EXT_DIRS = ("lib", "bin", "perfbench")
TEST_DIRS = ("test", "examples", "bench")


def strip(src):
    """Blank out (nested) comments, string and char literals."""
    out = []
    i, n, depth = 0, len(src), 0
    while i < n:
        c = src[i]
        if src.startswith("(*", i):
            depth += 1
            i += 2
            continue
        if depth and src.startswith("*)", i):
            depth -= 1
            i += 2
            continue
        if depth:
            out.append("\n" if c == "\n" else " ")
            i += 1
            continue
        if c == '"':
            j = i + 1
            while j < n and src[j] != '"':
                j += 2 if src[j] == "\\" else 1
            out.append('""' + "\n" * src.count("\n", i, j))
            i = j + 1
            continue
        if c == "'" and re.match(r"'(\\.|[^\\'])'", src[i : i + 4] or ""):
            m = re.match(r"'(\\[^']*|[^\\'])'", src[i:])
            if m:
                out.append("' '")
                i += len(m.group(0))
                continue
        out.append(c)
        i += 1
    return "".join(out)


def sources(root, dirs):
    for d in dirs:
        for dirpath, dirnames, files in os.walk(os.path.join(root, d)):
            dirnames[:] = [x for x in dirnames if x != "_build"]
            for f in sorted(files):
                if f.endswith((".ml", ".mli")):
                    yield os.path.join(dirpath, f)


def module_of(path):
    return os.path.splitext(os.path.basename(path))[0].capitalize()


VAL = re.compile(r"^\s*val\s+([a-z_][\w']*|\(\s*[^)]+?\s*\))\s*:")
MOD_SIG = re.compile(r"^\s*module\s+([A-Z][\w']*)\s*:\s*sig\b")
MOD_TYPE = re.compile(r"^\s*module\s+type\s+([A-Z][\w']*)\s*=\s*sig\b")
SIG_OPEN = re.compile(r"\b(sig|struct|object)\b")
END = re.compile(r"\bend\b")


def exports(root):
    """(mli path, module, submodule path, name, in_module_type) per val."""
    for path in sources(root, ("lib",)):
        if not path.endswith(".mli"):
            continue
        top = module_of(path)
        stack = []  # (name, is_module_type)
        for line in strip(open(path).read()).splitlines():
            m = MOD_SIG.match(line) or MOD_TYPE.match(line)
            if m:
                stack.append((m.group(1), bool(MOD_TYPE.match(line))))
                continue
            v = VAL.match(line)
            if v:
                name = re.sub(r"\s+", " ", v.group(1))
                yield path, top, [s for s, _ in stack], name, any(
                    t for _, t in stack
                )
            opens = len(SIG_OPEN.findall(line))
            for _ in range(len(END.findall(line)) - opens):
                if stack:
                    stack.pop()


def main():
    args = sys.argv[1:]
    root = "."
    if "--root" in args:
        root = args[args.index("--root") + 1]
    only_unused = "--unused" in args

    texts = {p: strip(open(p).read()) for p in sources(root, EXT_DIRS + TEST_DIRS)}
    lib_modules = {module_of(p) for p in texts if p.startswith(os.path.join(root, "lib"))}

    # module X = A.B.M  ->  X names M
    aliases = defaultdict(set)
    for text in texts.values():
        for x, target in re.findall(
            r"\bmodule\s+([A-Z][\w']*)\s*=\s*((?:[A-Z][\w']*\.)*[A-Z][\w']*)\b", text
        ):
            m = target.split(".")[-1]
            if m in lib_modules and x != m:
                aliases[m].add(x)

    def names_for(m):
        return {m} | aliases[m]

    TOKEN = re.compile(r"(?<![\w.'])((?:[A-Z][\w']*\.)*)([a-z_][\w']*)\b(?!')")
    qualified, bare, opens = {}, {}, {}
    for p, text in texts.items():
        q, b = defaultdict(int), defaultdict(int)
        for path, name in TOKEN.findall(text):
            if path:
                q[(path.split(".")[-2], name)] += 1
            else:
                b[name] += 1
        qualified[p], bare[p] = q, b
        opens[p] = set(
            re.findall(r"\bopen!?\s+(?:[A-Z][\w']*\.)*([A-Z][\w']*)", text)
        ) | set(re.findall(r"\b([A-Z][\w']*)\.\(", text))

    def count(p, m, sub, name):
        quals = names_for(sub[-1]) if sub else names_for(m)
        n = sum(qualified[p].get((x, name), 0) for x in quals)
        if opens[p] & names_for(m):
            n += bare[p].get(name, 0)
        return n

    rows = []
    for mli, m, sub, name, in_sig in exports(root):
        own = {mli, mli[:-1]}
        ext = test = 0
        for p in texts:
            if p in own or name.startswith("("):
                continue
            c = count(p, m, sub, name)
            if not c:
                continue
            if os.path.relpath(p, root).split(os.sep)[0] in EXT_DIRS:
                ext += c
            else:
                test += c
        self_text = texts.get(mli[:-1], "")
        self_n = 0
        if self_text and not name.startswith("("):
            self_n = bare[mli[:-1]].get(name, 0) - len(
                re.findall(r"\b(?:let|and)\s+(?:rec\s+)?%s\b" % re.escape(name), self_text)
            )
        qual = ".".join([m] + sub + [name])
        rows.append((qual, ext, test, max(self_n, 0), in_sig))

    width = max(len(r[0]) for r in rows)
    for qual, ext, test, self_n, in_sig in rows:
        if only_unused and (ext or in_sig):
            continue
        tag = "  [module type]" if in_sig else ""
        print(f"{qual:<{width}}  ext={ext:<4} test={test:<4} self={self_n:<4}{tag}")

    counted = [r for r in rows if not r[4]]
    no_ext = [r for r in counted if r[1] == 0]
    print()
    print(f"vals: {len(rows)} ({len(rows) - len(counted)} in module types)")
    print(f"no reference from lib/bin/perfbench: {len(no_ext)}")
    print(f"  of which tests/examples/bench use: {sum(1 for r in no_ext if r[2])}")
    print(f"  of which nothing outside the module uses: {sum(1 for r in no_ext if not r[2])}")


if __name__ == "__main__":
    main()
