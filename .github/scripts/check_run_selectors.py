#!/usr/bin/env python3
"""Fail when a `go test -run` selector in a workflow selects no test.

Usage: python3 .github/scripts/check_run_selectors.py WORKFLOW.yml...

Every `go test` command with a `-run` pattern is re-run as
`go test -list` over the same packages, once per top-level alternative
of the pattern, so a renamed or deleted test cannot silently turn a CI
leg into a no-op. `-run '^$'` (benchmark and fuzz steps) is exempt.
"""
import re
import shlex
import subprocess
import sys


def commands(path):
    text = open(path).read().replace("\\\n", " ")
    for line in text.splitlines():
        i = line.find("go test ")
        if i >= 0:
            yield shlex.split(line[i:], comments=True)


def selector(argv):
    """Returns the -run pattern and the package arguments of one command."""
    pattern, pkgs = None, []
    it = iter(argv[2:])
    for arg in it:
        if arg == "-run":
            pattern = next(it)
        elif arg.startswith("-run="):
            pattern = arg[len("-run="):]
        elif arg in ("-timeout", "-count", "-bench", "-benchtime", "-fuzz", "-fuzztime"):
            next(it)
        elif not arg.startswith("-"):
            pkgs.append(arg)
    return pattern, pkgs or ["."]


def alternatives(pattern):
    """Splits a regexp on its top-level '|'."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(pattern):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "|" and depth == 0:
            parts.append(pattern[start:i])
            start = i + 1
    parts.append(pattern[start:])
    return parts


def listed(alt, pkgs):
    out = subprocess.run(["go", "test", "-list", alt, *pkgs],
                         capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit("go test -list %r %s failed:\n%s%s" % (alt, " ".join(pkgs), out.stdout, out.stderr))
    return [l for l in out.stdout.splitlines()
            if re.match(r"^(Test|Benchmark|Fuzz|Example)\w*$", l)]


def main(paths):
    bad = 0
    for path in paths:
        for argv in commands(path):
            pattern, pkgs = selector(argv)
            if pattern is None or pattern == "^$" or "${{" in pattern:
                continue
            for alt in alternatives(pattern):
                names = listed(alt, pkgs)
                status = "ok" if names else "SELECTS NOTHING"
                print("%s: -run %r in %s: %d test(s) %s" % (path, alt, " ".join(pkgs), len(names), status))
                bad += not names
    if bad:
        sys.exit("%d -run selector(s) match no test" % bad)


if __name__ == "__main__":
    main(sys.argv[1:])
