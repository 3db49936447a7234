#!/usr/bin/env python3
"""Symbol hygiene of the kernel engine's per-ISA rung objects.

Each rung object (src/la/kernels_avx2.cpp, src/la/kernels_avx512.cpp) is
compiled for a wider ISA than the rest of the program. A weak or global
symbol it defines outside its own rung namespace -- an inline function, a
template instantiation, a vtable -- may be the copy the linker keeps for
the whole program, and that copy faults on a CPU without the ISA, even
though the rung itself is never selected there. A host that has the ISA
never notices, so the rule is checked on the objects instead: `nm
--defined-only` must show no such symbol, and must show the rung's table
(so an empty or wrong object cannot pass).

Usage: check_rung_symbols.py NM RUNG=OBJECT [RUNG=OBJECT ...]
"""
import subprocess
import sys


def exported(kind):
    # nm: upper case = global; u = unique global; v/w = weak; i = ifunc.
    return kind.isupper() or kind in "uvwi"


# AddressSanitizer gives each instrumented global a one-byte ODR marker,
# "__odr_asan.<mangled name>"; it belongs to that global.
ODR_MARKER = "__odr_asan."


def check(nm, rung, obj):
    ns = ["nadmm", "la", "kernels", "engine", rung]
    prefix = "::".join(ns) + "::"
    mangled_prefix = "_ZN" + "".join("%d%s" % (len(n), n) for n in ns)
    table = prefix + "kTable"
    out = subprocess.run([nm, "--defined-only", "-C", obj], check=True,
                         capture_output=True, text=True).stdout
    bad, has_table = [], False
    for line in out.splitlines():
        parts = line.split(None, 2)
        if len(parts) != 3 or not exported(parts[1]):
            continue
        name = parts[2]
        has_table = has_table or name == table
        if name.startswith(ODR_MARKER + mangled_prefix):
            continue
        if not name.startswith(prefix):
            bad.append("%s %s" % (parts[1], name))
    problems = ["defines %s outside %s" % (b, prefix) for b in bad]
    if not has_table:
        problems.append("does not define %s" % table)
    for p in problems:
        print("%s rung (%s): %s" % (rung, obj, p))
    if not problems:
        print("%s rung: only %s is exported" % (rung, table))
    return not problems


def main(argv):
    if len(argv) < 3:
        print(__doc__)
        return 2
    nm, ok = argv[1], True
    for arg in argv[2:]:
        rung, _, obj = arg.partition("=")
        ok = check(nm, rung, obj) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
