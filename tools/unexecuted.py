"""Which executable lines of ``src/`` never run?  (``coverage`` without the dependency.)

    python tools/unexecuted.py [--summary] ["pytest -x -q" | "script.py args" ...]

Runs each target in this process under ``sys.settrace`` (worker threads
included) — by default the tier-1 suite — and prints, per file, how many
executable lines no target reached and which (``--summary``: the counts only).
A function stops being traced once every line of it has run.
"""

import dis, os, runpy, shlex, sys, threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src") + os.sep
seen, pending = set(), {}  # (file, line) executed; code object -> its lines not yet seen


def lines_of(code):
    return {line for _, line in dis.findlinestarts(code) if line}


def on_call(frame, event, arg):
    code = frame.f_code
    if code not in pending:
        pending[code] = lines_of(code) if code.co_filename.startswith(SRC) else set()
    return on_line if pending[code] else None


def on_line(frame, event, arg):
    if event == "line":
        pending[frame.f_code].discard(frame.f_lineno)
        seen.add((frame.f_code.co_filename, frame.f_lineno))
    return on_line


def executable_lines(path):
    stack, lines = [compile(open(path, encoding="utf-8").read(), path, "exec")], set()
    while stack:
        code = stack.pop()
        lines |= lines_of(code)
        stack.extend(const for const in code.co_consts if hasattr(const, "co_code"))
    return lines


def ranges(lines):
    runs = []
    for line in sorted(lines):
        if runs and runs[-1][1] == line - 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main(arguments):
    summary = "--summary" in arguments
    targets = [a for a in arguments if a != "--summary"] or ["pytest -x -q -p no:cacheprovider"]
    sys.path[:0] = [SRC, ROOT]
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        for target in targets:
            sys.argv = shlex.split(target)
            try:
                if sys.argv[0] == "pytest":
                    import pytest

                    pytest.main(sys.argv[1:])
                else:
                    runpy.run_path(sys.argv[0], run_name="__main__")
            except SystemExit:
                pass
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = missed = 0
    for folder, _, names in sorted(os.walk(SRC)):
        for name in sorted(n for n in names if n.endswith(".py")):
            path = os.path.join(folder, name)
            lines = executable_lines(path)
            never = {line for line in lines if (path, line) not in seen}
            total, missed = total + len(lines), missed + len(never)
            if never:
                where = "" if summary else ": " + ranges(never)
                print(f"{os.path.relpath(path, ROOT)}: {len(never)}{where}")
    print(f"{missed} of {total} executable src/ lines never executed")


if __name__ == "__main__":
    main(sys.argv[1:])
