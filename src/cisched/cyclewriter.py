"""Write one cycle's artifact files, in process or as a writer process.

The module imports the standard library only, so that
``python -I -S cyclewriter.py`` runs it without the package on sys.path.
As a process it reads frames on stdin. A frame is one header line, the
JSON list of each file's [path, size], followed by the files' bytes in
that order. The process reads a whole frame before it writes any file of
it, so a sender is never left blocked on a full pipe. It then writes the
files and answers one line on stdout: ``ok``, or the error of the first
write that failed, after which it exits. It exits 0 at the end of its
input.
"""

import json
import os
import sys

OK = b"ok\n"


def write_files(files):
    """Create each (path, data) file in turn, making its directory first.

    An OSError names the file or directory that could not be made.
    """
    made = set()
    for path, data in files:
        parent = os.path.dirname(path)
        if parent not in made:
            os.makedirs(parent, exist_ok=True)
            made.add(parent)
        with open(path, "wb") as fh:
            fh.write(data)


def error_reply(exc):
    """The answer line for a failed write; raise_reply raises the same error."""
    if isinstance(exc, OSError):
        kind, args = "OSError", [exc.errno, exc.strerror, exc.filename]
    else:
        kind, args = "ValueError", [str(exc)]
    return json.dumps([kind, args]).encode("ascii") + b"\n"


def raise_reply(reply):
    """Raise the error an answer line other than OK names."""
    kind, args = json.loads(reply)
    raise {"OSError": OSError, "ValueError": ValueError}[kind](*args)


def serve(stdin, stdout):
    """Write each frame read from stdin, answering on stdout; the exit status."""
    while True:
        header = stdin.readline()
        if not header:
            return 0
        entries = json.loads(header)
        total = sum(size for _, size in entries)
        payload = memoryview(stdin.read(total))
        if len(payload) != total:
            # The sender stopped mid-frame.
            return 1
        files, start = [], 0
        for path, size in entries:
            files.append((path, payload[start:start + size]))
            start += size
        try:
            write_files(files)
        except (OSError, ValueError) as exc:
            stdout.write(error_reply(exc))
            stdout.flush()
            return 1
        stdout.write(OK)
        stdout.flush()


if __name__ == "__main__":
    sys.exit(serve(sys.stdin.buffer, sys.stdout.buffer))
