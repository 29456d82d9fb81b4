"""A daemon that answers every request at once, and its client.

``serve_mix`` times a round trip to this server between its requests to
the real daemon.  The server has the daemon's transport (a threaded
unix-socket server speaking newline-delimited JSON, one thread per
connection) but runs none of the program, so its round trip tracks how
fast the host wakes processes, starts threads and moves bytes at that
moment, not how fast the program is.

    python3 perfbench/null_server.py SOCKET
"""

from __future__ import annotations

import json
import socket
import socketserver
import sys

REQUEST = b'{"op": "null"}\n'


class _Handler(socketserver.StreamRequestHandler):
    def handle(self):
        for raw in self.rfile:
            line = raw.strip()
            if not line:
                continue
            request = json.loads(line.decode("utf-8"))
            response = {"status": "ok", "op": request.get("op")}
            self.wfile.write(
                (json.dumps(response, sort_keys=True) + "\n").encode("utf-8")
            )
            self.wfile.flush()


class NullServer(socketserver.ThreadingMixIn, socketserver.UnixStreamServer):
    daemon_threads = True


def round_trip(socket_path: str, timeout: float = 10.0) -> bytes:
    """One request over a fresh connection, as the program's client
    sends it; returns the raw response line."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(timeout)
        sock.connect(socket_path)
        sock.sendall(REQUEST)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
            if chunk.endswith(b"\n"):
                break
    data = b"".join(chunks)
    if not data:
        raise ConnectionError(f"no response from {socket_path}")
    return data


def main(argv) -> None:
    NullServer(argv[1], _Handler).serve_forever(poll_interval=0.1)


if __name__ == "__main__":
    main(sys.argv)
