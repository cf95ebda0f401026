"""Start the benchmark's op children from a process that stays small.

A child's ru_maxrss includes the memory of the process that forked it,
so ops are not started by the harness, which holds and parses their
output.  The harness starts this helper once per run with one end of a
Unix SOCK_SEQPACKET socket (fd in argv[1]).  For each op it receives the
argv as JSON together with the write ends of the op's stdout and stderr
pipes, starts the op with stdin from /dev/null, replies {"pid"}, waits
for it with os.wait4, and replies {"status", "cpu_s", "rss_kb"}.  It
exits when the harness closes the socket.
"""
import json
import os
import socket
import sys


def main() -> None:
    sock_fd = int(sys.argv[1])
    with socket.socket(fileno=sock_fd) as sock:
        while True:
            message, fds, _, _ = socket.recv_fds(sock, 1 << 16, 2)
            if not message:
                return
            argv = json.loads(message)
            out_fd, err_fd = fds
            try:
                pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=[
                    (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                    (os.POSIX_SPAWN_DUP2, out_fd, 1),
                    (os.POSIX_SPAWN_DUP2, err_fd, 2),
                    (os.POSIX_SPAWN_CLOSE, out_fd),
                    (os.POSIX_SPAWN_CLOSE, err_fd),
                    (os.POSIX_SPAWN_CLOSE, sock_fd),
                ])
            finally:
                os.close(out_fd)
                os.close(err_fd)
            sock.send(json.dumps({"pid": pid}).encode())
            _, status, usage = os.wait4(pid, 0)
            sock.send(json.dumps({
                "status": os.waitstatus_to_exitcode(status),
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "rss_kb": usage.ru_maxrss,
            }).encode())


if __name__ == "__main__":
    main()
